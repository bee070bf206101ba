"""The :class:`Study` builder — one declarative object per experiment.

A study composes four things the internals used to take as scattered
kwargs: *what* to evaluate (a :class:`~repro.sweep.grid.ScenarioGrid`,
a :class:`~repro.sweep.grid.ScenarioList`, or any iterable of
scenarios), *how* to price each point (an objective — ``"system"``,
``"timeline"``, ``"eq10"``, or a user callable), *where* it runs (an execution
backend from :mod:`repro.api.backends` plus a worker count), and the
caching policy (on-disk scenario cache, evaluator-memo bound).

Builders are immutable: every fluent call returns a new study, so one
base study can fan out over backends or clusters without aliasing::

    from repro.api import Study, ScenarioGrid

    grid = ScenarioGrid(systems=("pipemoe", "mpipemoe"),
                        batches=(8192, 16384, 32768))
    base = Study(grid).cache(".sweep_cache")
    healthy = base.backend("serial").run()
    skewed = base.cluster("single-slow-gpu", severity=0.5).run()
    print(healthy.table())

Studies serialize: :meth:`Study.describe` emits a JSON-able spec and
:meth:`Study.from_spec` rebuilds one — the contract the
``python -m repro study`` CLI runs on.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Callable, Iterable

from repro.api.backends import Backend
from repro.api.result import ResultSet
from repro.obs import ObsSession
from repro.sweep.grid import (
    AXIS_FIELDS,
    Scenario,
    ScenarioGrid,
    ScenarioList,
    as_scenarios,
    check_field_value,
    scenario_payload,
)
from repro.sweep.runner import (
    SweepRunner,
    check_run_option,
    evaluate_eq10,
    evaluate_system,
    evaluate_timeline,
)

#: Named objectives selectable by string (and over the CLI).
OBJECTIVES: dict[str, Callable[[Scenario], dict]] = {
    "system": evaluate_system,
    "timeline": evaluate_timeline,
    "eq10": evaluate_eq10,
}


def _resolve_objective(objective) -> Callable[[Scenario], dict]:
    if callable(objective):
        return objective
    fn = OBJECTIVES.get(objective)
    if fn is None:
        raise ValueError(
            f"unknown objective {objective!r}; named objectives: "
            f"{', '.join(sorted(OBJECTIVES))} (or pass a callable)"
        )
    return fn


#: A study's run options and defaults, by SweepRunner keyword, in describe()
#: order (a study runs on ``serial`` by default, a bare runner on ``process``).
RUN_OPTIONS = {
    "backend": "serial",
    "workers": 1,
    "cache_dir": None,
    "evaluator_max_entries": None,
    "vectorize": None,
    "retry": None,
    "on_error": "raise",
    "resume": False,
}


class Study:
    """Declarative, immutable experiment description with a fluent API.

    Each run option of :data:`RUN_OPTIONS` is a keyword of ``Study()``
    and has a fluent method; :func:`~repro.sweep.runner.check_run_option`
    checks it as it is set (an unknown name is a ``TypeError``).
    """

    def __init__(self, grid=None, *, objective="system", **options) -> None:
        self._scenarios: list[Scenario] = [] if grid is None else as_scenarios(grid)
        self._objective = objective
        _resolve_objective(objective)  # eager validation
        self._options = dict(RUN_OPTIONS)
        for name, value in options.items():
            self._options[name] = check_run_option(name, value)
        self._observe: "dict | ObsSession | None" = None
        self._overlay: dict = {}

    # -- fluent builders (copy-on-write) ---------------------------------------
    def _clone(self, **changes) -> "Study":
        # A study never mutates its list or dicts in place, so copies
        # share them until a change replaces one.
        study = Study.__new__(Study)
        study.__dict__.update(self.__dict__, **changes)
        return study

    def _with(self, name: str, value) -> "Study":
        """A copy with one run option set, checked as the runner checks it."""
        return self._clone(
            _options={**self._options, name: check_run_option(name, value)}
        )

    def grid(self, *grids) -> "Study":
        """Append one or more grids / scenario iterables to the study."""
        extra: list[Scenario] = []
        for grid in grids:
            extra.extend(as_scenarios(grid))
        return self._clone(_scenarios=self._scenarios + extra)

    def objective(self, objective) -> "Study":
        """``"system"``, ``"timeline"``, or a ``Scenario -> dict`` callable
        (module-level, if the study runs on the process backend)."""
        _resolve_objective(objective)
        return self._clone(_objective=objective)

    def backend(self, backend: "str | Backend") -> "Study":
        """Select the execution backend by registry name or instance."""
        return self._with("backend", backend)

    def workers(self, workers: int) -> "Study":
        return self._with("workers", workers)

    def cache(self, cache_dir) -> "Study":
        """Cache completed scenarios as JSON under ``cache_dir``."""
        return self._with("cache_dir", cache_dir)

    def limit_memo(self, max_entries: int | None) -> "Study":
        """Bound every shared evaluator memo (LRU) for oversized grids."""
        return self._with("evaluator_max_entries", max_entries)

    def vectorize(self, vectorize: bool | None = True) -> "Study":
        """Control the whole-grid fast path (see
        :class:`~repro.sweep.runner.SweepRunner`): ``True`` forces the
        batched numpy pass for objectives with a batched twin, ``False``
        pins the per-scenario memoized path, ``None`` restores the
        automatic default (engage on large in-line batches)."""
        return self._with("vectorize", vectorize)

    def retry(self, policy=None, **kwargs) -> "Study":
        """Retry failing scenarios under a policy.

        Accepts a :class:`~repro.sweep.resilience.RetryPolicy`, an int
        (total attempts), or policy kwargs directly::

            study.retry(3)                            # 3 attempts
            study.retry(max_attempts=3, backoff=0.5)  # with backoff
            study.retry(None)                         # back to no retry
        """
        if policy is not None and kwargs:
            raise ValueError("pass a policy/int or policy kwargs, not both")
        return self._with("retry", kwargs or policy)

    def on_error(self, mode: str) -> "Study":
        """``"raise"`` (default: first failure propagates) or ``"keep"``
        (failures become ``ok=False`` rows; see
        :meth:`ResultSet.failures <repro.api.result.ResultSet.failures>`)."""
        return self._with("on_error", mode)

    def keep_going(self) -> "Study":
        """Shorthand for ``on_error("keep")``."""
        return self.on_error("keep")

    def resume(self, resume: bool = True) -> "Study":
        """Resume a previous run from its cache-side manifest,
        re-executing only failed-or-missing points (needs a cache)."""
        return self._with("resume", resume)

    def observe(
        self,
        obs: "bool | ObsSession" = True,
        *,
        trace=None,
        progress: bool = False,
        report=None,
    ) -> "Study":
        """Attach run-wide observability (see :mod:`repro.obs`).

        ``obs`` is ``True`` (collect run metrics), ``False`` (back to
        off — the default), or a ready
        :class:`~repro.obs.session.ObsSession` to share across runs
        (its counters accumulate).  ``trace`` writes a Chrome-trace
        JSON of the execution to the given path (``True`` collects it
        in memory on the session instead); ``progress`` renders a live
        ``N/total`` line on stderr; ``report`` writes the run-report
        JSON to an explicit path (one also lands next to
        ``manifest.json`` whenever the study has a cache directory).
        The report is attached to the returned result set as
        :meth:`ResultSet.metrics <repro.api.result.ResultSet.metrics>`.
        Observability never changes results, cache files, or the
        manifest — it only adds the report/trace artifacts.
        """
        if isinstance(obs, ObsSession):
            if trace is not None or progress or report is not None:
                raise ValueError(
                    "pass either a ready ObsSession or trace/progress/"
                    "report settings, not both"
                )
            return self._clone(_observe=obs)
        if not obs:
            if trace is not None or progress or report is not None:
                raise ValueError(
                    "observe(False) turns observability off; drop the "
                    "trace/progress/report settings"
                )
            return self._clone(_observe=None)
        spec: dict = {}
        if trace is not None:
            spec["trace"] = (
                trace if isinstance(trace, bool) else os.fspath(trace)
            )
        if progress:
            spec["progress"] = True
        if report is not None:
            spec["report"] = os.fspath(report)
        return self._clone(_observe=spec)

    def where(self, **fields) -> "Study":
        """Overlay scenario fields onto every point (applied at run time).

        Unknown field names and values that are not JSON scalars (the
        grid axes' rule, :func:`~repro.sweep.grid.check_field_value`)
        fail eagerly.
        """
        valid = set(AXIS_FIELDS.values())
        unknown = sorted(set(fields) - valid)
        if unknown:
            raise ValueError(
                f"unknown scenario field(s) {unknown}; valid fields: "
                f"{', '.join(sorted(valid))}"
            )
        for name, value in fields.items():
            check_field_value(f"scenario field {name!r}", value)
        return self._clone(_overlay={**self._overlay, **fields})

    def cluster(
        self,
        straggler: str | None,
        *,
        severity: float | None = None,
        seed: int = 0,
    ) -> "Study":
        """Evaluate every point on a straggler cluster (hetero spec).

        Sugar over :meth:`where` for the heterogeneous axes: the named
        straggler kind, its severity (victim rate multiplier), and the
        jitter seed.  ``straggler=None`` restores the homogeneous
        cluster.  A named kind requires an explicit ``severity`` —
        defaulting to 1.0 would make ``cluster("slow-node")`` a silent
        no-op whose results are mislabeled (and cached) as straggler
        runs.
        """
        if straggler is None:
            if severity not in (None, 1.0) or seed != 0:
                raise ValueError(
                    "cluster(None) restores the homogeneous cluster; "
                    "severity/seed have no effect without a straggler kind"
                )
            return self.where(straggler=None, severity=1.0, straggler_seed=0)
        if severity is None:
            raise ValueError(
                f"cluster({straggler!r}) needs an explicit severity "
                f"(the victim's rate multiplier, e.g. severity=0.5; "
                f"severity=1.0 is the healthy baseline)"
            )
        return self.where(
            straggler=straggler, severity=severity, straggler_seed=seed
        )

    # -- inspection ------------------------------------------------------------
    def scenarios(self) -> ScenarioList:
        """The fully-resolved scenario list (overlay applied)."""
        if not self._overlay:
            return ScenarioList(self._scenarios)
        return ScenarioList(
            dataclasses.replace(sc, **self._overlay) for sc in self._scenarios
        )

    def __len__(self) -> int:
        return len(self._scenarios)

    def describe(self) -> dict:
        """JSON-able spec of this study (round-trips via :meth:`from_spec`
        when the objective is named and the backend is registered)."""
        objective = (
            self._objective
            if isinstance(self._objective, str)
            else getattr(self._objective, "__qualname__", repr(self._objective))
        )
        options = dict(self._options)
        if not isinstance(options["backend"], str):
            options["backend"] = options["backend"].name
        if options["cache_dir"] is not None:
            options["cache_dir"] = str(options["cache_dir"])
        if options["retry"] is not None:
            options["retry"] = options["retry"].to_dict()
        return {
            "scenarios": [scenario_payload(sc) for sc in self.scenarios()],
            "objective": objective,
            **options,
            "observe": self._describe_observe(),
        }

    def _describe_observe(self) -> dict | None:
        """The observe spec as JSON (a live session describes its shape)."""
        observe = self._observe
        if not isinstance(observe, ObsSession):
            return observe
        spec: dict = {}
        if observe.trace_path:
            spec["trace"] = observe.trace_path
        elif observe.tracer is not None:
            spec["trace"] = True
        if observe.progress is not None:
            spec["progress"] = True
        if observe.report_path:
            spec["report"] = observe.report_path
        return spec

    @classmethod
    def from_spec(cls, spec: dict) -> "Study":
        """Build a study from a declarative dict (the CLI's file format).

        Recognized keys: ``grids`` (list of axis dicts, each a
        :class:`ScenarioGrid`), ``scenarios`` (list of scenario field
        dicts), ``objective``, ``cluster`` (dict of
        straggler/severity/seed), ``observe`` (as :meth:`describe`
        writes it) and every run option of :data:`RUN_OPTIONS`.
        """
        if not isinstance(spec, dict):
            raise TypeError(f"study spec must be a dict, got {type(spec).__name__}")
        known = {"grids", "scenarios", "objective", "cluster", "observe", *RUN_OPTIONS}
        unknown = sorted(set(spec) - known)
        if unknown:
            raise ValueError(
                f"unknown study spec key(s) {unknown}; valid keys: "
                f"{', '.join(sorted(known))}"
            )
        points: list[Scenario] = []
        for axes in spec.get("grids", ()):
            points.extend(ScenarioGrid(**axes).scenarios())
        for fields in spec.get("scenarios", ()):
            points.append(Scenario(**fields))
        study = cls(
            points,
            objective=spec.get("objective", "system"),
            **{name: spec[name] for name in RUN_OPTIONS if name in spec},
        )
        cluster = spec.get("cluster")
        if cluster:
            study = study.cluster(
                cluster.get("straggler"),
                severity=cluster.get("severity"),
                seed=cluster.get("seed", 0),
            )
        observe = spec.get("observe")
        if isinstance(observe, dict):
            study = study.observe(
                True,
                trace=observe.get("trace"),
                progress=bool(observe.get("progress", False)),
                report=observe.get("report"),
            )
        elif observe:
            study = study.observe(True)
        return study

    def __repr__(self) -> str:
        backend = self._options["backend"]
        if not isinstance(backend, str):
            backend = backend.name
        objective = (
            self._objective
            if isinstance(self._objective, str)
            else getattr(self._objective, "__qualname__", "<callable>")
        )
        return (
            f"Study({len(self._scenarios)} scenarios, objective={objective!r}, "
            f"backend={backend!r}, workers={self._options['workers']})"
        )

    # -- execution -------------------------------------------------------------
    def _build_obs(self) -> "ObsSession | None":
        """A fresh session from the observe spec (or the shared one)."""
        observe = self._observe
        if observe is None:
            return None
        if isinstance(observe, ObsSession):
            return observe
        return ObsSession(
            trace=observe.get("trace") or False,
            progress=bool(observe.get("progress", False)),
            report_path=observe.get("report"),
        )

    def runner(self) -> SweepRunner:
        """The configured :class:`~repro.sweep.runner.SweepRunner` this
        study executes on (exposed for introspection and reuse)."""
        return SweepRunner(
            _resolve_objective(self._objective),
            **self._options,
            obs=self._build_obs(),
        )

    def run(self) -> ResultSet:
        """Evaluate every scenario; results come back in scenario order.

        An observed study (:meth:`observe`) attaches its run report to
        the result set — read it back via :meth:`ResultSet.metrics
        <repro.api.result.ResultSet.metrics>`."""
        runner = self.runner()
        results = runner.run(self.scenarios())
        metrics = runner.obs.report() if runner.obs is not None else None
        return ResultSet(results, metrics=metrics)
