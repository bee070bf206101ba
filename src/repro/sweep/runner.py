"""Scenario fan-out over pluggable execution backends, with caching.

:class:`SweepRunner` takes any iterable of :class:`Scenario` (usually a
:class:`ScenarioGrid`), evaluates each point with a module-level
evaluator function through a :mod:`repro.api.backends` backend
(``serial`` / ``process`` / ``remote`` by name, or any
:class:`~repro.api.backends.Backend` instance), and returns
:class:`SweepResult` objects in scenario order regardless of worker
count or backend.
Objectives with a batched twin in :mod:`repro.perfmodel.batcheval`
can instead price all cache misses in one whole-grid pass, as the
runner's ``vectorize`` option decides.  Completed points are
cached as JSON files keyed by the scenario hash, so re-running a study —
or extending its grid — only pays for the new points.  Each point is
cached as its result lands, so a run that is killed or raises keeps
every point it finished (a whole-grid pass lands once it returns).

Evaluators map ``Scenario -> dict`` (JSON-serializable values).  Two are
built in:

* :func:`evaluate_system` — full system-model evaluation (iteration
  time, peak memory, chosen n / strategy) via
  :mod:`repro.systems`, the backend the paper figures sweep;
* :func:`evaluate_timeline` — price one raw ``build_timeline`` schedule,
  for ablation studies that pin every knob.

Custom evaluators must be plain module-level functions, not coroutine
functions (worker processes import them by qualified name, the standard
pickle contract).

Both built-in evaluators resolve their :class:`SystemContext` through a
process-wide pool (:func:`shared_context`), so every scenario evaluated
in one process — serially, inside one pool worker, or on a
``python -m repro serve`` worker — shares the context's
memoized :class:`~repro.perfmodel.evalcache.Evaluator`: stage costs,
compiled-timeline makespans and footprints computed for one scenario
are reused by every later scenario at the same (world size, hetero
spec).  Timeline scenarios never read the trace, so they are priced
through the records-free makespan-only mode by default.  The built-in
evaluators also report each scenario's evaluator-cache delta, which the
runner surfaces as :attr:`SweepResult.cache_stats` and persists into
the JSON cache files.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

from repro.api.backends import (
    Backend,
    ProcessBackend,
    SerialBackend,
    WorkersLost,
    get_backend,
)
from repro.obs.bus import active as _obs_active
from repro.obs.bus import emit as _obs_emit
from repro.obs.bus import label_of as _label_of
from repro.obs.bus import pop_collector, push_collector
from repro.obs.files import write_atomic
from repro.obs.session import ObsSession
from repro.sweep.resilience import (
    ATTEMPTS_KEY,
    ERROR_KEY,
    MANIFEST_NAME,
    RetryPolicy,
    RunManifest,
    ScenarioError,
    WorkerCrashError,
    grid_digest,
    kept_crash,
    run_with_policy,
)
from repro.config import DGX_A100_CLUSTER, MoELayerSpec, get_preset
from repro.hardware.hetero import HeteroClusterSpec, StragglerModel
from repro.perfmodel.placement import PlacementSpec
from repro.perfmodel.placeopt import PlacementProblem, optimize_placement
from repro.perfmodel.workload import WorkloadSpec
from repro.sweep.grid import (
    AXIS_FIELDS,
    Scenario,
    ScenarioGrid,
    encode_entry,
    objective_salt,
    read_entry,
    scenario_payload,
)
from repro.systems import (
    FastMoEModel,
    FasterMoEModel,
    MPipeMoEModel,
    PipeMoEModel,
)
from repro.systems.base import SystemContext

Evaluator = Callable[[Scenario], dict]

#: Key under which the built-in evaluators report the per-scenario
#: evaluator-cache stats.  The runner pops it out of ``values`` into
#: :attr:`SweepResult.cache_stats` (and a sibling JSON field), so the
#: physical values stay deterministic across worker layouts while cache
#: efficacy stays visible per study.
CACHE_STATS_KEY = "_evaluator_cache"

#: Key under which an observed evaluation attaches its event sidecar
#: (``{"pid": ..., "events": [(name, fields), ...]}``).  Sidecars
#: recorded in another process (pool workers have no live subscribers)
#: are replayed onto the parent's bus, same-process ones were already
#: delivered live.  Never cached, never surfaced in results.
OBS_KEY = "_sweep_obs"


def pop_reserved(values: dict) -> tuple:
    """Pop the reserved keys out of one evaluated values dict, in place.

    Returns ``(cache stats, attempts, error, obs sidecar)`` — what the
    runner's fold loop and a ``repro serve`` result frame carry beside
    the physical values.
    """
    return (
        values.pop(CACHE_STATS_KEY, None),
        values.pop(ATTEMPTS_KEY, 1),
        values.pop(ERROR_KEY, None),
        values.pop(OBS_KEY, None),
    )


#: Process-wide context pool, keyed by (world size, hetero spec).
#: Worker processes each grow their own copy (the pool is never
#: pickled), which is exactly the intra-process reuse wanted: scenarios
#: dispatched to one worker share one memoized evaluator per cluster.
_CONTEXTS: dict[tuple, SystemContext] = {}
_POOL_LOCK = threading.Lock()

#: The pool itself is bounded: a grid sweeping many distinct hetero
#: specs (severities x seeds) would otherwise retain one context — with
#: engines and memo — per point forever.  Evicted contexts are simply
#: rebuilt (cold memo) if their cluster shape comes around again.
MAX_SHARED_CONTEXTS = 64

#: Below this many cache-miss scenarios, auto mode keeps the memoized
#: per-scenario path: small grids gain little wall-clock from a batched
#: pass and would lose their per-scenario cache stats for nothing.
#: Explicit ``vectorize=True`` ignores it.
VECTORIZE_MIN_POINTS = 64


@dataclass(frozen=True)
class Execution:
    """How a run evaluates each scenario, as one picklable object.

    Layers, innermost first: the objective, the retry policy with its
    ``on_error`` semantics, and — when the run is observed — a
    ``scenario.span`` covering retries and backoff plus the event
    sidecar under :data:`OBS_KEY`.  The process backend pickles it to
    its workers; the remote backend ships :meth:`submit_fields` in its
    ``submit`` frame and the server rebuilds it with :meth:`from_submit`.
    Keep-going without a policy runs under the default one.
    """

    objective: Callable
    retry: RetryPolicy | None = None
    on_error: str = "raise"
    observed: bool = False
    run_t0: float = 0.0

    def __post_init__(self) -> None:
        if self.retry is None and self.on_error == "keep":
            object.__setattr__(self, "retry", RetryPolicy())

    @classmethod
    def from_submit(cls, objective: Callable, frame: dict) -> "Execution":
        """The execution a ``submit`` frame describes, around ``objective``.

        Fields are read by name, so any other field is ignored, such as
        the ``max_entries`` memo bound older clients still send.
        """
        retry = frame.get("retry")
        return cls(
            objective,
            retry=RetryPolicy(**retry) if retry else None,
            on_error=frame.get("on_error", "raise"),
            observed=bool(frame.get("observed")),
            run_t0=float(frame.get("run_t0") or 0.0),
        )

    def submit_fields(self) -> dict:
        """The execution fields of a ``submit`` frame, in wire order."""
        return {
            "retry": None if self.retry is None else self.retry.to_dict(),
            "on_error": self.on_error,
            "observed": self.observed,
            "run_t0": self.run_t0,
        }

    def __call__(self, scenario: Scenario) -> dict:
        if not self.observed:
            return self._attempts(scenario)
        # No gate on the bus being active: inside a fresh pool worker
        # nothing is subscribed yet, and pushing the collector is exactly
        # what makes the inner layers' emissions observable there.
        events: list = []
        token = push_collector(events)
        start_ts = time.time()
        p0 = time.perf_counter()
        span: dict = {"label": _label_of(scenario)}
        try:
            values = self._attempts(scenario)
        except BaseException as exc:
            span.update(ok=False, attempts=1, error=type(exc).__name__)
            raise
        else:
            span.update(
                ok=ERROR_KEY not in values,
                attempts=values.get(ATTEMPTS_KEY, 1),
            )
            values[OBS_KEY] = {"pid": os.getpid(), "events": events}
            return values
        finally:
            _obs_emit(
                "scenario.span",
                **span,
                ts=start_ts,
                dur=time.perf_counter() - p0,
                queue_s=start_ts - self.run_t0,
            )
            pop_collector(token)

    def _attempts(self, scenario: Scenario) -> dict:
        if self.retry is None:
            return self.objective(scenario)
        return run_with_policy(
            self.objective, scenario, self.retry, on_error=self.on_error,
            on_timeout=_drop_context,
        )


def shared_context(
    world_size: int | None, hetero: HeteroClusterSpec | None = None
) -> SystemContext:
    """The process's shared :class:`SystemContext` for one cluster shape."""
    key = (world_size, hetero)
    with _POOL_LOCK:
        ctx = _CONTEXTS.get(key)
        if ctx is None:
            ctx = SystemContext(world_size=world_size, hetero=hetero)
            # Exact per-scenario stats need evaluation + snapshot to be
            # atomic per context (see _with_cache_stats); in-flight
            # evaluations on an evicted context finish on their local
            # reference.
            ctx.sweep_lock = threading.Lock()
            # PlacementProblem -> optimized PlacementSpec for this
            # cluster (see scenario_placement).
            ctx.placements = {}
            while len(_CONTEXTS) >= MAX_SHARED_CONTEXTS:
                _CONTEXTS.pop(next(iter(_CONTEXTS)))
            _CONTEXTS[key] = ctx
    return ctx


def _drop_context(scenario: Scenario) -> None:
    """Forget the scenario's shared context after a timed-out attempt.

    The abandoned attempt's watchdog thread keeps evaluating while it
    holds the context's ``sweep_lock``; once the context leaves the
    pool, the retry and every later scenario on this cluster start on a
    fresh one instead of queueing behind the orphan.
    """
    key = (scenario.world_size, scenario_hetero(scenario))
    with _POOL_LOCK:
        _CONTEXTS.pop(key, None)


def scenario_hetero(scenario: Scenario) -> HeteroClusterSpec | None:
    """The scenario's heterogeneous cluster, or None for the plain pool.

    Built from the straggler axes on the same DGX-A100 base cluster the
    homogeneous path uses (resized only when the world outgrows it), so
    a ``straggler="uniform"`` scenario evaluates to values identical to
    no straggler at all — through the degenerate-hetero fast path.
    """
    if scenario.straggler is None:
        return None
    cluster = DGX_A100_CLUSTER
    if scenario.world_size > cluster.world_size:
        cluster = cluster.with_world_size(scenario.world_size)
    model = StragglerModel(
        kind=scenario.straggler,
        severity=scenario.severity,
        seed=scenario.straggler_seed,
    )
    return model.build(cluster=cluster)


def _scenario_spec(scenario: Scenario) -> MoELayerSpec:
    """The layer spec with the scenario's expert-count override applied."""
    spec = get_preset(scenario.spec)
    if scenario.num_experts is not None:
        spec = spec.with_(num_experts=scenario.num_experts)
    return spec


def scenario_workload(scenario: Scenario) -> WorkloadSpec | None:
    """The scenario's routing workload, or None for the seed path.

    Compiles the routing axes (top-k, dtype, gating imbalance) and the
    capacity factor into one :class:`WorkloadSpec`.  The capacity factor
    used to be applied here as ``ceil(batch * capacity_factor)`` on the
    whole per-device batch — contradicting the per-expert
    ``ceil(f * B * k / E)`` capacity of
    :func:`repro.core.dispatch.capacity_for`; it now rides the workload,
    which prices the padded per-expert buffers with the dispatch
    formula.
    """
    if (
        scenario.top_k is None
        and scenario.dtype is None
        and scenario.imbalance == 1.0
        and scenario.capacity_factor is None
        and scenario.placement is None
    ):
        return None
    kwargs = dict(
        top_k=scenario.top_k,
        imbalance=scenario.imbalance,
        capacity_factor=scenario.capacity_factor,
    )
    if scenario.dtype is not None:
        workload = WorkloadSpec.for_dtype(scenario.dtype, **kwargs)
    else:
        workload = WorkloadSpec(**kwargs)
    if scenario.placement is not None:
        workload = replace(
            workload, placement=scenario_placement(scenario, workload)
        )
    return workload


def scenario_placement(scenario: Scenario, workload: WorkloadSpec) -> PlacementSpec:
    """Lower the scenario's placement axis to a :class:`PlacementSpec`.

    The named strategies pass through symbolically; ``"optimized"`` is
    lowered eagerly — here, once per scenario, not in a pricing loop —
    by building a :class:`~repro.perfmodel.placeopt.PlacementProblem`
    from the workload's skew histogram, the scenario's hetero per-rank
    compute rates, and the per-device Eq. 5 memory budget (the slowest
    device's capacity, matching the selector's bound), then running the
    greedy + local-search optimizer.  An explicit assignment comes back,
    so every downstream layer prices exactly what was chosen.

    The result is memoized on the problem — exactly the optimizer's
    input — in the scenario's :func:`shared_context`, so systems and
    scenarios that lower the same problem on one cluster optimize it
    once, and dropping the context pool drops the memo with it.
    """
    if scenario.placement != "optimized":
        return PlacementSpec(strategy=scenario.placement)
    ctx = shared_context(scenario.world_size, scenario_hetero(scenario))
    problem = PlacementProblem.from_workload(
        _scenario_spec(scenario),
        workload,
        scenario.world_size,
        scenario.batch,
        comp_rates=tuple(r.comp for r in ctx.rank_rates) or None,
        memory_bytes=ctx.device_memory_bytes,
    )
    memo = ctx.placements
    placed = memo.get(problem)
    if placed is None:  # racing threads at worst both store equal specs
        placed = memo[problem] = optimize_placement(problem)
    return placed


def _with_cache_stats(ctx: SystemContext, before: tuple, values: dict) -> dict:
    """Attach the per-scenario evaluator-cache delta to ``values``."""
    values[CACHE_STATS_KEY] = ctx.evaluator.cache_delta(before)
    return values


def _make_system(scenario: Scenario, ctx: SystemContext):
    # Reject knobs this backend would silently ignore — otherwise a grid
    # crossing them produces distinctly-labeled (and distinctly-cached)
    # scenarios with identical values.
    if scenario.decomposed_comm or scenario.sequential:
        raise ValueError(
            f"decomposed_comm/sequential only apply to the 'timeline' backend, "
            f"not {scenario.system!r}"
        )
    if scenario.strategy not in (None, "none") and scenario.system != "mpipemoe":
        raise ValueError(
            f"strategy {scenario.strategy!r} only applies to 'mpipemoe', "
            f"not {scenario.system!r}"
        )
    if scenario.system == "fastmoe" and scenario.n not in (None, 1):
        raise ValueError(f"'fastmoe' does not pipeline; n={scenario.n} is meaningless")
    if scenario.system == "fastmoe":
        return FastMoEModel(ctx)
    if scenario.system == "fastermoe":
        if scenario.n is not None:
            return FasterMoEModel(ctx, fixed_n=scenario.n)
        return FasterMoEModel(ctx)
    if scenario.system == "pipemoe":
        return PipeMoEModel(ctx, fixed_n=scenario.n)
    if scenario.system == "mpipemoe":
        return MPipeMoEModel(
            ctx, fixed_n=scenario.n, fixed_strategy=scenario.strategy
        )
    raise ValueError(f"scenario system {scenario.system!r} has no system model")


def evaluate_system(scenario: Scenario) -> dict:
    """Evaluate one operating point through its system model."""
    ctx = shared_context(scenario.world_size, scenario_hetero(scenario))
    model = _make_system(scenario, ctx)
    # Lowering (the placement optimizer included) touches no evaluator
    # memo, so it runs before the lock instead of stalling it.
    spec, workload = _scenario_spec(scenario), scenario_workload(scenario)
    # The context lock makes (snapshot, evaluate, snapshot) atomic, so
    # scenarios priced concurrently on one context — by runners on user
    # threads, or beside a timed-out attempt still running on its
    # watchdog thread — cannot misattribute each other's cache hits;
    # same-context evaluations would contend on the GIL anyway, and
    # different contexts still proceed concurrently.
    with ctx.sweep_lock:
        before = ctx.evaluator.counters()
        report = model.evaluate(spec, scenario.batch, workload=workload)
        return _with_cache_stats(ctx, before, {
            "system": report.system,
            "spec": report.spec_name,
            "batch": report.batch,
            "world_size": report.world_size,
            "iteration_time": report.iteration_time,
            "peak_memory_bytes": report.peak_memory_bytes,
            "n": report.num_partitions,
            "strategy": report.strategy,
            "comp_utilization": report.comp_utilization,
        })


# The timeline and Eq. 10 objectives share their validation and their
# values-row shape with their whole-grid twins in repro.perfmodel.batcheval.
def _check_timeline(scenario: Scenario) -> None:
    if scenario.n is None:
        raise ValueError("timeline scenarios need an explicit n")


def _timeline_values(makespan: float, n: int, strategy: str) -> dict:
    return {
        "makespan": makespan,
        "iteration_time": makespan,
        "n": n,
        "strategy": strategy,
    }


def _check_eq10(scenario: Scenario) -> None:
    if scenario.n is None:
        raise ValueError("eq10 scenarios need an explicit n")
    if scenario.decomposed_comm or scenario.sequential:
        raise ValueError(
            "decomposed_comm/sequential only apply to the 'timeline' "
            "backend, not 'eq10'"
        )
    if scenario.strategy is not None:
        raise ValueError(
            "'eq10' selects the strategy itself; drop the strategy axis"
        )


def _eq10_values(
    n: int,
    strategy: str | None = None,
    cost: float | None = None,
    memory_bytes: int | None = None,
    costs: dict | None = None,
) -> dict:
    """One Eq. 10 row; without a strategy, the infeasible (OOM) shape."""
    return {
        "strategy": strategy,
        "cost": cost,
        "iteration_time": cost,
        "memory_bytes": memory_bytes,
        "costs": {} if costs is None else costs,
        "n": n,
        "feasible": strategy is not None,
    }


def evaluate_timeline(scenario: Scenario) -> dict:
    """Price one explicit ``build_timeline`` schedule (ablation backend).

    Timeline points never read the trace, so this goes through the
    evaluator's memoized makespan-only path: no Op DAG, no records.
    """
    _check_timeline(scenario)
    ctx = shared_context(scenario.world_size, scenario_hetero(scenario))
    spec, workload = _scenario_spec(scenario), scenario_workload(scenario)
    strategy = scenario.strategy or "none"
    with ctx.sweep_lock:  # exact stats attribution; see evaluate_system
        before = ctx.evaluator.counters()
        makespan = ctx.evaluator.makespan(
            spec, scenario.batch, scenario.n, strategy,
            decomposed_comm=scenario.decomposed_comm,
            sequential=scenario.sequential,
            workload=workload,
        )
        return _with_cache_stats(
            ctx, before, _timeline_values(makespan, scenario.n, strategy)
        )


def evaluate_eq10(scenario: Scenario) -> dict:
    """Run the closed-form Eq. 10 strategy selection for one point.

    The analytic counterpart of the simulated backends: no timeline is
    priced, only the paper's bottleneck-stream cost model and the
    footprint capacity check.  A point where no reuse strategy fits the
    device comes back ``feasible=False`` instead of raising, so OOM
    walls show up as data.
    """
    _check_eq10(scenario)
    ctx = shared_context(scenario.world_size, scenario_hetero(scenario))
    spec, workload = _scenario_spec(scenario), scenario_workload(scenario)
    with ctx.sweep_lock:  # exact stats attribution; see evaluate_system
        before = ctx.evaluator.counters()
        selector = ctx.evaluator.selector(spec, workload)
        # Infeasibility is data; bugs are failures.  Only the selector's
        # own MemoryError (Eq. 1-5 says no reuse strategy fits the
        # device) may take the feasible=False shape — any other
        # exception is routed through the taxonomy with the scenario
        # attached, so an objective bug can never masquerade as an OOM
        # wall in the results.
        try:
            result = selector.select(scenario.batch, scenario.n)
        except MemoryError:
            values = _eq10_values(scenario.n)
        except Exception as exc:
            raise ScenarioError(scenario=scenario, cause=exc) from exc
        else:
            values = _eq10_values(
                scenario.n, result.strategy.name, result.cost,
                result.memory_bytes, dict(result.costs),
            )
        return _with_cache_stats(ctx, before, values)


@dataclass(frozen=True)
class SweepResult:
    """One evaluated scenario: the point, its values, and provenance.

    ``cache_stats`` carries the evaluator-cache delta of the scenario's
    original computation (hits/misses/entries), preserved
    through the on-disk cache; ``None`` when the evaluator did not
    report any.  It lives beside — not inside — ``values`` so the
    physical results stay byte-identical across worker layouts.

    ``ok`` / ``error`` / ``attempts`` are the partial-failure fields: a
    scenario kept alive through ``on_error="keep"`` comes back with
    ``ok=False``, empty ``values``, and the serialized taxonomy error
    (see :func:`repro.sweep.resilience.error_payload`); ``attempts``
    counts evaluation attempts, cumulative across resumed runs.

    This is the one result row: the runner builds it once per distinct
    scenario, and :class:`~repro.api.result.ResultSet` (whose
    ``repro.api.StudyResult`` names this class) holds it as given.
    """

    scenario: Scenario
    values: dict
    cached: bool = False
    cache_stats: dict | None = None
    ok: bool = True
    error: dict | None = None
    attempts: int = 1

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def label(self) -> str:
        return self.scenario.label()

    def get(self, column: str | Callable[[SweepResult], object]):
        """Resolve ``column`` like a table would: the result values,
        then ``label``, then scenario fields; callables receive the row.

        A failed row has no values, so any other column reads ``None``
        there instead of raising.
        """
        if callable(column):
            return column(self)
        values = self.values
        if column in values:
            return values[column]
        if column == "label":
            return self.label
        if column in AXIS_FIELDS.values():
            return getattr(self.scenario, column)
        if not self.ok:
            return None
        raise KeyError(
            f"column {column!r} is neither a result value nor a scenario field"
        )

    def to_dict(self, *, include_cache_stats: bool = False) -> dict:
        """The row's deterministic JSON shape (see ``ResultSet.to_json``)."""
        payload = {
            "scenario": scenario_payload(self.scenario),
            "label": self.label,
            "values": dict(self.values),
        }
        if not self.ok:
            # Failure fields appear only on failures, so healthy-run
            # JSON stays byte-identical to pre-resilience exports.
            payload["ok"] = False
            payload["error"] = self.error
            payload["attempts"] = self.attempts
        if include_cache_stats:
            payload["cached"] = self.cached
            payload["cache_stats"] = self.cache_stats
        return payload


def check_run_option(name: str, value):
    """Check one run option, named by its :class:`SweepRunner` keyword,
    and return the value a run keeps.  The runner and every
    :class:`~repro.api.study.Study` change share this one check."""
    if name == "backend":
        get_backend(value)  # unknown names fail here, listing the known ones
    elif name == "workers":  # strict ints: a spec's true or 2.5 is no count
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(
                f"workers must be an int >= 1, got {type(value).__name__}"
            )
        if value < 1:
            raise ValueError("workers must be >= 1")
    elif name == "retry":
        if isinstance(value, int) and not isinstance(value, bool):
            return RetryPolicy(max_attempts=value)
        if isinstance(value, dict):
            return RetryPolicy(**value)
        if value is not None and not isinstance(value, RetryPolicy):
            raise TypeError(
                f"retry must be a RetryPolicy, an int (max attempts), a policy "
                f"kwargs dict, or None, got {type(value).__name__}"
            )
    elif name == "on_error":
        if value not in ("raise", "keep"):
            raise ValueError(f"on_error must be 'raise' or 'keep', got {value!r}")
    elif name == "cache_dir":
        if value is not None and not isinstance(value, (str, os.PathLike)):
            raise TypeError(
                f"cache_dir must be None, a str or an os.PathLike, got {value!r}"
            )
    elif name == "vectorize":  # strict bools: a spec's "false" is truthy
        if value is not None and not isinstance(value, bool):
            raise TypeError(f"vectorize must be None, True or False, got {value!r}")
        if value:  # import numpy at build, not in the whole-grid pass's run()
            import numpy  # noqa: F401
    elif name == "resume":
        if not isinstance(value, bool):
            raise TypeError(f"resume must be True or False, got {value!r}")
    else:
        raise TypeError(f"unknown run option {name!r}")
    return value


class SweepRunner:
    """Fan scenarios out over workers with per-scenario JSON caching.

    Execution delegates to a :mod:`repro.api.backends` backend:
    ``backend`` is a name (``"serial"``, ``"process"`` — the default —
    or ``"remote"``) or any :class:`~repro.api.backends.Backend`
    instance, which is how a custom backend plugs in.  ``process`` isolates
    workers in subprocesses, each growing its own :func:`shared_context`
    pool; ``serial`` prices every point in-line on this process's pool.
    The evaluator must be a plain callable: a coroutine-function
    objective is rejected here, when the runner is built.  ``process``
    degrades to the in-line serial loop at ``workers=1``, and every
    backend returns identical values — only the scheduling differs.
    The runner folds each result as the backend yields it (row, cache
    entry, manifest record, ``backend.item`` tick), and settles the
    points of a backend that lost its workers itself.

    ``vectorize`` alone selects the whole-grid fast path: evaluators
    with a batched twin (see :mod:`repro.perfmodel.batcheval`) can price
    all cache-miss scenarios in one numpy pass, bit-identical to the
    serial loop, in place of the backend.  ``None`` (default) engages it
    automatically when the batch is large enough
    (:data:`VECTORIZE_MIN_POINTS`) and the backend would run the points
    in-line anyway (``serial``, or ``process`` at one worker — never
    ``remote``); ``True`` forces it on any backend for any miss count;
    ``False`` keeps the per-scenario path through the backend, which
    trace-needing objectives such as :func:`evaluate_system` and every
    retrying or keep-going run always use.  Vectorized results carry
    *group-level* cache stats — a ``batch_group`` dict (objective, group
    size, distinct vectors, schedules) shared by every row the group
    priced — instead of the per-scenario memo deltas a batched pass
    cannot honestly attribute; these group stats are never persisted
    into the cache files.

    Fault tolerance rides three knobs.  ``retry`` is a
    :class:`~repro.sweep.resilience.RetryPolicy` (or its kwargs dict, or
    an int, shorthand for ``RetryPolicy(max_attempts=retry)``) giving
    each scenario bounded re-attempts with deterministic backoff and an
    optional per-attempt timeout (a timed-out attempt keeps running on
    its abandoned thread, so its cluster's shared context leaves the
    pool and the retry starts on a fresh one).  ``on_error`` picks the
    partial-failure semantics: ``"raise"`` (the default — the first
    failing scenario propagates, exactly today's behavior) or
    ``"keep"``, which turns failures into ``SweepResult(ok=False,
    error=...)`` rows so one bad point cannot sink a thousand-point
    sweep.  ``resume=True`` replays
    a previous run from the ``manifest.json`` written next to the cache
    files, re-executing only failed-or-missing points and accumulating
    attempt counts across runs.  With all three at their defaults the
    runner is byte-identical to the pre-resilience code path: no
    wrapper around the evaluator, no manifest on disk.
    """

    def __init__(
        self,
        evaluate: Evaluator = evaluate_system,
        cache_dir: str | os.PathLike | None = None,
        workers: int = 1,
        backend: "str | Backend" = "process",
        vectorize: bool | None = None,
        retry: "RetryPolicy | int | None" = None,
        on_error: str = "raise",
        resume: bool = False,
        obs: "ObsSession | None" = None,
    ) -> None:
        self.workers = check_run_option("workers", workers)
        if obs is not None and not isinstance(obs, ObsSession):
            raise TypeError(
                f"obs must be an ObsSession or None, got {type(obs).__name__}"
            )
        # check_run_option's backend check, keeping the backend it builds.
        self._backend = get_backend(backend)
        # Checked here, not only in Backend.imap: the whole-grid path
        # never reaches a backend's imap.
        self._backend._require_sync(evaluate)
        self.retry = check_run_option("retry", retry)
        self.on_error = check_run_option("on_error", on_error)
        self.resume = check_run_option("resume", resume)
        if resume and cache_dir is None:
            raise ValueError("resume=True needs a cache_dir to resume from")
        self.evaluate = evaluate
        cache_dir = check_run_option("cache_dir", cache_dir)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.backend = backend if isinstance(backend, str) else self._backend.name
        self.vectorize = check_run_option("vectorize", vectorize)
        #: The run's observability session, or None (the default — in
        #: which case the runner adds zero overhead beyond one boolean
        #: check per instrumented site and produces byte-identical
        #: results, cache files, and manifest).
        self.obs = obs
        #: Cache entries quarantined (renamed ``*.json.corrupt``) so far.
        self.quarantined = 0
        self._salt = objective_salt(evaluate)

    @property
    def _resilient(self) -> bool:
        """Whether evaluations go through the resilience wrapper."""
        return self.retry is not None or self.on_error == "keep"

    # -- cache -----------------------------------------------------------------
    def cache_path(self, scenario: Scenario) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{scenario.key(self._salt)}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a bad cache entry aside as ``<name>.json.corrupt``.

        Renamed, not deleted: the bytes stay available for post-mortem
        (what corrupted it? which library version wrote it?), while the
        recompute path sees a clean miss and writes a fresh entry.
        """
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            return  # a concurrent sweep already moved or replaced it
        self.quarantined += 1
        if _obs_active():
            _obs_emit("cache.quarantine", path=path.name, ts=time.time())

    def _cache_load(
        self, scenario: Scenario
    ) -> tuple[dict, dict | None, int] | None:
        path = self.cache_path(scenario)
        if path is None:
            return None
        try:
            return read_entry(path, scenario)
        except ValueError:
            self._quarantine(path)  # torn, corrupt, foreign or skewed
            return None

    def _cache_store(
        self,
        scenario: Scenario,
        values: dict,
        stats: dict | None,
        attempts: int = 1,
    ) -> None:
        path = self.cache_path(scenario)
        if path is not None:
            write_atomic(path, encode_entry(scenario, values, stats, attempts))

    # -- running ---------------------------------------------------------------
    def run(self, scenarios: ScenarioGrid | Iterable[Scenario]) -> list[SweepResult]:
        """Evaluate all scenarios; results come back in scenario order.

        With an :class:`~repro.obs.session.ObsSession` attached, the run
        is bracketed by ``run.start``/``run.end`` events, every layer's
        emissions fold into the session's metrics/trace/progress, and a
        run report lands next to ``manifest.json`` when there is a cache
        directory.  The physical results are identical either way.
        """
        points = list(scenarios)
        obs = self.obs
        if obs is None:
            return self._run(points)
        obs.run_begin(
            total=len(points), backend=self.backend, workers=self.workers
        )
        summary = None
        try:
            results = self._run(points)
            summary = {
                "cached": sum(r.cached for r in results),
                "failures": sum(not r.ok for r in results),
            }
            return results
        finally:
            obs.run_end(summary, cache_dir=self.cache_dir)

    def _bound_evaluate(self) -> Callable:
        """What the backend maps over the misses: the bare objective, or
        an :class:`Execution` carrying this run's retry policy,
        ``on_error`` semantics and observation."""
        if not self._resilient and self.obs is None:
            return self.evaluate
        return Execution(
            self.evaluate,
            retry=self.retry,
            on_error=self.on_error,
            observed=self.obs is not None,
            run_t0=self.obs.run_t0 if self.obs is not None else 0.0,
        )

    def _use_batch_path(self, misses: list[Scenario]) -> bool:
        """Whether this run's misses go through the whole-grid pass."""
        if self._resilient:
            # A whole-grid numpy pass cannot honor per-scenario retry,
            # timeout, or keep-going semantics; resilient runs take the
            # per-scenario path where the wrapper is in the loop.
            return False
        from repro.perfmodel.batcheval import batch_evaluator_for

        if batch_evaluator_for(self.evaluate) is None:
            return False  # no batched twin: the backend runs the points
        if self.vectorize is not None:
            return self.vectorize
        # Auto mode: engage only where it cannot change scheduling
        # semantics — the backend would run the points in-line anyway —
        # and only when the batch is big enough that per-scenario cache
        # stats are worth trading for throughput.
        if len(misses) < VECTORIZE_MIN_POINTS:
            return False
        return isinstance(self._backend, SerialBackend) or (
            isinstance(self._backend, ProcessBackend) and self.workers == 1
        )

    def _batch_map(self, misses: list[Scenario]) -> list[dict]:
        """One whole-grid pass over the misses.

        Looks the twin up by ``self.evaluate`` (not through
        :meth:`_bound_evaluate`) because the batched-twin registry is
        keyed by evaluator identity.  Once the pass returns, its points
        count as computed, one attempt each (``batch.pass``); a pass
        measures no per-scenario wall time.
        """
        from repro.perfmodel.batcheval import batch_evaluator_for

        computed = batch_evaluator_for(self.evaluate)(misses)
        if _obs_active():
            _obs_emit("batch.pass", scenarios=len(computed))
        return computed

    def _landed(self, misses: list[Scenario]):
        """Yield ``(miss index, values)`` once per miss, as each lands.

        A whole-grid pass lands all at once, when it returns.  When a
        backend loses its workers, its unfinished misses propagate as a
        :class:`WorkerCrashError` or, under ``on_error="keep"``, land
        as failed rows carrying the backend's message and cause.
        """
        if self._use_batch_path(misses):
            yield from enumerate(self._batch_map(misses))
            return
        observing = _obs_active()
        landed: set[int] = set()
        try:
            for i, values in self._backend.imap(
                self._bound_evaluate(), misses, workers=self.workers
            ):
                landed.add(i)
                if observing:
                    _obs_emit("backend.item", backend=self._backend.name)
                yield i, values
        except WorkersLost as lost:
            unfinished = [i for i in range(len(misses)) if i not in landed]
            pending = tuple(misses[i] for i in unfinished)
            for i in unfinished:
                crash = WorkerCrashError(
                    str(lost), scenario=misses[i], pending=pending,
                    cause=lost.__cause__,
                )
                if self.on_error != "keep":
                    raise crash from lost
                yield i, kept_crash(crash)

    def _run(self, scenarios: ScenarioGrid | Iterable[Scenario]) -> list[SweepResult]:
        points = list(scenarios)

        # Resolve cache hits and dedupe repeated points (a concatenated
        # grid may name the same scenario twice — evaluate it once, and
        # return its one row at each of its positions).  Bookkeeping is
        # slot-indexed, not Scenario-keyed: one hash per point
        # (``setdefault``), which matters on 10k-point whole-grid runs
        # where hashing rivals pricing.  ``slot_of`` keeps the distinct
        # scenarios in slot order.
        slot_of: dict[Scenario, int] = {}
        slots: list[int] = []  # per point, in order
        rows: list[SweepResult | None] = []  # per slot; None until computed
        quarantined: set[int] = set()  # slots whose cache entry was bad
        misses: list[Scenario] = []
        miss_slots: list[int] = []
        caching = self.cache_dir is not None
        for sc in points:
            slot = slot_of.setdefault(sc, len(rows))
            slots.append(slot)
            if slot < len(rows):
                continue  # repeated point: reuse the first slot
            quarantined_before = self.quarantined
            hit = self._cache_load(sc) if caching else None
            if self.quarantined > quarantined_before:
                quarantined.add(slot)
            if hit is None:
                rows.append(None)
                misses.append(sc)
                miss_slots.append(slot)
            else:
                hit_values, hit_stats, hit_attempts = hit
                rows.append(SweepResult(
                    sc, hit_values, cached=True, cache_stats=hit_stats,
                    attempts=hit_attempts,
                ))

        observing = _obs_active()
        if observing:
            _obs_emit(
                "cache.resolved",
                hits=len(rows) - len(misses),
                misses=len(misses),
                quarantined=len(quarantined),
            )

        # The run manifest exists only when it can matter — a resilient
        # or resuming run with a cache to anchor it.  Plain runs keep
        # the exact disk layout they have always had (cache files only).
        manifest = prior = None
        keys: list[str] | None = None
        if caching and (self.resume or self._resilient):
            keys = [sc.key(self._salt) for sc in slot_of]
            digest = grid_digest(keys)
            prior = RunManifest.load(self.cache_dir) if self.resume else None
            if prior is not None and prior.grid_hash != digest:
                raise ValueError(
                    f"resume=True but {MANIFEST_NAME} under "
                    f"{self.cache_dir} records a different grid (stored "
                    f"{prior.grid_hash}, this run {digest}); point resume "
                    f"at the original grid or use a fresh cache_dir"
                )
            manifest = RunManifest(self.cache_dir, digest)
            for slot, row in enumerate(rows):
                if row is not None:  # a cache hit
                    manifest.record(keys[slot], "ok", row.attempts)

        try:
            if misses:
                evaluator_totals = {
                    "hits": 0, "misses": 0, "uninstrumented": 0,
                    "federated": 0,
                }
                for i, vals in self._landed(misses):
                    sc, slot = misses[i], miss_slots[i]
                    sc_stats, sc_attempts, error, blob = pop_reserved(vals)
                    if self.obs is not None and blob is not None:
                        self.obs.fold(blob)
                    if observing:
                        if sc_stats is not None and "federated" in sc_stats:
                            # Answered by a remote worker's federated
                            # store: any memo delta riding along belongs
                            # to the run that originally computed it.
                            evaluator_totals["federated"] += 1
                        elif sc_stats is None or "hits" not in sc_stats:
                            evaluator_totals["uninstrumented"] += 1
                        else:
                            evaluator_totals["hits"] += sc_stats.get("hits", 0)
                            evaluator_totals["misses"] += sc_stats.get("misses", 0)
                    if prior is not None:
                        # A resumed point's attempt count is cumulative
                        # across runs — the proof that resume re-executed
                        # it rather than recomputing from scratch.
                        sc_attempts += prior.prior_attempts(keys[slot])
                    if error is None:
                        if caching:
                            # Group-level batch stats never reach the
                            # cache files — entries stay byte-identical to
                            # what the memoized path writes.
                            store_stats = sc_stats
                            if store_stats is not None and "batch_group" in store_stats:
                                store_stats = None
                            elif store_stats is not None and "federated" in store_stats:
                                # The federated-hit marker is per-run
                                # accounting; the local cache entry must
                                # stay byte-identical to a serial run's.
                                store_stats = {
                                    k: v
                                    for k, v in store_stats.items()
                                    if k != "federated"
                                } or None
                            self._cache_store(
                                sc, vals, store_stats, attempts=sc_attempts
                            )
                        if manifest is not None:
                            manifest.record(keys[slot], "ok", sc_attempts)
                    else:
                        # Failures become result rows, never cache
                        # entries: a later run (resumed or not) must
                        # re-evaluate.
                        vals = {}
                        if manifest is not None:
                            manifest.record(
                                keys[slot], "failed", sc_attempts, error
                            )
                    if slot in quarantined:
                        # Surfaced on the in-memory result only — the
                        # fresh cache entry describes a healthy recompute.
                        sc_stats = dict(sc_stats or {})
                        sc_stats["quarantined"] = 1
                    rows[slot] = SweepResult(
                        sc, vals, cache_stats=sc_stats, ok=error is None,
                        error=error, attempts=sc_attempts,
                    )
                if observing:
                    if not evaluator_totals["federated"]:
                        # Only remote runs with store hits carry the
                        # field, so local runs' event streams stay put.
                        evaluator_totals.pop("federated")
                    _obs_emit("run.evaluator", **evaluator_totals)
        finally:
            if manifest is not None:
                manifest.write()  # on a raise too: what landed stays on record

        return [rows[slot] for slot in slots]
