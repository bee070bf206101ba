"""Scenario fan-out over pluggable execution backends, with caching.

:class:`SweepRunner` takes any iterable of :class:`Scenario` (usually a
:class:`ScenarioGrid`), evaluates each point with a module-level
evaluator function through a backend from the
:mod:`repro.api.backends` registry (serial / process / vectorized /
remote, or any registered third-party backend), and returns
:class:`SweepResult` objects in scenario order regardless of worker
count or backend.  Completed points are
cached as JSON files keyed by the scenario hash, so re-running a study —
or extending its grid — only pays for the new points.

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
in one process — serially, inside one pool worker, or on any thread of
a ``python -m repro serve`` worker's shard pool — shares the context's
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

import contextvars
import functools
import json
import os
import tempfile
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

from repro.api.backends import Backend, SerialBackend, VectorizedBackend, get_backend
from repro.obs.bus import active as _obs_active
from repro.obs.bus import emit as _obs_emit
from repro.obs.bus import label_of as _label_of
from repro.obs.bus import pop_collector, push_collector
from repro.obs.session import ObsSession
from repro.sweep.resilience import (
    ATTEMPTS_KEY,
    ERROR_KEY,
    MANIFEST_NAME,
    RetryPolicy,
    RunManifest,
    ScenarioError,
    WorkerCrashError,
    error_payload,
    grid_digest,
    run_with_policy,
)
from repro.config import DGX_A100_CLUSTER, MoELayerSpec, get_preset
from repro.hardware.device import A100_SXM_40GB
from repro.hardware.hetero import HeteroClusterSpec, StragglerModel
from repro.perfmodel.placement import PlacementSpec
from repro.perfmodel.placeopt import PlacementProblem, optimize_placement
from repro.perfmodel.workload import WorkloadSpec
from repro.sweep.grid import Scenario, ScenarioGrid, scenario_payload
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
#: (``{"pid": ..., "events": [(name, fields), ...]}``).  The fold loop
#: pops it out of ``values`` before anything else; sidecars recorded in
#: another process (pool workers have no live subscribers) are replayed
#: onto the parent's bus, same-process ones were already delivered live.
#: Never cached, never surfaced in results.
OBS_KEY = "_sweep_obs"

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

#: Environment knob bounding every shared context's evaluator memo
#: (``SystemContext(evaluator_max_entries=...)``).  A per-run
#: ``SweepRunner(evaluator_max_entries=...)`` overrides it through a
#: :class:`~contextvars.ContextVar` scoped to each evaluation, so
#: concurrent runners with different bounds never see each other's
#: value (the env var used to be mutated for the duration of the run,
#: which raced).  Unset = unbounded.
MAX_MEMO_ENTRIES_ENV = "REPRO_SWEEP_MAX_MEMO_ENTRIES"

#: Below this many cache-miss scenarios, auto mode keeps the memoized
#: per-scenario path: small grids gain little wall-clock from a batched
#: pass and would lose their per-scenario cache stats for nothing.
#: Explicit ``vectorize=True`` (or ``backend="vectorized"``) ignores it.
VECTORIZE_MIN_POINTS = 64

#: Set to ``"0"`` to disable automatic whole-grid vectorization
#: process-wide; explicit ``vectorize=True`` / ``backend="vectorized"``
#: still engage it.
VECTORIZE_ENV = "REPRO_SWEEP_VECTORIZE"

#: Sentinel distinguishing "no per-run bound set" from an explicit bound.
_UNSET = object()

#: The active runner's memo bound; set around each evaluation (and
#: around whole batched passes) instead of mutating process state.
_MEMO_BOUND: contextvars.ContextVar = contextvars.ContextVar(
    "repro_sweep_memo_bound", default=_UNSET
)


def _default_max_entries() -> int | None:
    bound = _MEMO_BOUND.get()
    if bound is not _UNSET:
        return bound
    raw = os.environ.get(MAX_MEMO_ENTRIES_ENV)
    return int(raw) if raw else None


def _bound_call(evaluate: "Evaluator", bound: int, scenario: "Scenario"):
    """Run one evaluation with the runner's memo bound in scope.

    Module-level (and applied via :func:`functools.partial`) so
    process-backend workers can unpickle it; the context variable is
    set inside the worker, where the shared contexts actually live.
    """
    token = _MEMO_BOUND.set(bound)
    try:
        return evaluate(scenario)
    finally:
        _MEMO_BOUND.reset(token)


def _resilient_call(
    evaluate: Callable, policy: RetryPolicy, on_error: str, scenario: "Scenario"
):
    """One scenario under the retry policy; module-level so the process
    backend can pickle it (wrapped via :func:`functools.partial`)."""
    return run_with_policy(evaluate, scenario, policy, on_error=on_error)


def _observed_call(evaluate: Callable, run_t0: float, scenario: "Scenario"):
    """One observed evaluation: a ``scenario.span`` plus the event
    sidecar attached under :data:`OBS_KEY`.

    Module-level (applied via :func:`functools.partial`) so process
    backends can pickle it.  It does *not* gate on the bus being active:
    the wrapper is only installed when the runner holds an
    :class:`~repro.obs.session.ObsSession`, and inside a fresh pool
    worker nothing is subscribed yet — pushing the collector is exactly
    what makes the inner layers' emissions observable there.  The
    un-wrapped evaluator (obs off) stays byte-identical to before.
    """
    events: list = []
    token = push_collector(events)
    start_ts = time.time()
    p0 = time.perf_counter()
    try:
        values = evaluate(scenario)
    except BaseException as exc:
        _obs_emit(
            "scenario.span",
            label=_label_of(scenario),
            ok=False,
            attempts=1,
            error=type(exc).__name__,
            ts=start_ts,
            dur=time.perf_counter() - p0,
            queue_s=start_ts - run_t0,
        )
        pop_collector(token)
        raise
    _obs_emit(
        "scenario.span",
        label=_label_of(scenario),
        ok=ERROR_KEY not in values,
        attempts=values.get(ATTEMPTS_KEY, 1),
        ts=start_ts,
        dur=time.perf_counter() - p0,
        queue_s=start_ts - run_t0,
    )
    pop_collector(token)
    values[OBS_KEY] = {"pid": os.getpid(), "events": events}
    return values


def shared_context(
    world_size: int | None, hetero: HeteroClusterSpec | None = None
) -> SystemContext:
    """The process's shared :class:`SystemContext` for one cluster shape."""
    key = (world_size, hetero)
    with _POOL_LOCK:
        ctx = _CONTEXTS.get(key)
        if ctx is None:
            ctx = SystemContext(
                world_size=world_size,
                hetero=hetero,
                evaluator_max_entries=_default_max_entries(),
            )
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
    spec = _scenario_spec(scenario)
    hetero = scenario_hetero(scenario)
    world = scenario.world_size
    if hetero is not None:
        comp_rates = tuple(hetero.rates_for(r).comp for r in range(world))
        memory = hetero.min_memory_bytes(world)
    else:
        comp_rates = None
        memory = A100_SXM_40GB.memory_bytes
    problem = PlacementProblem.from_workload(
        spec,
        workload,
        world,
        scenario.batch,
        comp_rates=comp_rates,
        memory_bytes=memory,
    )
    memo = shared_context(world, hetero).placements
    placed = memo.get(problem)
    if placed is None:  # racing threads at worst both store equal specs
        placed = memo[problem] = optimize_placement(problem)
    return placed


def _with_cache_stats(ctx: SystemContext, before: dict, values: dict) -> dict:
    """Attach the per-scenario evaluator-cache delta to ``values``."""
    after = ctx.evaluator.cache_info()
    delta = {
        k: after[k] - before[k]
        for k in after
        if k not in ("entries", "max_entries")
    }
    delta["hits"] = sum(v for k, v in delta.items() if k.endswith("_hits"))
    delta["misses"] = sum(v for k, v in delta.items() if k.endswith("_misses"))
    delta["entries"] = after["entries"]
    delta["max_entries"] = after["max_entries"]
    values[CACHE_STATS_KEY] = delta
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
    # The context lock makes (snapshot, evaluate, snapshot) atomic so
    # scenarios a ``repro serve`` worker prices concurrently on its shard
    # thread pool cannot misattribute each other's cache hits;
    # same-context evaluations would contend on the GIL anyway, and
    # different contexts still proceed concurrently.
    with ctx.sweep_lock:
        before = ctx.evaluator.cache_info()
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


def evaluate_timeline(scenario: Scenario) -> dict:
    """Price one explicit ``build_timeline`` schedule (ablation backend).

    Timeline points never read the trace, so this goes through the
    evaluator's memoized makespan-only path: no Op DAG, no records.
    """
    if scenario.n is None:
        raise ValueError("timeline scenarios need an explicit n")
    ctx = shared_context(scenario.world_size, scenario_hetero(scenario))
    spec, workload = _scenario_spec(scenario), scenario_workload(scenario)
    with ctx.sweep_lock:  # exact stats attribution; see evaluate_system
        before = ctx.evaluator.cache_info()
        makespan = ctx.evaluator.makespan(
            spec, scenario.batch, scenario.n,
            scenario.strategy or "none",
            decomposed_comm=scenario.decomposed_comm,
            sequential=scenario.sequential,
            workload=workload,
        )
        return _with_cache_stats(ctx, before, {
            "makespan": makespan,
            "iteration_time": makespan,
            "n": scenario.n,
            "strategy": scenario.strategy or "none",
        })


def evaluate_eq10(scenario: Scenario) -> dict:
    """Run the closed-form Eq. 10 strategy selection for one point.

    The analytic counterpart of the simulated backends: no timeline is
    priced, only the paper's bottleneck-stream cost model and the
    footprint capacity check.  A point where no reuse strategy fits the
    device comes back ``feasible=False`` instead of raising, so OOM
    walls show up as data.
    """
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
    ctx = shared_context(scenario.world_size, scenario_hetero(scenario))
    spec, workload = _scenario_spec(scenario), scenario_workload(scenario)
    with ctx.sweep_lock:  # exact stats attribution; see evaluate_system
        before = ctx.evaluator.cache_info()
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
            values = {
                "strategy": None,
                "cost": None,
                "iteration_time": None,
                "memory_bytes": None,
                "costs": {},
                "n": scenario.n,
                "feasible": False,
            }
        except Exception as exc:
            raise ScenarioError(scenario=scenario, cause=exc) from exc
        else:
            values = {
                "strategy": result.strategy.name,
                "cost": result.cost,
                "iteration_time": result.cost,
                "memory_bytes": result.memory_bytes,
                "costs": dict(result.costs),
                "n": scenario.n,
                "feasible": True,
            }
        return _with_cache_stats(ctx, before, values)


@dataclass(frozen=True)
class SweepResult:
    """One evaluated scenario: the point, its values, and provenance.

    ``cache_stats`` carries the evaluator-cache delta of the scenario's
    original computation (hits/misses/evictions/entries), preserved
    through the on-disk cache; ``None`` when the evaluator did not
    report any.  It lives beside — not inside — ``values`` so the
    physical results stay byte-identical across worker layouts.

    ``ok`` / ``error`` / ``attempts`` are the partial-failure fields: a
    scenario kept alive through ``on_error="keep"`` comes back with
    ``ok=False``, empty ``values``, and the serialized taxonomy error
    (see :func:`repro.sweep.resilience.error_payload`); ``attempts``
    counts evaluation attempts, cumulative across resumed runs.
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


class SweepRunner:
    """Fan scenarios out over workers with per-scenario JSON caching.

    Execution delegates to the :mod:`repro.api.backends` registry:
    ``backend`` is a registered name (``"serial"``, ``"process"`` — the
    default — ``"vectorized"`` or ``"remote"``) or any
    :class:`~repro.api.backends.Backend` instance.  ``process`` isolates
    workers in subprocesses, each growing its own :func:`shared_context`
    pool; ``serial`` prices every point in-line on this process's pool.
    The evaluator must be a plain callable: a coroutine-function
    objective is rejected here, when the runner is built.  ``process``
    degrades to the in-line serial loop at ``workers=1``, and every
    backend returns identical values in identical order — only the
    scheduling differs.

    ``evaluator_max_entries`` bounds every shared context's memo (LRU)
    for grids too large to cache whole.  The bound travels with each
    evaluation (a :class:`~contextvars.ContextVar` set around the call,
    pickled into process-backend workers via the wrapped evaluator), so
    concurrent runners with different bounds coexist; the
    :data:`MAX_MEMO_ENTRIES_ENV` environment variable remains the
    process-wide fallback.  Contexts created before the run keep their
    existing bound.

    ``vectorize`` controls the whole-grid fast path: evaluators with a
    batched twin (see :mod:`repro.perfmodel.batcheval`) can price all
    cache-miss scenarios in one numpy pass, bit-identical to the serial
    loop.  ``None`` (default) engages it automatically when the batch
    is large enough (:data:`VECTORIZE_MIN_POINTS`) and the backend
    would run the points in-line anyway; ``True`` forces it for any
    miss count; ``False`` (or ``REPRO_SWEEP_VECTORIZE=0`` in the
    environment) keeps the per-scenario memoized path, which
    trace-needing objectives such as :func:`evaluate_system` always
    use.  Vectorized results carry *group-level* cache stats — a
    ``batch_group`` dict (objective, group size, distinct vectors,
    schedules) shared by every row the group priced — instead of the
    per-scenario memo deltas a batched pass cannot honestly attribute;
    these group stats are never persisted into the cache files.

    Fault tolerance rides three knobs.  ``retry`` is a
    :class:`~repro.sweep.resilience.RetryPolicy` (or an int, shorthand
    for ``RetryPolicy(max_attempts=retry)``) giving each scenario
    bounded re-attempts with deterministic backoff and an optional
    per-attempt timeout.  ``on_error`` picks the partial-failure
    semantics: ``"raise"`` (the default — the first failing scenario
    propagates, exactly today's behavior) or ``"keep"``, which turns
    failures into ``SweepResult(ok=False, error=...)`` rows so one bad
    point cannot sink a thousand-point sweep.  ``resume=True`` replays
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
        evaluator_max_entries: int | None = None,
        vectorize: bool | None = None,
        retry: "RetryPolicy | int | None" = None,
        on_error: str = "raise",
        resume: bool = False,
        obs: "ObsSession | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if obs is not None and not isinstance(obs, ObsSession):
            raise TypeError(
                f"obs must be an ObsSession or None, got {type(obs).__name__}"
            )
        self._backend = get_backend(backend)  # rejects unknown backend names
        # Checked here, not only in Backend.map: the whole-grid path
        # never reaches a backend's map.
        self._backend._require_sync(evaluate)
        if evaluator_max_entries is not None and evaluator_max_entries < 1:
            raise ValueError("evaluator_max_entries must be >= 1 (or None)")
        if isinstance(retry, int) and not isinstance(retry, bool):
            retry = RetryPolicy(max_attempts=retry)
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise TypeError(
                f"retry must be a RetryPolicy, an int (max attempts), or "
                f"None, got {type(retry).__name__}"
            )
        if on_error not in ("raise", "keep"):
            raise ValueError(
                f"on_error must be 'raise' or 'keep', got {on_error!r}"
            )
        if resume and cache_dir is None:
            raise ValueError("resume=True needs a cache_dir to resume from")
        self.evaluate = evaluate
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.workers = workers
        self.backend = backend if isinstance(backend, str) else self._backend.name
        self.evaluator_max_entries = evaluator_max_entries
        self.vectorize = vectorize
        self.retry = retry
        self.on_error = on_error
        self.resume = resume
        #: The run's observability session, or None (the default — in
        #: which case the runner adds zero overhead beyond one boolean
        #: check per instrumented site and produces byte-identical
        #: results, cache files, and manifest).
        self.obs = obs
        #: Cache entries quarantined (renamed ``*.json.corrupt``) so far.
        self.quarantined = 0
        self._salt = f"{evaluate.__module__}.{evaluate.__qualname__}"

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
        if path is None or not path.is_file():
            return None
        try:
            payload = json.loads(path.read_text())
        except OSError:
            return None  # transiently unreadable: miss, but do not touch it
        except json.JSONDecodeError:
            self._quarantine(path)  # undecodable bytes: torn or corrupted
            return None
        if not isinstance(payload, dict) or not isinstance(
            payload.get("values"), dict
        ):
            self._quarantine(path)  # foreign/corrupt entry shape
            return None
        # Version-skew check: the stored scenario payload must round-trip
        # the *current* Scenario dataclass back to this exact point.  An
        # entry written by an older/newer library (extra field, renamed
        # axis, changed default) fails here and is quarantined rather
        # than served as a stale hit under a colliding key.
        try:
            if Scenario(**payload.get("scenario", {})) != scenario:
                raise ValueError("cache entry resolves to a different scenario")
        except (TypeError, ValueError):
            self._quarantine(path)
            return None
        attempts = payload.get("attempts", 1)
        if not isinstance(attempts, int) or attempts < 1:
            attempts = 1
        return payload["values"], payload.get("evaluator_cache"), attempts

    def _cache_store(
        self,
        scenario: Scenario,
        values: dict,
        stats: dict | None,
        attempts: int = 1,
    ) -> None:
        path = self.cache_path(scenario)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        # scenario_payload(), not __dict__: the latter would leak the
        # memoized __hash__ slot Scenario caches on first use into the
        # JSON file (and axis-absent defaults must stay omitted so old
        # entries stay byte-identical).
        payload = {"scenario": scenario_payload(scenario), "values": values}
        if stats is not None:
            payload["evaluator_cache"] = stats
        if attempts > 1:  # only written when retries happened: healthy
            payload["attempts"] = attempts  # runs keep byte-stable files
        # Write-then-rename so concurrent sweeps never read a torn file.
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

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
        """The evaluator, carrying this runner's memo bound if it has one.

        The previous implementation exported ``evaluator_max_entries``
        through the process environment for the duration of the run and
        restored it afterwards — two runners with different bounds (or
        one bounded, one not) running concurrently would clobber each
        other's value.  The bound now rides a context variable set
        around each call, scoped to the evaluating thread or worker.

        When the runner is resilient the retry loop wraps *outside* the
        memo-bound wrapper — each attempt gets the bound in scope — and
        the whole stack stays a :func:`functools.partial` over
        module-level functions, so process-backend workers unpickle it.
        """
        fn: Callable = self.evaluate
        if self.evaluator_max_entries is not None:
            fn = functools.partial(_bound_call, fn, self.evaluator_max_entries)
        if self._resilient:
            policy = self.retry if self.retry is not None else RetryPolicy()
            fn = functools.partial(_resilient_call, fn, policy, self.on_error)
        if self.obs is not None:
            # Outermost, so the span covers retries and backoff sleeps
            # and the collector is in place before any inner layer emits.
            fn = functools.partial(_observed_call, fn, self.obs.run_t0)
        return fn

    def _use_batch_path(self, misses: list[Scenario]) -> bool:
        """Whether this run's misses go through the whole-grid pass."""
        if self._resilient:
            # A whole-grid numpy pass cannot honor per-scenario retry,
            # timeout, or keep-going semantics; resilient runs take the
            # per-scenario path where the wrapper is in the loop.
            return False
        if isinstance(self._backend, VectorizedBackend):
            return True  # the backend was named explicitly; it decides
        if self.vectorize is False:
            return False
        from repro.perfmodel.batcheval import batch_evaluator_for

        if batch_evaluator_for(self.evaluate) is None:
            return False  # no batched twin: the backend fan-out stands
        if self.vectorize:
            return True
        # Auto mode: engage only where it cannot change scheduling
        # semantics — the backend would run the points in-line anyway —
        # and only when the batch is big enough that per-scenario cache
        # stats are worth trading for throughput.
        if os.environ.get(VECTORIZE_ENV, "") == "0":
            return False
        if len(misses) < VECTORIZE_MIN_POINTS:
            return False
        return self.workers == 1 or isinstance(self._backend, SerialBackend)

    def _batch_map(self, misses: list[Scenario]) -> list[dict]:
        """One whole-grid pass over the misses, memo bound in scope.

        Calls :func:`~repro.perfmodel.batcheval.batch_map` directly
        (not through :meth:`_bound_evaluate`) because the batched-twin
        registry is keyed by evaluator identity — a wrapped partial
        would silently fall back to the serial loop.
        """
        from repro.perfmodel.batcheval import batch_map

        if self.evaluator_max_entries is None:
            return batch_map(self.evaluate, misses)
        token = _MEMO_BOUND.set(self.evaluator_max_entries)
        try:
            return batch_map(self.evaluate, misses)
        finally:
            _MEMO_BOUND.reset(token)

    def _salvage_crash(
        self, exc: BrokenProcessPool, misses: list[Scenario]
    ) -> list[dict]:
        """Fold an unrecoverable pool crash into the failure semantics.

        The process backend already respawned the pool and retried the
        unfinished shard up to its budget; by the time the exception
        reaches the runner it carries ``partial_results`` (index ->
        values) and ``pending_items``.  ``on_error="keep"`` converts the
        pending points into :class:`WorkerCrashError` rows and keeps the
        salvaged values; otherwise the crash propagates through the
        taxonomy with every pending scenario attached.
        """
        partial = getattr(exc, "partial_results", None) or {}
        pending = getattr(exc, "pending_items", None)
        if pending is None:
            pending = [i for i in range(len(misses)) if i not in partial]
        pending_scenarios = tuple(misses[i] for i in pending)
        if self.on_error != "keep":
            raise WorkerCrashError(
                scenario=pending_scenarios[0] if pending_scenarios else None,
                pending=pending_scenarios,
                cause=exc,
            ) from exc
        computed: list[dict] = []
        for i in range(len(misses)):
            if i in partial:
                computed.append(partial[i])
                continue
            crash = WorkerCrashError(
                scenario=misses[i], pending=pending_scenarios, cause=exc
            )
            if _obs_active():
                # The worker died before its span could be recorded;
                # surface the kept row as a failure instant instead.
                _obs_emit(
                    "scenario.failed",
                    label=_label_of(misses[i]),
                    error="WorkerCrashError",
                    attempts=1,
                    ts=time.time(),
                )
            computed.append(
                {ERROR_KEY: error_payload(crash), ATTEMPTS_KEY: 1}
            )
        return computed

    def _run(self, scenarios: ScenarioGrid | Iterable[Scenario]) -> list[SweepResult]:
        points = list(scenarios)

        # Resolve cache hits and dedupe repeated points (a concatenated
        # grid may name the same scenario twice — evaluate it once).
        # Bookkeeping is slot-indexed, not Scenario-keyed: one hash per
        # point (``setdefault``) instead of eight, which matters on
        # 10k-point whole-grid runs where hashing rivals pricing.
        slot_of: dict[Scenario, int] = {}
        slots: list[int] = []  # per point, in order
        slot_scenarios: list[Scenario] = []  # per slot
        values: list[dict] = []  # per slot
        stats: list[dict | None] = []
        cached: list[bool] = []
        attempts: list[int] = []
        errors: list[dict | None] = []
        quarantined: list[bool] = []
        misses: list[Scenario] = []
        miss_slots: list[int] = []
        caching = self.cache_dir is not None
        for sc in points:
            slot = slot_of.setdefault(sc, len(values))
            slots.append(slot)
            if slot < len(values):
                continue  # repeated point: reuse the first slot
            slot_scenarios.append(sc)
            quarantined_before = self.quarantined
            hit = self._cache_load(sc) if caching else None
            quarantined.append(self.quarantined > quarantined_before)
            errors.append(None)
            if hit is not None:
                hit_values, hit_stats, hit_attempts = hit
                values.append(hit_values)
                stats.append(hit_stats)
                cached.append(True)
                attempts.append(hit_attempts)
            else:
                values.append({})  # placeholder keeps dedupe order stable
                stats.append(None)
                cached.append(False)
                attempts.append(1)
                misses.append(sc)
                miss_slots.append(slot)

        observing = _obs_active()
        if observing:
            _obs_emit(
                "cache.resolved",
                hits=sum(cached),
                misses=len(misses),
                quarantined=sum(quarantined),
            )

        # The run manifest exists only when it can matter — a resilient
        # or resuming run with a cache to anchor it.  Plain runs keep
        # the exact disk layout they have always had (cache files only).
        manifest = prior = None
        keys: list[str] | None = None
        if caching and (self.resume or self._resilient):
            keys = [sc.key(self._salt) for sc in slot_scenarios]
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
            for slot, sc in enumerate(slot_scenarios):
                if cached[slot]:
                    manifest.record(keys[slot], "ok", attempts[slot])

        if misses:
            try:
                if self._use_batch_path(misses):
                    computed = self._batch_map(misses)
                else:
                    computed = self._backend.map(
                        self._bound_evaluate(), misses, workers=self.workers
                    )
            except BaseException as exc:
                if manifest is not None:
                    manifest.write()  # completed hits stay on record
                if isinstance(exc, BrokenProcessPool):
                    computed = self._salvage_crash(exc, misses)
                else:
                    raise
            evaluator_totals = {
                "hits": 0, "misses": 0, "evictions": 0, "uninstrumented": 0,
                "federated": 0,
            }
            for sc, slot, vals in zip(misses, miss_slots, computed):
                if observing:
                    blob = vals.pop(OBS_KEY, None)
                    if self.obs is not None and blob is not None:
                        self.obs.fold(blob)
                sc_stats = vals.pop(CACHE_STATS_KEY, None)
                sc_attempts = vals.pop(ATTEMPTS_KEY, 1)
                error = vals.pop(ERROR_KEY, None)
                if observing:
                    if sc_stats is not None and "federated" in sc_stats:
                        # Answered by a remote worker's federated store:
                        # any memo delta riding along belongs to the run
                        # that originally computed it, not this one.
                        evaluator_totals["federated"] += 1
                    elif sc_stats is None or "hits" not in sc_stats:
                        evaluator_totals["uninstrumented"] += 1
                    else:
                        evaluator_totals["hits"] += sc_stats.get("hits", 0)
                        evaluator_totals["misses"] += sc_stats.get("misses", 0)
                        evaluator_totals["evictions"] += sc_stats.get(
                            "evictions", 0
                        )
                if prior is not None:
                    # A resumed point's attempt count is cumulative
                    # across runs — the proof that resume re-executed
                    # it rather than recomputing from scratch.
                    sc_attempts += prior.prior_attempts(keys[slot])
                attempts[slot] = sc_attempts
                if error is None:
                    values[slot] = vals
                    if caching:
                        # Group-level batch stats never reach the cache
                        # files — entries stay byte-identical to what
                        # the memoized/vectorized paths always wrote.
                        store_stats = sc_stats
                        if store_stats is not None and "batch_group" in store_stats:
                            store_stats = None
                        elif store_stats is not None and "federated" in store_stats:
                            # The federated-hit marker is per-run
                            # accounting; the local cache entry must stay
                            # byte-identical to one a serial run writes.
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
                    # Failures become result rows, never cache entries:
                    # a later run (resumed or not) must re-evaluate.
                    errors[slot] = error
                    if manifest is not None:
                        manifest.record(
                            keys[slot], "failed", sc_attempts, error
                        )
                if quarantined[slot]:
                    # Surfaced on the in-memory result only — the fresh
                    # cache entry describes a healthy recompute.
                    sc_stats = dict(sc_stats or {})
                    sc_stats["quarantined"] = 1
                stats[slot] = sc_stats
            if observing:
                if not evaluator_totals["federated"]:
                    # Only remote runs with store hits carry the field,
                    # so local runs' event streams stay exactly as before.
                    evaluator_totals.pop("federated")
                _obs_emit("run.evaluator", **evaluator_totals)

        if manifest is not None:
            manifest.write()

        return [
            SweepResult(
                scenario=sc,
                values=values[slot],
                cached=cached[slot],
                cache_stats=stats[slot],
                ok=errors[slot] is None,
                error=errors[slot],
                attempts=attempts[slot],
            )
            for sc, slot in zip(points, slots)
        ]
