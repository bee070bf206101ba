"""Whole-grid evaluation: price every scenario of a sweep as array math.

The per-scenario fast path (compiled DAGs + the memoized
:class:`~repro.perfmodel.evalcache.Evaluator`) still pays Python once
per scenario — prohibitive for the 10k-1M-point studies the paper's
sweep artifact wants.  This module prices a grid in groups instead, one
array pass per group:

* scenarios sharing an ``(n, strategy, decomposed, sequential)``
  timeline template (and cluster shape) get their
  :class:`~repro.pipeline.schedule.MoEStageCosts` from
  :meth:`~repro.pipeline.schedule.MoEStageCosts.from_rows` with one
  array entry per scenario, stacked into a work matrix
  (:meth:`~repro.pipeline.schedule.TimelineTemplate.works_matrix`) and
  priced through the schedule-replay engine (:func:`batched_makespans`);
* the analytic Eq. 10 selection (:func:`batch_evaluate_eq10`) runs the
  scalar selector's own rates, its
  :func:`~repro.perfmodel.cost.stage_stream_times` and its Eq. 5
  :meth:`~repro.memory.footprint.FootprintModel.device_bytes` over a
  group's arrays.

The cost formulas are written once, as plain arithmetic that runs on
Python ints and on int64 arrays alike, and each scenario's bottleneck
rows come from the scalar ``WorkloadSpec.device_rows``, so the batched
values are the scalar path's bit for bit; no formula has an array twin
here.  The replay engine validates per scenario that the
recorded event order is the one the scalar engine would execute
(divergent scenarios are re-recorded or priced scalar — never
approximated).  Both objectives share one group loop and take their
validation and values-row shape from their scalar evaluators in
:mod:`repro.sweep.runner`.

The registry at the bottom maps scalar evaluator functions to their
batched twins, which the sweep runner finds with
:func:`batch_evaluator_for` when its ``vectorize`` option engages.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

from repro.obs.bus import active as _obs_active
from repro.obs.bus import emit as _obs_emit

from repro.memory.strategies import STRATEGIES
from repro.perfmodel.cost import stage_stream_times
from repro.pipeline.schedule import (
    TIMING_BYTES_PER_ELEM,
    MoEStageCosts,
    compile_timeline,
)
from repro.sim.engine import CompiledDag, SimEngine, replay_schedule
from repro.sweep.grid import Scenario
from repro.sweep.runner import (
    CACHE_STATS_KEY,
    evaluate_eq10,
    evaluate_timeline,
    scenario_hetero,
    scenario_workload,
    shared_context,
    _check_eq10,
    _check_timeline,
    _eq10_values,
    _scenario_spec,
    _timeline_values,
)


def _scalar_group_fallback(evaluate, scenarios, group, out, objective) -> None:
    """Re-price one template group through the memoized scalar evaluator.

    The graceful-degradation path: when a group's batched pass raises
    (a pricing bug, a numpy edge case), its scenarios fall back to the
    serial evaluator one by one instead of sinking the whole grid — and
    an organic per-scenario failure then surfaces from the scenario that
    owns it, exactly as the serial loop would raise it.  The evaluator's
    per-scenario memo delta is kept and tagged with the group's
    ``batch_group`` entry (``fallback: True``), so
    :meth:`~repro.api.result.ResultSet.cache_stats` can attribute the
    rows; the runner never persists ``batch_group``-tagged stats to the
    disk cache, keeping cache files byte-identical.
    """
    group_stats = {
        "objective": objective,
        "size": len(group["idx"]),
        "fallback": True,
    }
    for i in group["idx"]:
        values = evaluate(scenarios[i])
        delta = values.pop(CACHE_STATS_KEY, None)
        stats = dict(delta) if isinstance(delta, dict) else {}
        stats["batch_group"] = group_stats
        values[CACHE_STATS_KEY] = stats
        out[i] = values


#: Distinct recorded schedules tried per template group before the
#: stragglers fall back to the scalar compiled path.  Real grids vary
#: works smoothly with batch, so a handful of schedules usually covers
#: thousands of scenarios; a group that keeps diverging (wide batch
#: ranges at high n flip op orderings often) stops paying record+replay
#: overhead past this point.
MAX_SCHEDULES_PER_GROUP = 64


# -- batched compiled pricing -------------------------------------------------
def batched_makespans(
    engine: SimEngine,
    dag: CompiledDag,
    works_matrix,
    max_schedules: int = MAX_SCHEDULES_PER_GROUP,
    stats: dict | None = None,
):
    """Makespan of every row of ``works_matrix`` under one engine.

    Records the schedule of a representative scenario and replays it
    over all rows at once; rows whose event order diverges pick a new
    representative, up to ``max_schedules`` recordings, after which the
    stragglers run the scalar compiled path.  Every row's result is
    bit-for-bit ``engine.compiled_makespan(dag, works_matrix[s])``.

    ``stats``, when given, accumulates the number of schedules recorded
    under ``"schedules"`` (observability accounting; values unchanged).
    """
    import numpy as np

    W = np.asarray(works_matrix, dtype=np.float64)
    out = np.empty(W.shape[0])
    remaining = np.arange(W.shape[0])
    schedules = 0
    while remaining.size:
        if schedules >= max_schedules:
            for s in remaining:
                out[s] = engine.compiled_makespan(dag, W[s].tolist())
            break
        rep = int(remaining[0])
        trace = engine.record_compiled_schedule(dag, W[rep].tolist())
        schedules += 1
        spans, valid = replay_schedule(trace, W[remaining])
        if not valid[0]:  # a NaN work fails even its own recorded order
            out[rep] = engine.compiled_makespan(dag, W[rep].tolist())
            remaining = remaining[1:]
            continue
        out[remaining[valid]] = spans[valid]
        remaining = remaining[~valid]
    if stats is not None:
        stats["schedules"] = stats.get("schedules", 0) + schedules
    return out


def _group_makespans(ctx, dag, W, stats: dict | None = None):
    """Worst-profile makespans: the hetero ``max()`` as elementwise maximum."""
    import numpy as np

    engines = [ctx.engine_for(p) for p in ctx.sim_profiles] or [ctx.engine]
    return np.maximum.reduce(
        [batched_makespans(engine, dag, W, stats=stats) for engine in engines]
    )


# -- the group loop -----------------------------------------------------------
def _batch_evaluate(
    scenarios: Iterable[Scenario],
    objective: str,
    evaluate: Callable,
    check: Callable,
    group_key: Callable,
    price: Callable,
) -> list[dict]:
    """Group scenarios by ``group_key`` and price each group in one pass.

    ``check`` is the scalar evaluator's own validation, run per scenario
    in order so errors raise exactly where a serial map would raise
    them.  ``price(np, group)`` returns the group's ``batch_group``
    stats and its values rows in group order; the stats dict rides every
    row as its cache-stats entry, one shared blob per group (rows only
    read it, and a per-row copy is measurable on 10k-point grids).
    Placed groups, and groups whose pass raises, go through the scalar
    ``evaluate`` instead.
    """
    import numpy as np

    scenarios = list(scenarios)
    out: list = [None] * len(scenarios)
    groups: dict[tuple, dict] = {}
    for i, sc in enumerate(scenarios):
        check(sc)
        workload = scenario_workload(sc)
        key = group_key(sc)
        group = groups.get(key)
        if group is None:
            group = groups[key] = {
                "scenario": sc,
                "spec": _scenario_spec(sc),
                "idx": [],
                "batches": [],
                "workloads": [],
            }
        if workload is not None:
            workload.resolved_k(group["spec"])  # top_k check, in order
        group["idx"].append(i)
        group["batches"].append(sc.batch)
        group["workloads"].append(workload)

    for group in groups.values():
        if group["scenario"].placement not in (None, "contiguous"):
            # Placed pricing (anchored per-rank rows, per-rank engine
            # maxima, the traffic-aware selector) has no array form;
            # the memoized scalar path owns those rows.  ``None`` and
            # the explicit "contiguous" baseline price unplaced.
            _scalar_group_fallback(evaluate, scenarios, group, out, objective)
            continue
        observing = _obs_active()
        if observing:
            group_ts = time.time()
            group_p0 = time.perf_counter()
        try:
            stats, rows = price(np, group)
        except Exception as exc:
            if observing:
                _obs_emit(
                    "batch.fallback",
                    objective=objective,
                    size=len(group["idx"]),
                    error=type(exc).__name__,
                    ts=time.time(),
                )
            _scalar_group_fallback(evaluate, scenarios, group, out, objective)
            continue
        blob = {"batch_group": stats}
        for i, values in zip(group["idx"], rows):
            values[CACHE_STATS_KEY] = blob
            out[i] = values
        if observing:
            _obs_emit(
                "batch.group",
                objective=objective,
                size=stats["size"],
                distinct=stats.get("distinct", 0),
                schedules=stats.get("schedules", 0),
                ts=group_ts,
                dur=time.perf_counter() - group_p0,
            )
    return out


def _group_rows(np, group: dict, world: int) -> tuple:
    """The group's bottleneck rows and activation widths, (S,) int64 each.

    Each row is the scalar ``WorkloadSpec.device_rows`` (the batch itself
    on the seed path, where the workload is ``None``).
    """
    spec, workloads = group["spec"], group["workloads"]
    rows = np.asarray(
        [
            batch if wl is None else wl.device_rows(spec, batch, world)
            for batch, wl in zip(group["batches"], workloads)
        ],
        dtype=np.int64,
    )
    bpe = np.asarray(
        [
            TIMING_BYTES_PER_ELEM if wl is None else wl.bytes_per_elem
            for wl in workloads
        ],
        dtype=np.int64,
    )
    return rows, bpe


# -- the timeline objective, batched ------------------------------------------
def _timeline_key(sc: Scenario) -> tuple:
    """A timeline group: one cluster shape, layer spec and template."""
    return (
        sc.world_size, sc.straggler, sc.severity, sc.straggler_seed,
        sc.spec, sc.num_experts, sc.n, sc.strategy or "none",
        sc.decomposed_comm, sc.sequential, sc.placement,
    )


def _price_timeline_group(np, group: dict) -> tuple[dict, list]:
    """One (cluster, spec, template) group through the replay engine."""
    sc = group["scenario"]
    n, strategy = sc.n, sc.strategy or "none"
    ctx = shared_context(sc.world_size, scenario_hetero(sc))
    rows, bpe = _group_rows(np, group, ctx.effective_world)
    costs = MoEStageCosts.from_rows(
        group["spec"], rows, n, ctx.device, ctx.comm_model(), bpe
    )
    compiled = compile_timeline(
        n, strategy, decomposed_comm=sc.decomposed_comm, sequential=sc.sequential
    )
    # Work vectors are a pure function of the stage costs, and those
    # quantize rows through ``b = ceil(rows / n)`` — dense batch axes
    # collapse onto far fewer distinct cost vectors (an n=16 group
    # keeps ~1/16th).  Price each distinct vector once and scatter;
    # identical inputs make identical (bit-for-bit) outputs.
    size = len(rows)
    names = sorted(vars(costs))
    colmat = np.stack(
        [np.broadcast_to(getattr(costs, f), (size,)) for f in names], axis=1
    )
    _, first, inverse = np.unique(
        colmat, axis=0, return_index=True, return_inverse=True
    )
    distinct = colmat[first]
    W = compiled.template.works_matrix(
        MoEStageCosts(**{f: distinct[:, j] for j, f in enumerate(names)}),
        len(first),
    )
    stats = {"objective": "timeline", "size": size, "distinct": int(len(first))}
    spans = _group_makespans(ctx, compiled.dag, W, stats=stats)[inverse].tolist()
    return stats, [_timeline_values(value, n, strategy) for value in spans]


def batch_evaluate_timeline(scenarios: Iterable[Scenario]) -> list[dict]:
    """Batched twin of :func:`repro.sweep.runner.evaluate_timeline`.

    Groups scenarios by (cluster shape, spec, n, strategy, decomposed,
    sequential), prices each group in one numpy pass, and returns the
    values dicts in scenario order — each bit-identical to what the
    memoized scalar evaluator computes for that scenario.
    """
    return _batch_evaluate(
        scenarios, "timeline", evaluate_timeline, _check_timeline,
        _timeline_key, _price_timeline_group,
    )


# -- the analytic Eq. 10 selection, batched -----------------------------------
def _eq10_key(sc: Scenario) -> tuple:
    """An Eq. 10 group: one cluster shape, layer spec and granularity."""
    return (
        sc.world_size, sc.straggler, sc.severity, sc.straggler_seed,
        sc.spec, sc.num_experts, sc.n, sc.placement,
    )


def _price_eq10_group(np, group: dict) -> tuple[dict, list]:
    """One (cluster, spec, n) group through the scalar selector's parts.

    The group's selector is built the way the memoized path builds one
    (unmemoized, so the evaluator memo is untouched); its Eq. 5
    footprint sizes every scenario's reuse bytes from the bottleneck
    rows, and :func:`~repro.perfmodel.cost.stage_stream_times` prices
    every candidate strategy's stages over the whole group.
    """
    sc, spec = group["scenario"], group["spec"]
    n = sc.n
    ctx = shared_context(sc.world_size, scenario_hetero(sc))
    selector = ctx.evaluator.build_selector(spec, None)
    model = selector.perf_model
    rows, bpe = _group_rows(np, group, ctx.effective_world)
    batches = np.asarray(group["batches"], dtype=np.int64)
    memory = selector.footprint.device_bytes(batches, rows, True, reuse_n=n)
    fits = memory <= selector.device_capacity
    b = -(-rows // n)  # ceil: padded final micro-batch
    sigma = model.interference.sigma
    size = len(rows)
    costs: dict[str, object] = {}
    best_idx = np.full(size, -1)
    best_cost = np.empty(size)
    for name, strategy in STRATEGIES.items():
        if strategy.name == "none" or (strategy.reuses_memory and n < 2):
            continue
        mu = model.interference.mu(strategy.uses_mem_stream)
        eta = model.interference.eta(strategy.uses_mem_stream)
        fw, bw = (
            np.maximum.reduce(
                stage_stream_times(spec, model.rates, q, b, bpe, sigma, mu, eta)
            )
            for q in model.strategy_queues(strategy)
        )
        cost = n * (fw + bw)
        take = fits & ((best_idx == -1) | (cost < best_cost))
        best_idx = np.where(take, len(costs), best_idx)
        best_cost = np.where(take, cost, best_cost)
        costs[name] = cost

    names = list(costs)
    columns = [c.tolist() for c in costs.values()]
    values = []
    for j, (k, cost, mem) in enumerate(
        zip(best_idx.tolist(), best_cost.tolist(), memory.tolist())
    ):
        # The scalar selector raises MemoryError before its costs
        # escape select(): an infeasible row has the empty-costs shape.
        if k < 0:
            values.append(_eq10_values(n))
        else:
            point_costs = dict(zip(names, [col[j] for col in columns]))
            values.append(_eq10_values(n, names[k], cost, mem, point_costs))
    return {"objective": "eq10", "size": size}, values


def batch_evaluate_eq10(scenarios: Iterable[Scenario]) -> list[dict]:
    """Batched twin of :func:`repro.sweep.runner.evaluate_eq10`.

    Runs the Eq. 10 strategy selection for every scenario in one numpy
    pass per (cluster shape, spec, n) group.  Values are bit-identical
    to the scalar selector's.
    """
    return _batch_evaluate(
        scenarios, "eq10", evaluate_eq10, _check_eq10, _eq10_key,
        _price_eq10_group,
    )


# -- the evaluator registry ---------------------------------------------------
#: Scalar evaluator function -> batched twin (Scenario list -> values list).
_BATCH_EVALUATORS: dict[Callable, Callable] = {}


def register_batch_evaluator(evaluate: Callable, batch_evaluate: Callable):
    """Register ``batch_evaluate`` as the whole-grid twin of ``evaluate``.

    The twin takes a list of scenarios and returns their values dicts in
    order, each equal to ``evaluate(scenario)`` — except the cache-stats
    entry, which a batched pass cannot attribute per scenario and so
    replaces with its *group* accounting (a ``batch_group`` dict:
    objective, group size, distinct work vectors, schedules recorded).
    """
    _BATCH_EVALUATORS[evaluate] = batch_evaluate
    return batch_evaluate


def batch_evaluator_for(evaluate: Callable) -> Callable | None:
    return _BATCH_EVALUATORS.get(evaluate)


def _register_builtins() -> None:
    from repro.sweep import runner

    register_batch_evaluator(runner.evaluate_timeline, batch_evaluate_timeline)
    register_batch_evaluator(runner.evaluate_eq10, batch_evaluate_eq10)


_register_builtins()
