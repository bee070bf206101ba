"""Traced-run mode: spans around the public functions of each layer.

The wrappers live here, in the benchmark, and are installed from the
outside around the functions a sweep calls into; nothing under ``src/``
knows about them.  Two rules keep the program's behaviour untouched:

* A function imported *by name* into another module is patched at that
  call-site module too (``evalcache.compile_timeline``,
  ``runner.optimize_placement``, ...), because rebinding the defining
  module alone would miss the caller's own reference.
* ``evaluate_system`` / ``evaluate_timeline`` / ``evaluate_eq10`` are
  never wrapped: the objective table and the batch-twin registry key on
  their identity.  The batched twins are wrapped by re-registering them
  through ``batcheval.register_batch_evaluator`` instead.

A span is ``[name, start, end, parent, pass_id]`` (``parent`` is the
index of the enclosing span, -1 at top level).  Spans stay in memory;
the caller writes them out once, at the end.  Very hot predicates
(``PlacementProblem.feasible``, ``SimEngine.compiled_makespan``,
``compile_timeline``) are counted, not spanned: a span per call would
cost more than the call.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter

#: Per-layer metric name -> (unit, better, end-to-end metric it should
#: move, workload where it moves).  BENCHMARK.json's ``per_layer`` list
#: and the table in perfbench/README.md mirror it.
LAYER_METRICS = {
    "api.result.build_s": ("s", "lower", "peak_rss_mb, scenarios_per_s", "grid-vectorized"),
    "api.result.to_json_s": ("s", "lower", "export_s", "grid-vectorized"),
    "api.result.to_json_share": ("ratio", "lower", "export_s", "grid-vectorized"),
    "sweep.runner.self_s": ("s", "lower", "scenarios_per_s", "grid-vectorized"),
    "sweep.lowering_s": ("s", "lower", "scenarios_per_s", "grid-vectorized"),
    "batcheval.timeline_s": ("s", "lower", "scenarios_per_s", "grid-vectorized"),
    "batcheval.eq10_s": ("s", "lower", "scenarios_per_s", "grid-vectorized"),
    "batcheval.vectorized_share": ("ratio", "higher", "scenarios_per_s", "grid-vectorized"),
    "batcheval.schedules_recorded": ("count", "lower", "scenarios_per_s", "grid-vectorized"),
    "engine.run_compiled.calls": ("count", "lower", "scenarios_per_s", "systems-serial"),
    "engine.run_compiled.self_s": ("s", "lower", "scenarios_per_s", "systems-serial"),
    "engine.run_compiled.self_share": ("ratio", "lower", "scenarios_per_s", "systems-serial"),
    "engine.compiled_makespan.calls": ("count", "lower", "scenarios_per_s", "systems-serial"),
    "engine.record_schedule_s": ("s", "lower", "scenarios_per_s", "grid-vectorized"),
    "engine.replay_s": ("s", "lower", "scenarios_per_s", "grid-vectorized"),
    "schedule.compile_timeline.calls": ("count", "lower", "scenarios_per_s", "systems-serial"),
    "schedule.stage_costs.calls": ("count", "lower", "scenarios_per_s", "systems-serial"),
    "schedule.stage_costs_s": ("s", "lower", "scenarios_per_s", "systems-serial"),
    "evaluator.makespan.self_s": ("s", "lower", "scenarios_per_s", "systems-serial"),
    "evaluator.simulate.self_s": ("s", "lower", "scenarios_per_s", "systems-serial"),
    "evaluator.hit_ratio": ("ratio", "higher", "scenarios_per_s", "systems-serial"),
    "granularity.searches": ("count", "lower", "scenarios_per_s", "systems-serial"),
    "granularity.trials": ("count", "lower", "scenarios_per_s", "systems-serial"),
    "selector.select.calls": ("count", "lower", "scenarios_per_s", "systems-serial"),
    "selector.select_s": ("s", "lower", "scenarios_per_s", "systems-serial"),
    "footprint.calls": ("count", "lower", "scenarios_per_s", "systems-serial"),
    "footprint_s": ("s", "lower", "scenarios_per_s", "systems-serial"),
    "placeopt.optimize.calls": ("count", "lower", "scenarios_per_s", "placement-straggler"),
    "placeopt.optimize_s": ("s", "lower", "scenarios_per_s", "placement-straggler"),
    "placeopt.optimize_share": ("ratio", "lower", "scenarios_per_s", "placement-straggler"),
    "placeopt.feasible.calls": ("count", "lower", "scenarios_per_s", "placement-straggler"),
    "placeopt.distinct_ratio": ("ratio", "higher", "scenarios_per_s", "placement-straggler"),
    "systems.evaluate.self_s": ("s", "lower", "scenarios_per_s", "systems-serial"),
    "systems.evaluate.p50_ms": ("ms", "lower", "scenarios_per_s", "systems-serial"),
    "systems.evaluate.p99_ms": ("ms", "lower", "scenarios_per_s", "systems-serial"),
    "setup.import_s": ("s", "lower", "setup_s", "every workload"),
    "setup.grid_s": ("s", "lower", "setup_s", "every workload"),
    "trace.overhead_ratio": ("ratio", "lower", "none (tracing cost)", "every workload"),
    "trace.spans": ("count", "lower", "none (tracing cost)", "every workload"),
}


class Tracer:
    """Installs layer wrappers, records spans and counts, removes them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.problems: set = set()
        self.pass_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._twins: list[tuple] = []

    # -- wrappers ----------------------------------------------------------
    def _spanned(self, name: str, fn, on_call=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.pass_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` (a module global or a class's own
        function/classmethod) with ``make(original_function)``."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr: str, name: str, on_call=None) -> None:
        self._patch(owner, attr, lambda fn: self._spanned(name, fn, on_call))

    def _count(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, lambda fn: self._counted(name, fn))

    # -- install / uninstall -----------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()  # never leave the program half-wrapped
            raise

    def _install(self) -> None:
        from repro.api import result
        from repro.memory import footprint
        from repro.perfmodel import batcheval, evalcache, placeopt, selector
        from repro.pipeline import granularity, schedule
        from repro.sim import engine
        from repro.sweep import runner
        from repro.systems import fastermoe, fastmoe, mpipemoe, pipemoe

        self._span(result.ResultSet, "__init__", "api.result.build")
        self._span(result.ResultSet, "to_json", "api.result.to_json")
        self._span(runner.SweepRunner, "run", "sweep.runner.run")
        for owner in (runner, batcheval):
            self._span(owner, "scenario_workload", "sweep.lowering")
            self._span(owner, "scenario_hetero", "sweep.lowering")
        self._span(runner, "scenario_placement", "sweep.lowering")
        self._span(
            runner, "optimize_placement", "placeopt.optimize",
            on_call=lambda args: self.problems.add(args[0]),
        )
        self._count(placeopt.PlacementProblem, "feasible", "placeopt.feasible")
        self._span(engine.SimEngine, "run_compiled", "engine.run_compiled")
        self._count(engine.SimEngine, "compiled_makespan", "engine.compiled_makespan")
        self._span(engine.SimEngine, "record_compiled_schedule", "engine.record_schedule")
        self._span(batcheval, "replay_schedule", "engine.replay")
        for owner in (evalcache, batcheval):
            self._count(owner, "compile_timeline", "schedule.compile_timeline")
        self._span(schedule.MoEStageCosts, "compute", "schedule.stage_costs")
        self._span(evalcache.Evaluator, "makespan", "evaluator.makespan")
        self._span(evalcache.Evaluator, "simulate", "evaluator.simulate")
        self._span(
            granularity.GranularitySearcher, "search_best_granularity",
            "granularity.search",
            on_call=lambda args: self.counts.update(
                {"granularity.trials": len(args[0].candidates)}
            ),
        )
        self._span(selector.StrategySelector, "select", "selector.select")
        self._span(footprint.FootprintModel, "total_bytes", "footprint")
        self._span(footprint.FootprintModel, "per_device_bytes", "footprint")
        for model in (
            fastmoe.FastMoEModel, fastermoe.FasterMoEModel,
            pipemoe.PipeMoEModel, mpipemoe.MPipeMoEModel,
        ):
            self._span(model, "evaluate", "systems.evaluate")
        for evaluate, twin_name in (
            (runner.evaluate_timeline, "batcheval.timeline"),
            (runner.evaluate_eq10, "batcheval.eq10"),
        ):
            twin = batcheval.batch_evaluator_for(evaluate)
            self._twins.append((evaluate, twin))
            batcheval.register_batch_evaluator(
                evaluate, self._spanned(twin_name, twin)
            )

    def uninstall(self) -> None:
        from repro.perfmodel import batcheval

        for evaluate, twin in reversed(self._twins):
            batcheval.register_batch_evaluator(evaluate, twin)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._twins.clear()
        self._patches.clear()

    def installed_originals(self) -> list[tuple[object, str, object]]:
        """``(owner, attr, original)`` of every live patch (for tests)."""
        return list(self._patches)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output --------------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span recorded so far as one compact JSON file."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "names": names,
            "fields": ["name", "start_s", "end_s", "parent", "pass"],
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _span_tables(spans: list[list]):
    """Per-name outermost durations (one per call) and self times.

    Outermost = no enclosing span of the same name (``footprint`` and
    ``sweep.lowering`` nest in themselves); self time subtracts the
    durations of direct children, which covers their whole interval
    because one thread's spans nest strictly.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    outer: dict[str, list[float]] = {}
    self_s: Counter = Counter()
    for i, s in enumerate(spans):
        name, dur = s[0], s[2] - s[1]
        self_s[name] += dur - child[i]
        parent = s[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            outer.setdefault(name, []).append(dur)
    return outer, self_s


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, cache_stats: dict, run_s: float, export_s: float) -> dict:
    """Every per-layer metric of one traced pass (:data:`LAYER_METRICS`)."""
    outer, self_s = _span_tables(tracer.spans)
    counts = tracer.counts

    def incl(name):
        return sum(outer.get(name, ()))

    def calls(name):
        return len(outer.get(name, ()))

    scenarios = cache_stats["scenarios"]
    lookups = cache_stats["evaluator_hits"] + cache_stats["evaluator_misses"]
    optimize_calls = calls("placeopt.optimize")
    evaluate_ms = [d * 1e3 for d in outer.get("systems.evaluate", ())]
    return {
        "api.result.build_s": incl("api.result.build"),
        "api.result.to_json_s": incl("api.result.to_json"),
        "api.result.to_json_share": incl("api.result.to_json") / (run_s + export_s),
        "sweep.runner.self_s": self_s["sweep.runner.run"],
        "sweep.lowering_s": self_s["sweep.lowering"],
        "batcheval.timeline_s": incl("batcheval.timeline"),
        "batcheval.eq10_s": incl("batcheval.eq10"),
        "batcheval.vectorized_share": cache_stats["vectorized"] / scenarios,
        "batcheval.schedules_recorded": calls("engine.record_schedule"),
        "engine.run_compiled.calls": calls("engine.run_compiled"),
        "engine.run_compiled.self_s": self_s["engine.run_compiled"],
        "engine.run_compiled.self_share": self_s["engine.run_compiled"] / run_s,
        "engine.compiled_makespan.calls": counts["engine.compiled_makespan"],
        "engine.record_schedule_s": incl("engine.record_schedule"),
        "engine.replay_s": incl("engine.replay"),
        "schedule.compile_timeline.calls": counts["schedule.compile_timeline"],
        "schedule.stage_costs.calls": calls("schedule.stage_costs"),
        "schedule.stage_costs_s": incl("schedule.stage_costs"),
        "evaluator.makespan.self_s": self_s["evaluator.makespan"],
        "evaluator.simulate.self_s": self_s["evaluator.simulate"],
        "evaluator.hit_ratio": (
            cache_stats["evaluator_hits"] / lookups if lookups else 0.0
        ),
        "granularity.searches": calls("granularity.search"),
        "granularity.trials": counts["granularity.trials"],
        "selector.select.calls": calls("selector.select"),
        "selector.select_s": incl("selector.select"),
        "footprint.calls": calls("footprint"),
        "footprint_s": incl("footprint"),
        "placeopt.optimize.calls": optimize_calls,
        "placeopt.optimize_s": incl("placeopt.optimize"),
        "placeopt.optimize_share": incl("placeopt.optimize") / run_s,
        "placeopt.feasible.calls": counts["placeopt.feasible"],
        "placeopt.distinct_ratio": (
            len(tracer.problems) / optimize_calls if optimize_calls else 0.0
        ),
        "systems.evaluate.self_s": self_s["systems.evaluate"],
        "systems.evaluate.p50_ms": statistics.median(evaluate_ms) if evaluate_ms else 0.0,
        "systems.evaluate.p99_ms": _pct(evaluate_ms, 0.99),
        "trace.spans": len(tracer.spans),
    }
