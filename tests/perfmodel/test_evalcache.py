"""Cache correctness of the shared memoized Evaluator.

The contract under test: a warm (memoizing, compiled-fast-path)
evaluator produces results identical to cold evaluation — same floats,
same reports, same MemoryError on the no-fit path — across all system
models and strategies.
"""

import dataclasses

import pytest

from repro.config import MOE_GPT3_XL, get_preset
from repro.hardware.hetero import StragglerModel
from repro.perfmodel.evalcache import Evaluator, _gating
from repro.pipeline.schedule import MoEStageCosts, build_timeline
from repro.sim.engine import SimEngine, Timing
from repro.systems import (
    FastMoEModel,
    FasterMoEModel,
    MPipeMoEModel,
    PipeMoEModel,
)
from repro.systems.base import SystemContext
from tests.oracles import ColdEvaluator

WORLD = 16
BATCHES = (4096, 16384)


def make_context(enabled: bool, **kwargs) -> SystemContext:
    """A context whose evaluator is memoized (``enabled``) or cold."""
    ctx = SystemContext(world_size=WORLD, **kwargs)
    if not enabled:
        ctx.evaluator = ColdEvaluator(ctx)
    return ctx


class Eq10Pick:
    """The sweep's ``eq10`` route at n=4 behind a system model's
    ``evaluate``: the closed-form Eq. 10 selection of the context's
    (memoized or cold) selector."""

    def __init__(self, ctx: SystemContext) -> None:
        self.context = ctx

    def evaluate(self, spec, batch):
        return self.context.evaluator.selector(spec).select(batch, 4)


SYSTEM_FACTORIES = {
    "fastmoe": lambda ctx: FastMoEModel(ctx),
    "fastermoe": lambda ctx: FasterMoEModel(ctx),
    "pipemoe": lambda ctx: PipeMoEModel(ctx),
    "pipemoe_n1": lambda ctx: PipeMoEModel(ctx, fixed_n=1),
    "mpipemoe": lambda ctx: MPipeMoEModel(ctx),
    "mpipemoe_S2": lambda ctx: MPipeMoEModel(ctx, fixed_n=4, fixed_strategy="S2"),
    "mpipemoe_eq10": lambda ctx: Eq10Pick(ctx),
}


@pytest.fixture
def loop_runs(monkeypatch) -> list:
    """The ``record`` flag of every ``SimEngine.run_compiled`` call."""
    calls = []
    run_compiled = SimEngine.run_compiled

    def spy(self, dag, works=None, record=False):
        calls.append(record)
        return run_compiled(self, dag, works, record=record)

    monkeypatch.setattr(SimEngine, "run_compiled", spy)
    return calls


class TestWarmEqualsCold:
    @pytest.mark.parametrize("name", sorted(SYSTEM_FACTORIES))
    def test_reports_identical(self, name):
        """Every field of every report matches cold evaluation exactly."""
        factory = SYSTEM_FACTORIES[name]
        cold_model = factory(make_context(enabled=False))
        warm_model = factory(make_context(enabled=True))
        spec = get_preset("GPT-XL")
        for batch in BATCHES:
            cold = cold_model.evaluate(spec, batch)
            warm = warm_model.evaluate(spec, batch)
            # SystemReport is frozen; == compares every field bit-exactly.
            assert warm == cold, (name, batch)
            # Second warm pass is served from the memo and stays identical.
            assert warm_model.evaluate(spec, batch) == cold

    def test_repeat_evaluation_hits_cache(self):
        ctx = make_context(enabled=True)
        model = MPipeMoEModel(ctx)
        model.evaluate(MOE_GPT3_XL, 8192)
        misses = ctx.evaluator.stats.makespan_misses
        model.evaluate(MOE_GPT3_XL, 8192)
        assert ctx.evaluator.stats.makespan_misses == misses
        assert ctx.evaluator.stats.makespan_hits > 0

    def test_models_sharing_a_context_share_the_memo(self):
        """PipeMoE's n-search probes 'none' timelines that MPipeMoE's own
        search would otherwise recompute — one context, one cache."""
        ctx = make_context(enabled=True)
        PipeMoEModel(ctx).evaluate(MOE_GPT3_XL, 8192)
        misses = ctx.evaluator.stats.makespan_misses
        MPipeMoEModel(ctx).evaluate(MOE_GPT3_XL, 8192)
        # MPipeMoE re-runs the n-search (all hits) and only pays for the
        # four reuse-strategy timelines it alone needs.
        assert ctx.evaluator.stats.makespan_misses == misses + 4


class TestBuildingBlocks:
    def test_stage_costs_match_direct_compute(self):
        ctx = make_context(enabled=True)
        spec = get_preset("BERT-L")
        got = ctx.evaluator.stage_costs(spec, 8192, 4)
        expected = MoEStageCosts.compute(
            spec, 8192, 4, ctx.device, ctx.comm_model()
        )
        assert got == expected
        assert ctx.evaluator.stage_costs(spec, 8192, 4) is got  # memo hit

    def test_makespan_matches_fresh_op_dag_run(self):
        ctx = make_context(enabled=True)
        spec = get_preset("GPT-XL")
        for strategy in ("none", "S1", "S4"):
            warm = ctx.evaluator.makespan(spec, 8192, 4, strategy)
            costs = MoEStageCosts.compute(spec, 8192, 4, ctx.device, ctx.comm_model())
            cold = ctx.engine.run(build_timeline(costs, 4, strategy)).makespan
            assert warm == cold, strategy

    def test_simulate_trace_matches_fresh_op_dag_run(self):
        ctx = make_context(enabled=True)
        spec = get_preset("GPT-S")
        sim = ctx.evaluator.simulate(spec, 4096, 2, "S3")
        costs = MoEStageCosts.compute(spec, 4096, 2, ctx.device, ctx.comm_model())
        cold = ctx.engine.run(build_timeline(costs, 2, "S3"))
        assert sim.makespan == cold.makespan
        assert sim.records == cold.records

    def test_simulate_runs_the_loop_once_per_miss(self, loop_runs):
        """Replay picks the gating run; only that run is recorded."""
        hetero = StragglerModel("single-slow-gpu", severity=0.5).build()
        ctx = make_context(enabled=True, hetero=hetero)
        cold = make_context(enabled=False, hetero=hetero)
        assert len(ctx.sim_profiles) == 2
        spec = get_preset("GPT-XL")
        points = ((4096, 1, "none"), (16384, 4, "S1"), (16384, 8, "S3"))
        for batch, n, strategy in points:
            loop_runs.clear()
            sim = ctx.evaluator.simulate(spec, batch, n, strategy)
            assert loop_runs == [True]
            loop_runs.clear()
            assert ctx.evaluator.simulate(spec, batch, n, strategy) is sim
            assert loop_runs == []
            assert sim == cold.evaluator.simulate(spec, batch, n, strategy)

    @pytest.mark.parametrize("name", sorted(SYSTEM_FACTORIES))
    def test_reports_record_no_run(self, name, loop_runs):
        """System reports read the memoized timing: no event loop runs
        with the record sink, and adaptive reports hit their own trials."""
        ctx = make_context(enabled=True)
        SYSTEM_FACTORIES[name](ctx).evaluate(get_preset("GPT-XL"), 8192)
        assert loop_runs == []
        stats = ctx.evaluator.stats
        assert stats.sim_misses == stats.sim_hits == 0
        if name in ("pipemoe", "mpipemoe"):
            assert stats.makespan_hits >= 1  # the report's own trial

    def test_footprint_bytes_match_direct_model(self):
        ctx = make_context(enabled=True)
        spec = get_preset("GPT-XL")
        assert ctx.evaluator.footprint_bytes(
            spec, 8192, pipelined=True, reuse_n=4
        ) == ctx.footprint(spec).total_bytes(8192, pipelined=True, reuse_n=4)

    def test_selector_is_shared_and_equivalent(self):
        ctx = make_context(enabled=True)
        spec = get_preset("GPT-XL")
        first = ctx.evaluator.selector(spec)
        assert ctx.evaluator.selector(spec) is first
        cold = make_context(enabled=False).evaluator.selector(spec)
        assert cold is not first
        assert first.select(8192, 4) == cold.select(8192, 4)


class TestNoFitPath:
    """A device too small for any reuse strategy must raise MemoryError
    identically on cold, warm, and repeated-warm evaluation."""

    def _tiny_device_context(self, enabled: bool) -> SystemContext:
        ctx = make_context(enabled=False)  # probe capacity with defaults
        needed = ctx.footprint(MOE_GPT3_XL).total_bytes(
            4096, pipelined=True, reuse_n=4
        )
        tiny = dataclasses.replace(ctx.device, memory_bytes=needed // 2)
        return make_context(enabled=enabled, device=tiny)

    def test_memory_error_identical_cold_and_warm(self):
        for enabled in (False, True):
            ctx = self._tiny_device_context(enabled)
            model = MPipeMoEModel(ctx, fixed_n=4)
            with pytest.raises(MemoryError, match="no reuse strategy fits"):
                model.evaluate(MOE_GPT3_XL, 4096)
            # The memoized no-fit answer raises again, not a stale pass.
            with pytest.raises(MemoryError, match="no reuse strategy fits"):
                model.evaluate(MOE_GPT3_XL, 4096)

    def test_fits_memoizes_the_negative_answer(self):
        ctx = self._tiny_device_context(enabled=True)
        assert not ctx.evaluator.fits(MOE_GPT3_XL, 4096, 4)
        misses = ctx.evaluator.stats.footprint_misses
        assert not ctx.evaluator.fits(MOE_GPT3_XL, 4096, 4)
        assert ctx.evaluator.stats.footprint_misses == misses


class TestCacheInfo:
    def test_the_memo_keeps_every_entry(self):
        """No bound: every priced point stays a hit for the evaluator's
        lifetime, however many distinct points came after it."""
        ctx = make_context(enabled=True)
        spec = get_preset("GPT-XL")
        ns = (1, 2, 4, 8, 16, 32)
        first = [ctx.evaluator.makespan(spec, 8192, n, "none") for n in ns]
        misses = ctx.evaluator.stats.makespan_misses
        assert len(ctx.evaluator._makespans) == len(ns)
        assert [ctx.evaluator.makespan(spec, 8192, n, "none") for n in ns] == first
        assert ctx.evaluator.stats.makespan_misses == misses
        assert ctx.evaluator.stats.makespan_hits == len(ns)

    def test_footprints_and_selectors_keep_every_workload(self):
        """One footprint model and one Eq. 10 selector per (spec,
        workload), each built on its first lookup and served after."""
        from repro.perfmodel.workload import WorkloadSpec

        ctx = make_context(enabled=True)
        spec = get_preset("GPT-XL")
        workloads = [WorkloadSpec(imbalance=float(skew)) for skew in range(1, 9)]
        footprints = [ctx.evaluator.footprint(spec, wl) for wl in workloads]
        selectors = [ctx.evaluator.selector(spec, wl) for wl in workloads]
        assert len(ctx.evaluator._footprints) == len(workloads)
        assert len(ctx.evaluator._selectors) == len(workloads)
        for wl, fp, selector in zip(workloads, footprints, selectors):
            assert ctx.evaluator.footprint(spec, wl) is fp
            assert ctx.evaluator.selector(spec, wl) is selector
        assert ctx.evaluator.cache_info()["entries"] >= 2 * len(workloads)

    def test_a_delta_counts_the_lookups_after_its_snapshot(self):
        """``cache_delta`` subtracts a ``counters()`` snapshot, while
        ``entries`` stays the evaluator's live total."""
        ctx = make_context(enabled=True)
        spec = get_preset("GPT-XL")
        ctx.evaluator.makespan(spec, 8192, 2, "none")
        before = ctx.evaluator.counters()
        ctx.evaluator.makespan(spec, 8192, 2, "none")  # a hit
        ctx.evaluator.makespan(spec, 8192, 4, "none")  # a miss
        delta = ctx.evaluator.cache_delta(before)
        assert (delta["makespan_hits"], delta["makespan_misses"]) == (1, 1)
        assert delta["entries"] == ctx.evaluator.cache_info()["entries"]
        assert delta["entries"] == sum(map(len, ctx.evaluator._memos))

    def test_info_shape_and_counts(self):
        ctx = make_context(enabled=True)
        info = ctx.evaluator.cache_info()
        for key in ("makespan_hits", "makespan_misses", "entries", "evictions",
                    "max_entries"):
            assert key in info
        assert info["entries"] == 0
        MPipeMoEModel(ctx).evaluate(get_preset("GPT-XL"), 8192)
        info = ctx.evaluator.cache_info()
        assert info["entries"] > 0
        assert info["evictions"] == 0
        assert info["max_entries"] is None
        assert info["makespan_misses"] == ctx.evaluator.stats.makespan_misses


class _StubEngine:
    """An engine whose replay returns one fixed :class:`Timing`."""

    def __init__(self, timing: Timing) -> None:
        self._timing = timing

    def timing(self, dag, works) -> Timing:
        return self._timing


def test_gating_keeps_the_first_worst_run():
    """Two runs tie on the worst makespan and differ on comp busy time:
    the first one gates (``max()``'s order), so a report's utilization
    never depends on which tied profile came last."""
    first, tied = Timing(2.0, 1.0), Timing(2.0, 1.5)
    runs = [
        (_StubEngine(Timing(1.0, 0.5)), None),
        (_StubEngine(first), None),
        (_StubEngine(tied), None),
    ]
    assert _gating(None, runs) == (1, first)
    assert _gating(None, runs[::-1]) == (0, tied)
