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
from repro.perfmodel.evalcache import Evaluator
from repro.pipeline.schedule import MoEStageCosts, build_timeline
from repro.sim.engine import SimEngine
from repro.systems import (
    FastMoEModel,
    FasterMoEModel,
    MPipeMoEModel,
    PipeMoEModel,
)
from repro.systems.base import SystemContext
from repro.testing.oracles import ColdEvaluator

WORLD = 16
BATCHES = (4096, 16384)


def make_context(enabled: bool, **kwargs) -> SystemContext:
    """A context whose evaluator is memoized (``enabled``) or cold."""
    ctx = SystemContext(world_size=WORLD, **kwargs)
    if not enabled:
        ctx.evaluator = ColdEvaluator(ctx)
    return ctx


SYSTEM_FACTORIES = {
    "fastmoe": lambda ctx: FastMoEModel(ctx),
    "fastermoe": lambda ctx: FasterMoEModel(ctx),
    "pipemoe": lambda ctx: PipeMoEModel(ctx),
    "pipemoe_n1": lambda ctx: PipeMoEModel(ctx, fixed_n=1),
    "mpipemoe": lambda ctx: MPipeMoEModel(ctx),
    "mpipemoe_S2": lambda ctx: MPipeMoEModel(ctx, fixed_n=4, fixed_strategy="S2"),
    "mpipemoe_eq10": lambda ctx: MPipeMoEModel(ctx, fixed_n=4, sim_selection=False),
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
        cold = MPipeMoEModel(
            make_context(enabled=False), fixed_n=4, sim_selection=False
        )
        warm_pick = first.select(8192, 4).strategy.name
        assert warm_pick == cold.choose_strategy(spec, 8192, 4)

    def test_clear_resets_memo(self):
        ctx = make_context(enabled=True)
        spec = get_preset("GPT-XL")
        ctx.evaluator.makespan(spec, 8192, 4, "none")
        misses = ctx.evaluator.stats.makespan_misses
        ctx.evaluator.clear()
        value = ctx.evaluator.makespan(spec, 8192, 4, "none")
        assert ctx.evaluator.stats.makespan_misses == misses + 1
        # Recomputation after clear reproduces the same float.
        ctx.evaluator.clear()
        assert ctx.evaluator.makespan(spec, 8192, 4, "none") == value


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


class TestBoundedMemo:
    """The LRU cap: memory stays bounded, answers stay identical."""

    def _bounded_context(self, max_entries):
        ctx = SystemContext(world_size=WORLD, evaluator_max_entries=max_entries)
        assert ctx.evaluator.max_entries == max_entries
        return ctx

    def test_entries_capped_and_evictions_counted(self):
        ctx = self._bounded_context(4)
        spec = get_preset("GPT-XL")
        for n in (1, 2, 4, 8, 16, 32):
            ctx.evaluator.makespan(spec, 8192, n, "none")
        info = ctx.evaluator.cache_info()
        assert len(ctx.evaluator._makespans) == 4
        assert info["evictions"] > 0

    def test_evicted_entry_recomputes_identically(self):
        bounded = self._bounded_context(2)
        unbounded = SystemContext(world_size=WORLD)
        spec = get_preset("GPT-XL")
        reference = unbounded.evaluator.makespan(spec, 8192, 2, "none")
        assert bounded.evaluator.makespan(spec, 8192, 2, "none") == reference
        for n in (4, 8, 16):  # push n=2 out of the 2-entry memo
            bounded.evaluator.makespan(spec, 8192, n, "none")
        misses = bounded.evaluator.stats.makespan_misses
        assert bounded.evaluator.makespan(spec, 8192, 2, "none") == reference
        assert bounded.evaluator.stats.makespan_misses == misses + 1

    def test_hit_refreshes_recency(self):
        ctx = self._bounded_context(2)
        spec = get_preset("GPT-XL")
        ctx.evaluator.makespan(spec, 8192, 2, "none")
        ctx.evaluator.makespan(spec, 8192, 4, "none")
        ctx.evaluator.makespan(spec, 8192, 2, "none")  # refresh n=2
        ctx.evaluator.makespan(spec, 8192, 8, "none")  # evicts n=4, not n=2
        misses = ctx.evaluator.stats.makespan_misses
        ctx.evaluator.makespan(spec, 8192, 2, "none")
        assert ctx.evaluator.stats.makespan_misses == misses  # still cached

    def test_footprints_and_selectors_respect_the_bound(self):
        # Regression: these two memos were plain dicts — ``max_entries``
        # bounded every other table while a workload sweep grew them
        # without limit (and their evictions never surfaced).
        from repro.perfmodel.workload import WorkloadSpec

        ctx = self._bounded_context(3)
        spec = get_preset("GPT-XL")
        workloads = [
            WorkloadSpec(imbalance=float(skew)) for skew in range(1, 9)
        ]
        for wl in workloads:
            ctx.evaluator.footprint(spec, wl)
            ctx.evaluator.selector(spec, wl)
        assert len(ctx.evaluator._footprints) == 3
        assert len(ctx.evaluator._selectors) == 3
        assert ctx.evaluator._footprints.evictions > 0
        assert ctx.evaluator._selectors.evictions > 0
        info = ctx.evaluator.cache_info()
        assert info["evictions"] >= (
            ctx.evaluator._footprints.evictions
            + ctx.evaluator._selectors.evictions
        )

    def test_bounded_reports_identical_to_unbounded(self):
        spec = get_preset("GPT-XL")
        bounded = MPipeMoEModel(self._bounded_context(3))
        unbounded = MPipeMoEModel(SystemContext(world_size=WORLD))
        for batch in BATCHES:
            assert bounded.evaluate(spec, batch) == unbounded.evaluate(spec, batch)

    def test_max_entries_validation(self):
        with pytest.raises(ValueError, match="max_entries"):
            SystemContext(world_size=WORLD, evaluator_max_entries=0)


class TestCacheInfo:
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
