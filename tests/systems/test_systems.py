"""System models: the qualitative relations every paper figure relies on."""

import pytest

from repro.config import MOE_BERT_L, MOE_GPT3_S, MOE_GPT3_XL
from repro.systems import (
    FastMoEModel,
    FasterMoEModel,
    MPipeMoEModel,
    PipeMoEModel,
)
from repro.systems.base import SystemContext


@pytest.fixture(scope="module")
def ctx():
    return SystemContext(world_size=64)


class TestFastMoE:
    def test_report_fields(self, ctx):
        rep = FastMoEModel(ctx).evaluate(MOE_GPT3_S, 8192)
        assert rep.system == "FastMoE"
        assert rep.iteration_time > 0
        assert rep.peak_memory_bytes > 0
        assert rep.num_partitions == 1

    def test_time_grows_with_batch(self, ctx):
        m = FastMoEModel(ctx)
        times = [m.evaluate(MOE_GPT3_S, b).iteration_time for b in (4096, 8192, 16384)]
        assert times == sorted(times)

    def test_memory_grows_with_batch(self, ctx):
        m = FastMoEModel(ctx)
        mems = [m.evaluate(MOE_GPT3_S, b).peak_memory_bytes for b in (4096, 16384)]
        assert mems[1] > mems[0]


class TestFasterMoE:
    def test_shadowing_memory_overhead(self, ctx):
        """Fig. 9: FasterMoE uses more memory than FastMoE."""
        for spec in (MOE_GPT3_S, MOE_BERT_L, MOE_GPT3_XL):
            fast = FastMoEModel(ctx).evaluate(spec, 8192)
            faster = FasterMoEModel(ctx).evaluate(spec, 8192)
            assert faster.peak_memory_bytes > fast.peak_memory_bytes

    def test_fixed_granularity(self, ctx):
        m = FasterMoEModel(ctx, fixed_n=2)
        for b in (4096, 16384):
            assert m.evaluate(MOE_GPT3_S, b).num_partitions == 2

    def test_invalid_fixed_n(self):
        with pytest.raises(ValueError):
            FasterMoEModel(fixed_n=0)


class TestPipeMoE:
    def test_adaptive_n_grows_with_batch(self, ctx):
        """The Fig. 12 monotonicity, via Algorithm 1 on simulated trials."""
        m = PipeMoEModel(ctx)
        ns = [m.evaluate(MOE_GPT3_XL, b).num_partitions for b in (2048, 8192, 32768)]
        assert ns == sorted(ns)
        assert ns[-1] > 1

    def test_fixed_n_label(self, ctx):
        m = PipeMoEModel(ctx, fixed_n=4)
        assert m.name == "PipeMoE(n=4)"
        assert m.evaluate(MOE_GPT3_S, 8192).num_partitions == 4

    def test_adaptive_at_least_as_good_as_any_fixed(self, ctx):
        """Fig. 12: the adaptive dashed line tracks the best fixed n."""
        adaptive = PipeMoEModel(ctx)
        for batch in (4096, 16384):
            t_adaptive = adaptive.evaluate(MOE_GPT3_XL, batch).iteration_time
            for n in (1, 2, 4, 8):
                t_fixed = PipeMoEModel(ctx, fixed_n=n).evaluate(
                    MOE_GPT3_XL, batch
                ).iteration_time
                assert t_adaptive <= t_fixed * 1.0001

    def test_speedup_over_fastmoe(self, ctx):
        """Fig. 8's headline: PipeMoE beats FastMoE at large batches."""
        for spec in (MOE_GPT3_S, MOE_BERT_L, MOE_GPT3_XL):
            fast = FastMoEModel(ctx).evaluate(spec, 16384)
            pipe = PipeMoEModel(ctx).evaluate(spec, 16384)
            assert pipe.iteration_time < fast.iteration_time

    def test_speedup_over_fastermoe(self, ctx):
        for spec in (MOE_GPT3_S, MOE_GPT3_XL):
            faster = FasterMoEModel(ctx).evaluate(spec, 16384)
            pipe = PipeMoEModel(ctx).evaluate(spec, 16384)
            assert pipe.iteration_time < faster.iteration_time


class TestMPipeMoE:
    def test_memory_reduction_vs_fastmoe(self, ctx):
        """Fig. 9: MPipeMoE's footprint is below FastMoE's."""
        for spec in (MOE_GPT3_S, MOE_BERT_L, MOE_GPT3_XL):
            fast = FastMoEModel(ctx).evaluate(spec, 16384)
            mpipe = MPipeMoEModel(ctx).evaluate(spec, 16384)
            assert mpipe.peak_memory_bytes < fast.peak_memory_bytes

    def test_memory_reduction_vs_fastermoe_larger(self, ctx):
        """The paper reports a larger reduction vs FasterMoE (47% vs 40%)."""
        spec = MOE_GPT3_XL
        faster = FasterMoEModel(ctx).evaluate(spec, 16384)
        fast = FastMoEModel(ctx).evaluate(spec, 16384)
        mpipe = MPipeMoEModel(ctx).evaluate(spec, 16384)
        assert (
            mpipe.peak_memory_bytes / faster.peak_memory_bytes
            < mpipe.peak_memory_bytes / fast.peak_memory_bytes
        )

    def test_still_faster_than_baselines(self, ctx):
        """Fig. 9 polyline: speedup survives the reuse overhead."""
        spec = MOE_GPT3_XL
        mpipe = MPipeMoEModel(ctx).evaluate(spec, 16384)
        fast = FastMoEModel(ctx).evaluate(spec, 16384)
        assert mpipe.iteration_time < fast.iteration_time

    def test_slower_than_pure_pipemoe(self, ctx):
        """Sec. V-G: MPipeMoE is second to PipeMoE in pure speed."""
        spec = MOE_GPT3_XL
        pipe = PipeMoEModel(ctx).evaluate(spec, 16384)
        mpipe = MPipeMoEModel(ctx).evaluate(spec, 16384)
        assert mpipe.iteration_time >= pipe.iteration_time * 0.999

    def test_fixed_strategy_label(self, ctx):
        m = MPipeMoEModel(ctx, fixed_strategy="S3")
        rep = m.evaluate(MOE_GPT3_S, 8192)
        assert m.name == "MPipeMoE(S3)"
        if rep.num_partitions >= 2:
            assert rep.strategy == "S3"

    def test_adaptive_strategy_at_most_fixed(self, ctx):
        """Fig. 13: the selected strategy's overhead tracks the best Sx."""
        spec = MOE_GPT3_XL
        adaptive = MPipeMoEModel(ctx, fixed_n=4).evaluate(spec, 16384)
        fixed_times = [
            MPipeMoEModel(ctx, fixed_n=4, fixed_strategy=s).evaluate(
                spec, 16384
            ).iteration_time
            for s in ("S1", "S2", "S3", "S4")
        ]
        assert adaptive.iteration_time <= min(fixed_times) * 1.05

    def test_invalid_strategy(self):
        with pytest.raises(KeyError):
            MPipeMoEModel(fixed_strategy="S7")
