"""MPipeMoE's trial-based strategy selection against the closed-form
Eq. 10 pick (the sweep's ``eq10`` objective)."""

import pytest

from repro.config import MOE_GPT3_XL
from repro.systems import MPipeMoEModel
from repro.systems.base import SystemContext

REUSE = ("S1", "S2", "S3", "S4")


@pytest.fixture(scope="module")
def ctx():
    return SystemContext(world_size=64)


def eq10_pick(ctx, batch, n=4):
    return ctx.evaluator.selector(MOE_GPT3_XL).select(batch, n).strategy.name


class TestSelectionPaths:
    def test_strategy_is_the_fastest_simulated_trial(self, ctx):
        """With no pinned strategy the pick is the reuse strategy whose
        simulated makespan is lowest, the first in S1-S4 order on a tie."""
        model = MPipeMoEModel(ctx, fixed_n=4)
        for batch in (4096, 16384):
            times = {
                name: ctx.evaluator.makespan(MOE_GPT3_XL, batch, 4, name)
                for name in REUSE
            }
            fastest = min(REUSE, key=times.__getitem__)
            assert model.choose_strategy(MOE_GPT3_XL, batch, 4) == fastest
            assert model.evaluate(MOE_GPT3_XL, batch).strategy == fastest

    def test_both_paths_produce_valid_strategies(self, ctx):
        rep = MPipeMoEModel(ctx, fixed_n=4).evaluate(MOE_GPT3_XL, 16384)
        assert rep.strategy in REUSE
        assert eq10_pick(ctx, 16384) in REUSE

    def test_sim_selection_never_worse_than_eq10(self, ctx):
        """The trial-based choice optimizes the simulated objective, so it
        can only match or beat the closed-form pick on that objective."""
        trial = MPipeMoEModel(ctx, fixed_n=4)
        for batch in (4096, 16384):
            t_trial = trial.evaluate(MOE_GPT3_XL, batch).iteration_time
            t_closed = ctx.evaluator.makespan(
                MOE_GPT3_XL, batch, 4, eq10_pick(ctx, batch)
            )
            assert t_trial <= t_closed * 1.0001

    def test_memory_identical_across_paths(self, ctx):
        """Eq. 5 savings depend on n only, not on which strategy restores."""
        rep = MPipeMoEModel(ctx, fixed_n=4).evaluate(MOE_GPT3_XL, 16384)
        assert rep.peak_memory_bytes == ctx.evaluator.footprint_bytes(
            MOE_GPT3_XL, 16384, pipelined=True, reuse_n=4
        )
        assert rep.peak_memory_bytes == ctx.evaluator.selector(
            MOE_GPT3_XL
        ).select(16384, 4).memory_bytes

    def test_n1_degenerates_to_none(self, ctx):
        rep = MPipeMoEModel(ctx, fixed_n=1).evaluate(MOE_GPT3_XL, 8192)
        assert rep.strategy == "none"
