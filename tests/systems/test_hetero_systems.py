"""System models under heterogeneous contexts.

The acceptance contract of the hetero subsystem at the systems layer:

* a degenerate (all-identical) HeteroClusterSpec reproduces the
  homogeneous reports bit for bit across all four system models;
* a single 0.5x-compute straggler measurably shifts the granularity
  Algorithm 1 selects (n=8 -> n=4 at the pinned operating point);
* node-level skew shifts both the trial-based and the Eq. 10
  closed-form strategy choices;
* the memory gate follows the smallest device in a mixed pool.
"""

import dataclasses

import pytest

from repro.config import MOE_GPT3_XL, get_preset
from repro.hardware.device import A100_SXM_40GB, V100_SXM_32GB
from repro.hardware.hetero import (
    DeviceRates,
    HeteroClusterSpec,
    StragglerModel,
    distinct_profiles,
)
from repro.perfmodel.placement import PlacementSpec
from repro.perfmodel.workload import WorkloadSpec
from repro.systems import (
    FastMoEModel,
    FasterMoEModel,
    MPipeMoEModel,
    PipeMoEModel,
)
from repro.systems.base import SystemContext
from tests.oracles import ColdEvaluator
from tests.perfmodel.test_evalcache import Eq10Pick

WORLD = 64
SPEC = get_preset("GPT-XL")
#: Operating point where the 0.5x single-GPU straggler shifts n (8 -> 4);
#: pinned by benchmarks/bench_straggler_sensitivity.py's gate as well.
GATE_BATCH = 24576


def straggler_context(kind="single-slow-gpu", severity=0.5, **kwargs):
    hetero = StragglerModel(kind, severity=severity, **kwargs).build()
    return SystemContext(world_size=WORLD, hetero=hetero)


SYSTEM_FACTORIES = (
    lambda ctx: FastMoEModel(ctx),
    lambda ctx: FasterMoEModel(ctx),
    lambda ctx: PipeMoEModel(ctx),
    lambda ctx: MPipeMoEModel(ctx),
    lambda ctx: Eq10Pick(ctx),
)


class TestDegenerateHeteroReports:
    @pytest.mark.parametrize("factory", SYSTEM_FACTORIES)
    def test_reports_bit_identical_to_homogeneous(self, factory):
        plain = factory(SystemContext(world_size=16))
        degenerate = factory(
            SystemContext(world_size=16, hetero=HeteroClusterSpec())
        )
        for batch in (4096, 16384):
            assert degenerate.evaluate(SPEC, batch) == plain.evaluate(SPEC, batch)

    def test_uniform_straggler_scenario_is_degenerate(self):
        ctx = straggler_context("uniform", severity=0.5)
        plain = SystemContext(world_size=WORLD)
        assert MPipeMoEModel(ctx).evaluate(SPEC, 16384) == MPipeMoEModel(
            plain
        ).evaluate(SPEC, 16384)


class TestStragglerShiftsSelection:
    def test_half_speed_straggler_shifts_granularity(self):
        """The ISSUE acceptance: 0.5x compute on one of 64 GPUs moves the
        Algorithm 1 choice at B=24576 from n=8 to a coarser pipeline."""
        healthy = PipeMoEModel(SystemContext(world_size=WORLD))
        skewed = PipeMoEModel(straggler_context(severity=0.5))
        n_healthy = healthy.choose_n(SPEC, GATE_BATCH)
        n_skewed = skewed.choose_n(SPEC, GATE_BATCH)
        assert n_healthy == 8
        assert n_skewed == 4

    def test_iteration_time_monotone_in_severity(self):
        times = []
        for severity in (1.0, 0.8, 0.6, 0.4):
            report = MPipeMoEModel(straggler_context(severity=severity)).evaluate(
                SPEC, 16384
            )
            times.append(report.iteration_time)
        assert times == sorted(times)
        assert times[-1] > times[0] * 1.5  # 0.4x straggler really bites

    def test_slow_node_shifts_both_strategy_selectors(self):
        plain = SystemContext(world_size=WORLD)
        skewed = straggler_context("slow-node", severity=0.4)
        sim_plain = MPipeMoEModel(plain).evaluate(SPEC, GATE_BATCH).strategy
        sim_skewed = MPipeMoEModel(skewed).evaluate(SPEC, GATE_BATCH).strategy
        assert sim_plain == "S1" and sim_skewed == "S3"
        n = 4
        eq10_plain = plain.evaluator.selector(SPEC).select(GATE_BATCH, n)
        eq10_skewed = skewed.evaluator.selector(SPEC).select(GATE_BATCH, n)
        assert eq10_plain.strategy.name == "S1"
        assert eq10_skewed.strategy.name == "S3"

    def test_degraded_link_inflates_comm_for_everyone(self):
        """The collective gates on the slowest link: one degraded NIC
        lowers the whole context's All-to-All bandwidth."""
        plain = SystemContext(world_size=WORLD)
        skewed = straggler_context("degraded-link", severity=0.5)
        assert skewed.sim_profiles == ()  # no comp/mem skew...
        assert skewed.topology.alltoall_bandwidth(WORLD) == pytest.approx(
            plain.topology.alltoall_bandwidth(WORLD) * 0.5
        )
        t_plain = plain.evaluator.makespan(SPEC, 16384, 4, "none")
        t_skewed = skewed.evaluator.makespan(SPEC, 16384, 4, "none")
        assert t_skewed > t_plain


class TestMixedDevicePool:
    def test_v100_in_the_pool_slows_the_iteration(self):
        mixed = HeteroClusterSpec.of(devices={5: V100_SXM_32GB})
        plain = SystemContext(world_size=WORLD)
        skewed = SystemContext(world_size=WORLD, hetero=mixed)
        t_plain = plain.evaluator.makespan(SPEC, 16384, 4, "none")
        t_mixed = skewed.evaluator.makespan(SPEC, 16384, 4, "none")
        # V100 sustains ~0.36x of the A100 GEMM rate; compute-bound
        # stages stretch accordingly.
        assert t_mixed > t_plain * 1.3

    def test_rank_rates_follow_each_rank(self):
        """Per-rank (comp, mem) profiles, resolved once, in rank order;
        comm is stripped like in the device profiles."""
        mixed = HeteroClusterSpec.of(
            devices={5: V100_SXM_32GB}, rates={9: DeviceRates(comp=0.5, comm=0.3)}
        )
        ctx = SystemContext(world_size=16, hetero=mixed)
        assert len(ctx.rank_rates) == 16
        v100 = mixed.rates_for(5)
        assert v100.comp < 1.0
        assert ctx.rank_rates[5] == DeviceRates(comp=v100.comp, mem=v100.mem)
        assert ctx.rank_rates[9] == DeviceRates(comp=0.5)
        others = set(ctx.rank_rates[:5] + ctx.rank_rates[6:9] + ctx.rank_rates[10:])
        assert others == {DeviceRates()}
        assert ctx.rank_rates == mixed.rank_profiles(16)
        # The device profiles are the rank profiles, first seen first.
        assert ctx.sim_profiles == distinct_profiles(mixed.rank_profiles(16)) == (
            DeviceRates(),
            ctx.rank_rates[5],
            DeviceRates(comp=0.5),
        )
        assert SystemContext(world_size=16).rank_rates == ()

    def test_memory_gate_follows_the_smallest_device(self):
        ctx_probe = SystemContext(world_size=16)
        needed = ctx_probe.footprint(MOE_GPT3_XL).total_bytes(
            4096, pipelined=True, reuse_n=4
        )
        tiny = dataclasses.replace(
            A100_SXM_40GB, name="A100-tiny", memory_bytes=needed // 2
        )
        mixed = HeteroClusterSpec.of(devices={3: tiny})
        ctx = SystemContext(world_size=16, hetero=mixed)
        assert ctx.device_memory_bytes == needed // 2
        assert not ctx.evaluator.fits(MOE_GPT3_XL, 4096, 4)
        with pytest.raises(MemoryError, match="no reuse strategy fits"):
            MPipeMoEModel(ctx, fixed_n=4).evaluate(MOE_GPT3_XL, 4096)


#: Seed routing plus two placed workloads: per-rank (rows, profile) runs.
WORKLOADS = {
    "seed": None,
    "round_robin": WorkloadSpec(imbalance=4.0, placement=PlacementSpec.round_robin()),
    "shadowed": WorkloadSpec(imbalance=4.0, placement=PlacementSpec.shadowed()),
}
SKEWS = [("single-slow-gpu", 0.5), ("slow-node", 0.6), ("degraded-link", 0.5),
         ("random-jitter", 0.7)]
MODELS = [FastMoEModel, FasterMoEModel, PipeMoEModel, MPipeMoEModel]


def _skew_case(kind, severity, workload, model):
    # MPipeMoE on seed routing keeps its original "kind-severity" id.
    if workload == "seed" and model is MPipeMoEModel:
        case_id = f"{kind}-{severity}"
    else:
        case_id = f"{kind}-{severity}-{workload}-{model.name}"
    return pytest.param(kind, severity, workload, model, id=case_id)


class TestWarmEqualsColdUnderSkew:
    """The memoized fast path must equal cold evaluation under skew too.

    The warm reports come from replayed schedules; the cold ones from
    recorded runs, so this also pins ``comp_utilization`` to the records.
    """

    @pytest.mark.parametrize(
        "kind,severity,workload,model",
        [
            _skew_case(kind, severity, workload, model)
            for kind, severity in SKEWS
            for workload in WORKLOADS
            for model in MODELS
        ],
    )
    def test_reports_identical(self, kind, severity, workload, model):
        workload = WORKLOADS[workload]

        def make(enabled):
            ctx = straggler_context(kind, severity=severity)
            if not enabled:
                ctx.evaluator = ColdEvaluator(ctx)
            return model(ctx)

        cold, warm = make(False), make(True)
        for batch in (8192, 24576):
            point = (SPEC, batch, workload)
            assert warm.evaluate(*point) == cold.evaluate(*point)
            assert warm.evaluate(*point) == cold.evaluate(*point)
