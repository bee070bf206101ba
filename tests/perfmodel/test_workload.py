"""WorkloadSpec: the routing-aware workload model and its invariants.

Covers the canonical capacity formula (unified with core/dispatch), the
gating-skew load model, the degenerate-identity contract (a neutral
workload is bit-identical to no workload in every engine mode and every
pricing layer), and the byte-width consistency audit.
"""

import math
import struct

import pytest

from repro.comm.cost import NcclCostModel
from repro.config import DGX_A100_CLUSTER, MOE_GPT3_S, MOE_GPT3_XL
from repro.core.dispatch import capacity_for
from repro.hardware.device import A100_SXM_40GB
from repro.hardware.topology import ClusterTopology
from repro.memory.footprint import FootprintModel
from repro.perfmodel.cost import HardwareRates, PerfModel
from repro.perfmodel.placement import PlacementSpec
from repro.perfmodel.workload import (
    DTYPE_BYTES,
    TIMING_DTYPE,
    WorkloadSpec,
    expert_capacity,
)
from repro.pipeline.schedule import (
    GEMM_SATURATION_ROWS,
    MoEStageCosts,
    TIMING_BYTES_PER_ELEM,
    build_timeline,
    compile_timeline,
)
from repro.sim.engine import SimEngine
from repro.systems import FastMoEModel, FasterMoEModel, MPipeMoEModel, PipeMoEModel
from repro.systems.base import SystemContext
from tests.oracles import ColdEvaluator, ReferenceSimEngine

SPEC = MOE_GPT3_S
DEVICE = A100_SXM_40GB


def comm_model(world=64):
    return NcclCostModel(ClusterTopology(DGX_A100_CLUSTER), world)


class TestExpertCapacity:
    def test_dispatch_formula(self):
        # ceil(f * B * k / E)
        assert expert_capacity(2048, 64, 1, 1.0) == 32
        assert expert_capacity(2048, 64, 2, 1.0) == 64
        assert expert_capacity(2000, 64, 1, 1.1) == 35  # ceil(34.375)
        assert expert_capacity(4, 64, 1, 1.0) == 1  # floor of one slot

    def test_validation(self):
        with pytest.raises(ValueError):
            expert_capacity(0, 64, 1, 1.0)
        with pytest.raises(ValueError):
            expert_capacity(16, 64, 1, 0.0)
        with pytest.raises(ValueError):
            expert_capacity(16, 64, 1, float("nan"))
        with pytest.raises(ValueError):
            expert_capacity(16, 64, 1, float("inf"))
        with pytest.raises(ValueError):
            expert_capacity(16, 0, 1, 1.0)
        with pytest.raises(ValueError):
            expert_capacity(16, 64, 0, 1.0)

    def test_core_dispatch_delegates_here(self):
        """One canonical formula: capacity_for == expert_capacity on a
        sweep of awkward (non-divisible) parameters."""
        for batch in (1, 7, 63, 64, 65, 1000, 16384):
            for e in (1, 2, 64, 128):
                for k in (1, 2, 4):
                    for f in (0.25, 1.0, 1.1, 1.25, 2.0):
                        assert capacity_for(batch, e, k, f) == expert_capacity(
                            batch, e, k, f
                        ), (batch, e, k, f)


class TestWorkloadSpecValidation:
    def test_defaults_are_neutral_for_k1_specs(self):
        wl = WorkloadSpec()
        assert wl.resolved_k(SPEC) == SPEC.top_k == 1
        assert wl.bytes_per_elem == DTYPE_BYTES[TIMING_DTYPE]
        assert wl.imbalance == 1.0
        assert wl.capacity_factor is None
        assert not wl.placed

    def test_timing_dtype_matches_schedule_constant(self):
        # The module cannot import the schedule (cycle), so the contract
        # is pinned here instead.
        assert DTYPE_BYTES[TIMING_DTYPE] == TIMING_BYTES_PER_ELEM

    def test_field_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(top_k=0)
        with pytest.raises(ValueError):
            WorkloadSpec(bytes_per_elem=0)
        with pytest.raises(ValueError):
            WorkloadSpec(imbalance=0.5)
        with pytest.raises(ValueError):
            WorkloadSpec(imbalance=float("inf"))
        with pytest.raises(ValueError):
            WorkloadSpec(imbalance=float("nan"))
        with pytest.raises(ValueError):
            WorkloadSpec(capacity_factor=0.0)
        with pytest.raises(ValueError):
            WorkloadSpec(capacity_factor=float("nan"))
        with pytest.raises(ValueError):
            WorkloadSpec(capacity_factor=float("inf"))

    def test_for_dtype(self):
        assert WorkloadSpec.for_dtype("fp32").bytes_per_elem == 4
        assert WorkloadSpec.for_dtype("fp8").bytes_per_elem == 1
        with pytest.raises(ValueError, match="unknown activation dtype"):
            WorkloadSpec.for_dtype("fp12")

    def test_top_k_above_expert_count_rejected(self):
        with pytest.raises(ValueError, match="exceeds num_experts"):
            WorkloadSpec(top_k=65).resolved_k(SPEC)

    def test_hashable_for_memo_keys(self):
        assert hash(WorkloadSpec(top_k=2)) == hash(WorkloadSpec(top_k=2))
        assert WorkloadSpec(top_k=2) != WorkloadSpec(top_k=4)


class TestLoadModel:
    def test_neutral_resolves_to_the_raw_batch(self):
        load = WorkloadSpec().load(SPEC, 4096, 64)
        assert load.device_rows == 4096
        assert isinstance(load.device_rows, int)
        assert load.routed_rows == 4096
        assert load.overflow_rows == 0
        assert load.capacity is None and load.hot_pressure is None

    def test_uniform_top_k_scales_rows_exactly(self):
        load = WorkloadSpec(top_k=4).load(SPEC, 4096, 64)
        assert load.device_rows == 4 * 4096
        assert isinstance(load.device_rows, int)

    def test_load_conservation(self):
        load = WorkloadSpec(imbalance=8.0).load(SPEC, 4096, 64)
        total = load.hot_rows + (SPEC.num_experts - 1) * load.cold_rows
        assert total == pytest.approx(load.routed_rows)
        assert load.hot_rows == pytest.approx(8.0 * 4096 / 64)

    def test_imbalance_inflates_the_bottleneck_device(self):
        uniform = WorkloadSpec().load(SPEC, 4096, 64)
        skewed = WorkloadSpec(imbalance=4.0).load(SPEC, 4096, 64)
        # One expert per rank at E=W=64: the hot rank carries ~4x.
        assert skewed.device_rows == pytest.approx(4 * uniform.device_rows, rel=1e-6)

    def test_experts_per_rank_dilute_the_skew(self):
        at_64 = WorkloadSpec(imbalance=4.0).load(SPEC, 4096, 64).device_rows
        at_8 = WorkloadSpec(imbalance=4.0).load(SPEC, 4096, 8).device_rows
        assert at_8 < at_64  # 8 experts per rank absorb the hot one

    def test_skew_never_prices_below_uniform(self):
        """Regression: non-divisible expert/world geometries must not
        invert the model.  A floored experts-per-rank used to model the
        bottleneck device with fewer experts than any real device holds,
        so E=64 at W=48 priced imbalance=1.001 *below* uniform."""
        for world in (1, 8, 24, 48, 64, 128):  # incl. E % W != 0, W > E
            uniform = WorkloadSpec().load(SPEC, 4096, world).device_rows
            prev = uniform
            for imbalance in (1.001, 2.0, 8.0):
                rows = WorkloadSpec(imbalance=imbalance).load(
                    SPEC, 4096, world
                ).device_rows
                assert rows >= prev, (world, imbalance)
                prev = rows

    def test_single_expert_world_does_not_overcount(self):
        """W > E: the lone expert's host receives the whole routed load
        once — not W copies of it."""
        one_expert = SPEC.with_(num_experts=1, top_k=1)
        load = WorkloadSpec(imbalance=1.0).load(one_expert, 4096, 8)
        assert load.device_rows == 4096
        # "Skew" with a single expert is a no-op: still the whole batch.
        skewed = WorkloadSpec(imbalance=2.0).load(one_expert, 4096, 8)
        assert skewed.device_rows == 4096

    def test_world_one_is_immune_to_skew(self):
        # A single device hosts every expert: skew moves rows between
        # its own experts, never across devices.
        load = WorkloadSpec(imbalance=16.0).load(SPEC, 4096, 1)
        assert load.device_rows == 4096

    def test_imbalance_clamps_at_the_whole_batch(self):
        load = WorkloadSpec(imbalance=1e6).load(SPEC, 4096, 64)
        assert load.hot_rows == 4096.0
        assert load.device_rows == 64 * 4096 / 64 * 64  # W * hot (epr=1)

    def test_capacity_pads_to_the_dispatch_buffer(self):
        wl = WorkloadSpec(capacity_factor=1.5)
        load = wl.load(SPEC, 2048, 8)
        cap = expert_capacity(2048, 64, 1, 1.5)
        assert load.capacity == cap == 48
        assert load.device_rows == 64 * cap  # epr * W * C
        assert load.overflow_rows == 0  # f >= 1, uniform: nothing drops
        assert load.hot_pressure == pytest.approx((2048 / 64) / cap)

    def test_capacity_buffers_are_skew_independent_but_overflow_is_not(self):
        base = WorkloadSpec(capacity_factor=1.0)
        skew = WorkloadSpec(capacity_factor=1.0, imbalance=8.0)
        load_u, load_s = base.load(SPEC, 4096, 64), skew.load(SPEC, 4096, 64)
        # Equal-shaped collectives: padded rows identical...
        assert load_s.device_rows == load_u.device_rows
        # ...but the hot expert spills past its capacity.
        assert load_u.overflow_rows == 0
        assert load_s.overflow_rows > 0
        assert load_s.hot_pressure > 1.0 >= load_u.hot_pressure

    def test_tight_capacity_drops_uniform_load_too(self):
        load = WorkloadSpec(capacity_factor=0.5).load(SPEC, 4096, 64)
        assert load.overflow_rows > 0
        assert load.device_rows < 4096

    def test_per_expert_rows(self):
        load = WorkloadSpec(imbalance=4.0, capacity_factor=1.0).load(SPEC, 4096, 64)
        rows = load.per_expert_rows()
        assert len(rows) == SPEC.num_experts
        assert rows[0] == load.capacity  # hot expert capped at C
        assert all(r == rows[1] for r in rows[2:])


class TestDegenerateIdentity:
    """Satellite: neutral workloads are bit-identical in every mode."""

    def test_stage_costs_identical(self):
        comm = comm_model()
        for spec in (MOE_GPT3_S, MOE_GPT3_XL):
            for batch, n in ((1024, 1), (4096, 4), (16383, 8)):
                plain = MoEStageCosts.compute(spec, batch, n, DEVICE, comm)
                degen = MoEStageCosts.compute(
                    spec, batch, n, DEVICE, comm, workload=WorkloadSpec()
                )
                assert degen == plain

    def test_all_four_engine_modes_identical(self):
        comm = comm_model()
        plain = MoEStageCosts.compute(SPEC, 4096, 4, DEVICE, comm)
        degen = MoEStageCosts.compute(
            SPEC, 4096, 4, DEVICE, comm, workload=WorkloadSpec()
        )
        fast, ref = SimEngine(), ReferenceSimEngine()
        ops_p = build_timeline(plain, 4, "S1")
        ops_d = build_timeline(degen, 4, "S1")
        # recorded
        rec_p, rec_d = fast.run(ops_p), fast.run(ops_d)
        assert rec_d.makespan == rec_p.makespan
        assert [
            (r.name, r.start, r.end) for r in rec_d.records
        ] == [(r.name, r.start, r.end) for r in rec_p.records]
        # records-free
        assert (
            fast.run(build_timeline(degen, 4, "S1"), record=False).makespan
            == rec_p.makespan
        )
        # compiled
        compiled = compile_timeline(4, "S1")
        assert compiled.makespan(degen) == compiled.makespan(plain)
        # reference engine
        assert ref.run(ops_d).makespan == ref.run(ops_p).makespan

    def test_evaluator_paths_identical(self):
        ctx = SystemContext(world_size=64)
        ev = ctx.evaluator
        neutral = WorkloadSpec()
        for strategy in ("none", "S1", "S3"):
            assert ev.makespan(SPEC, 8192, 4, strategy, workload=neutral) == \
                ev.makespan(SPEC, 8192, 4, strategy)
        assert ev.simulate(SPEC, 8192, 4, "S1", workload=neutral).makespan == \
            ev.simulate(SPEC, 8192, 4, "S1").makespan
        assert ev.footprint_bytes(SPEC, 8192, True, 4, workload=neutral) == \
            ev.footprint_bytes(SPEC, 8192, True, 4)
        plain_sel = ev.selector(SPEC).select(8192, 4)
        degen_sel = ev.selector(SPEC, neutral).select(8192, 4)
        assert (plain_sel.strategy, plain_sel.cost) == (
            degen_sel.strategy, degen_sel.cost
        )

    def test_disabled_evaluator_cold_path_identical(self):
        ctx = SystemContext(world_size=64)
        ctx.evaluator = ColdEvaluator(ctx)
        assert ctx.evaluator.makespan(SPEC, 8192, 4, "S1",
                                      workload=WorkloadSpec()) == \
            ctx.evaluator.makespan(SPEC, 8192, 4, "S1")

    def test_system_reports_identical(self):
        for model_cls in (FastMoEModel, FasterMoEModel, PipeMoEModel,
                          MPipeMoEModel):
            ctx = SystemContext(world_size=64)
            plain = model_cls(ctx).evaluate(SPEC, 8192)
            degen = model_cls(SystemContext(world_size=64)).evaluate(
                SPEC, 8192, workload=WorkloadSpec()
            )
            assert degen == plain, model_cls.__name__

    def test_footprint_model_identical(self):
        plain = FootprintModel(SPEC, 8)
        degen = FootprintModel(SPEC, 8, workload=WorkloadSpec())
        for batch in (64, 4096, 16383):
            assert degen.total_bytes(batch) == plain.total_bytes(batch)
            assert degen.total_bytes(batch, pipelined=True, reuse_n=4) == \
                plain.total_bytes(batch, pipelined=True, reuse_n=4)
            assert degen.saving_ratio(batch, 4) == plain.saving_ratio(batch, 4)

    def test_perf_model_identical(self):
        from repro.memory.strategies import STRATEGIES

        rates = HardwareRates.from_cluster(DEVICE, comm_model())
        plain = PerfModel(SPEC, rates)
        degen = PerfModel(SPEC, rates, workload=WorkloadSpec(), world_size=64)
        for name in ("none", "S1", "S2", "S3", "S4"):
            assert degen.iteration_cost(STRATEGIES[name], 8192, 4) == \
                plain.iteration_cost(STRATEGIES[name], 8192, 4)


class TestByteWidthConsistency:
    """Satellite: one dtype prices comm AND memcpy, never a mix."""

    def test_workload_dtype_reaches_every_byte_term(self):
        comm = comm_model()
        wl = WorkloadSpec.for_dtype("fp32")
        costs = MoEStageCosts.compute(SPEC, 4096, 4, DEVICE, comm, workload=wl)
        b, m, h = 1024, SPEC.d_model, SPEC.d_hidden
        assert costs.s_time == comm.alltoall_time(float(b * m * 4))
        assert costs.p2p_s_time == comm.decomposed_alltoall_time(float(b * m * 4))
        assert costs.offload_tdi_time == DEVICE.memcpy_time(b * m * 4)
        assert costs.offload_tm_time == DEVICE.memcpy_time(b * h * 4)

        # from_rows inlines the device and collective helpers: all seven
        # fields stay bit-identical to them, on one GPU, on 64, and
        # against a placement's per-rank traffic view.
        placed = WorkloadSpec(
            imbalance=4.0, placement=PlacementSpec(strategy="round_robin")
        )
        cases = [(1, None), (64, None)]
        cases.append((64, placed.load(SPEC, 4096, 64).traffic()))
        for world, traffic in cases:
            comm = comm_model(world)
            for rows, n, bpe, derate in ((4096, 4, 4, 1.0), (9001, 3, 1, 0.7)):
                got = MoEStageCosts.from_rows(
                    SPEC, rows, n, DEVICE, comm, bpe, derate, traffic
                )
                b = -(-rows // n)
                rate = derate * (b / (b + GEMM_SATURATION_ROWS))
                flops = 2.0 * b * m * h
                nbytes = float(b * m * bpe)
                expected = MoEStageCosts(
                    s_time=comm.alltoall_time(nbytes, traffic=traffic),
                    c_fw_time=DEVICE.gemm_time(2 * flops, num_kernels=2) / rate,
                    c_bw_time=DEVICE.gemm_time(4 * flops, num_kernels=4) / rate,
                    recompute_time=DEVICE.gemm_time(flops, num_kernels=1) / rate,
                    offload_tdi_time=DEVICE.memcpy_time(b * m * bpe),
                    offload_tm_time=DEVICE.memcpy_time(b * h * bpe),
                    p2p_s_time=comm.decomposed_alltoall_time(
                        nbytes, traffic=traffic
                    ),
                )
                for field in vars(expected):
                    assert struct.pack("<d", getattr(got, field)) == struct.pack(
                        "<d", getattr(expected, field)
                    ), (world, traffic is not None, rows, field)

    def test_perf_model_reads_the_workload_width(self):
        rates = HardwareRates.from_cluster(DEVICE, comm_model())
        model = PerfModel(SPEC, rates, workload=WorkloadSpec.for_dtype("fp32"))
        assert model.bytes_per_elem == 4
        assert model.v_comm(512) == 512 * SPEC.d_model * 4
        assert PerfModel(SPEC, rates).bytes_per_elem == TIMING_BYTES_PER_ELEM

    def test_wider_dtype_slows_comm_bound_points(self):
        ctx = SystemContext(world_size=64)
        half = ctx.evaluator.makespan(SPEC, 8192, 4, "none")
        full = ctx.evaluator.makespan(
            SPEC, 8192, 4, "none", workload=WorkloadSpec.for_dtype("fp32")
        )
        quarter = ctx.evaluator.makespan(
            SPEC, 8192, 4, "none", workload=WorkloadSpec.for_dtype("fp8")
        )
        assert quarter < half < full


class TestRoutingShiftsSelection:
    def test_skew_inflates_iteration_time(self):
        ctx = SystemContext(world_size=64)
        model = MPipeMoEModel(ctx)
        plain = model.evaluate(MOE_GPT3_XL, 8192)
        skewed = model.evaluate(
            MOE_GPT3_XL, 8192, workload=WorkloadSpec(imbalance=4.0)
        )
        assert skewed.iteration_time > plain.iteration_time

    def test_skew_shifts_the_selected_granularity(self):
        """A 4x-hot expert at one-expert-per-GPU scale quadruples the
        bottleneck rows — Algorithm 1 must coarsen n like a 4x batch."""
        ctx = SystemContext(world_size=64)
        model = PipeMoEModel(ctx)
        n_uniform = model.choose_n(MOE_GPT3_XL, 8192)
        n_skewed = model.choose_n(
            MOE_GPT3_XL, 8192, WorkloadSpec(imbalance=4.0)
        )
        assert n_skewed > n_uniform

    def test_top_k_scales_memory_only_on_dispatch_side(self):
        fp_k1 = FootprintModel(MOE_GPT3_XL, 64)
        fp_k2 = FootprintModel(MOE_GPT3_XL, 64, workload=WorkloadSpec(top_k=2))
        assert fp_k2.activations_bytes(8192) > fp_k1.activations_bytes(8192)
        # TI/TO stay at B rows, so it is less than a full 2x.
        assert fp_k2.activations_bytes(8192) < 2 * fp_k1.activations_bytes(8192)
