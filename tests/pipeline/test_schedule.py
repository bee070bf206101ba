"""Timing-layer schedule construction and its qualitative behaviour."""

import pytest

from repro.comm.cost import NcclCostModel
from repro.config import DGX_A100_CLUSTER, MOE_GPT3_XL
from repro.hardware.device import A100_SXM_40GB
from repro.hardware.interference import StreamKind
from repro.hardware.topology import ClusterTopology
from repro.pipeline.schedule import MoEStageCosts, build_timeline, timeline_makespan


@pytest.fixture(scope="module")
def comm():
    return NcclCostModel(ClusterTopology(DGX_A100_CLUSTER), 64)


def costs_for(batch=8192, n=4, comm=None, **kw):
    return MoEStageCosts.compute(
        MOE_GPT3_XL, batch, n, A100_SXM_40GB, comm, **kw
    )


class TestStageCosts:
    def test_durations_positive(self, comm):
        c = costs_for(comm=comm)
        for field in (
            "s_time", "c_fw_time", "c_bw_time", "recompute_time",
            "offload_tdi_time", "offload_tm_time", "p2p_s_time",
        ):
            assert getattr(c, field) > 0

    def test_backward_twice_forward_compute(self, comm):
        c = costs_for(comm=comm)
        # 4 GEMMs vs 2 GEMMs (launch overhead makes it slightly more).
        assert c.c_bw_time == pytest.approx(2 * c.c_fw_time, rel=0.01)

    def test_tm_offload_is_h_over_m_times_tdi(self, comm):
        # Net of the fixed launch overhead, TM's PCIe copy is H/M times
        # TDI's (the "four times more data" note under Eq. 9).
        c = costs_for(comm=comm)
        launch = A100_SXM_40GB.kernel_launch_overhead
        ratio = MOE_GPT3_XL.d_hidden / MOE_GPT3_XL.d_model
        assert c.offload_tm_time - launch == pytest.approx(
            ratio * (c.offload_tdi_time - launch), rel=1e-9
        )

    def test_p2p_slower_than_fused(self, comm):
        c = costs_for(comm=comm)
        assert c.p2p_s_time > c.s_time

    def test_gemm_derate_slows_compute_only(self, comm):
        fast = costs_for(comm=comm)
        slow = costs_for(comm=comm, gemm_derate=0.5)
        assert slow.c_fw_time == pytest.approx(2 * fast.c_fw_time)
        assert slow.s_time == fast.s_time

    def test_validation(self, comm):
        with pytest.raises(ValueError):
            costs_for(batch=0, comm=comm)
        with pytest.raises(ValueError):
            costs_for(comm=comm, gemm_derate=0.0)


def forward(ops):
    """The forward half of a timeline: every op listed before ``loss``."""
    return ops[: [o.name for o in ops].index("loss")]


class TestTimelineStructure:
    def test_forward_op_counts(self, comm):
        c = costs_for(comm=comm, n=4)
        ops = forward(build_timeline(c, 4, strategy="none"))
        tags = [o.tag for o in ops]
        assert tags.count("S") == 4 and tags.count("C") == 4 and tags.count("R") == 4

    def test_offload_strategy_adds_mem_ops(self, comm):
        c = costs_for(comm=comm, n=4)
        ops = build_timeline(c, 4, strategy="S1")
        mems = [o for o in ops if o.stream == StreamKind.MEM]
        # fw: 2 offloads per partition (TDI+TM); bw: 2 prefetches.
        assert len(mems) == 4 * 4

    def test_s4_has_no_mem_ops_but_extra_comm(self, comm):
        c = costs_for(comm=comm, n=4)
        ops = build_timeline(c, 4, strategy="S4")
        assert not [o for o in ops if o.stream == StreamKind.MEM]
        recomms = [o for o in ops if o.name.startswith("S'")]
        assert len(recomms) == 4

    def test_comm_lane_alternates_s_r(self, comm):
        c = costs_for(comm=comm, n=4)
        ops = forward(build_timeline(c, 4, strategy="none"))
        comm_ops = [o.name for o in ops if o.stream == StreamKind.COMM]
        assert comm_ops == ["S0", "S1", "R0", "S2", "R1", "S3", "R2", "R3"]

    def test_n1_timeline_valid(self, comm):
        c = costs_for(comm=comm, n=1)
        ops = build_timeline(c, 1, strategy="none")
        res = timeline_makespan(ops)
        assert res.makespan > 0


class TestTimelineBehaviour:
    def test_pipelining_beats_sequential(self, comm):
        c = costs_for(batch=16384, n=4, comm=comm)
        seq = build_timeline(
            MoEStageCosts.compute(MOE_GPT3_XL, 16384, 1, A100_SXM_40GB, comm),
            1, sequential=True,
        )
        pipe = build_timeline(c, 4)
        assert timeline_makespan(pipe).makespan < timeline_makespan(seq).makespan

    def test_very_fine_granularity_hurts(self, comm):
        """Launch overhead eventually dominates (paper Sec. II)."""
        times = {}
        for n in (1, 4, 256):
            cs = MoEStageCosts.compute(MOE_GPT3_XL, 4096, n, A100_SXM_40GB, comm)
            times[n] = timeline_makespan(build_timeline(cs, n)).makespan
        assert times[4] < times[1]
        assert times[256] > times[4]

    def test_backward_included_increases_makespan(self, comm):
        c = costs_for(comm=comm, n=2)
        res = timeline_makespan(build_timeline(c, 2))
        # The zero-work loss op waits on every forward op; every
        # backward op waits on it.
        fw = next(r.end for r in res.records if r.name == "loss")
        assert res.makespan > 1.5 * fw

    def test_strategy_overhead_ordering_when_comm_bound(self, comm):
        """At 64 GPUs communication dominates; S2 (extra comm + PCIe)
        should cost more than S3 (recompute + light PCIe) — Fig. 13."""
        c = costs_for(batch=16384, n=4, comm=comm)
        t = {
            s: timeline_makespan(build_timeline(c, 4, strategy=s)).makespan
            for s in ("none", "S2", "S3")
        }
        assert t["S2"] >= t["S3"]
        assert t["S3"] >= t["none"] * 0.999

    def test_decomposed_comm_slower(self, comm):
        c = costs_for(comm=comm, n=2)
        fused = timeline_makespan(build_timeline(c, 2)).makespan
        p2p = timeline_makespan(build_timeline(c, 2, decomposed_comm=True)).makespan
        assert p2p > fused
