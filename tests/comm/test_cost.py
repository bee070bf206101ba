"""Collective cost model: scaling with volume, world size, and the
fused-vs-decomposed gap the paper builds on (Fig. 5)."""

import pytest

from repro.comm.cost import (
    NCCL_LATENCY,
    P2P_LATENCY,
    STRAGGLER_FACTOR,
    NcclCostModel,
)
from repro.config import ClusterSpec, DGX_A100_CLUSTER
from repro.hardware.topology import ClusterTopology, LinkOverrides


@pytest.fixture(scope="module")
def topo():
    return ClusterTopology(DGX_A100_CLUSTER)


class TestFusedAllToAll:
    def test_world_one_free(self, topo):
        assert NcclCostModel(topo, 1).alltoall_time(1 << 20) == 0.0

    def test_latency_floor(self, topo):
        assert NcclCostModel(topo, 8).alltoall_time(0) == pytest.approx(NCCL_LATENCY)

    def test_linear_in_bytes(self, topo):
        m = NcclCostModel(topo, 8)
        t1 = m.alltoall_time(1 << 24) - NCCL_LATENCY
        t2 = m.alltoall_time(1 << 25) - NCCL_LATENCY
        assert t2 == pytest.approx(2 * t1, rel=1e-9)

    def test_slower_across_nodes(self, topo):
        intra = NcclCostModel(topo, 8).alltoall_time(1 << 26)
        inter = NcclCostModel(topo, 64).alltoall_time(1 << 26)
        assert inter > intra

    def test_negative_bytes_rejected(self, topo):
        with pytest.raises(ValueError):
            NcclCostModel(topo, 8).alltoall_time(-1)

    def test_closed_form(self, topo):
        # One launch latency, then (W-1)/W of the rank's volume at the
        # topology's All-to-All rate.
        nbytes = 1 << 26
        for world in (2, 8, 12, 64):
            expected = NCCL_LATENCY + nbytes * (world - 1) / world / (
                topo.alltoall_bandwidth(world)
            )
            got = NcclCostModel(topo, world).alltoall_time(nbytes)
            assert got == pytest.approx(expected, rel=1e-12), world


class TestDecomposedAllToAll:
    def test_decomposed_slower_than_fused(self, topo):
        """The Fig. 5 argument: P2P decomposition loses to fused NCCL."""
        for world in (8, 16, 64):
            m = NcclCostModel(topo, world)
            nbytes = 1 << 24
            assert m.decomposed_alltoall_time(nbytes) > m.alltoall_time(nbytes)

    def test_latency_term_scales_with_world(self, topo):
        # At zero volume the decomposed form still pays per-pair latency.
        t8 = NcclCostModel(topo, 8).decomposed_alltoall_time(0)
        t64 = NcclCostModel(topo, 64).decomposed_alltoall_time(0)
        assert t64 > t8

    def test_world_one_free(self, topo):
        assert NcclCostModel(topo, 1).decomposed_alltoall_time(123) == 0.0

    def test_pays_per_pair_latency_and_the_straggler_factor(self, topo):
        """W-1 pairwise launches, and the same cross volume at the fused
        rate divided by STRAGGLER_FACTOR."""
        nbytes = 1 << 26
        for world in (2, 8, 64):
            m = NcclCostModel(topo, world)
            fused = m.alltoall_time(nbytes) - NCCL_LATENCY
            latency = (world - 1) * P2P_LATENCY
            pairwise = m.decomposed_alltoall_time(nbytes) - latency
            assert pairwise == pytest.approx(STRAGGLER_FACTOR * fused, rel=1e-12)

    def test_negative_bytes_rejected(self, topo):
        with pytest.raises(ValueError):
            NcclCostModel(topo, 8).decomposed_alltoall_time(-1)


class TestOtherCollectiveCosts:
    def test_effective_world_defaults_to_cluster(self, topo):
        assert NcclCostModel(topo).effective_world == 64
        assert NcclCostModel(topo, 16).effective_world == 16

    def test_collective_bandwidth_defaults_to_effective_world(self, topo):
        assert NcclCostModel(topo).collective_bandwidth() == (
            topo.alltoall_bandwidth(64)
        )
        m = NcclCostModel(topo, 16)
        assert m.collective_bandwidth() == topo.alltoall_bandwidth(16)
        assert m.collective_bandwidth(8) == topo.alltoall_bandwidth(8)

    def test_world_size_validation(self, topo):
        with pytest.raises(ValueError, match=">= 1"):
            NcclCostModel(topo, 0)


class TestDegradedBandwidth:
    """Straggler hook: structural per-link overrides ride the topology."""

    def test_link_overrides_inflate_collective_costs(self, topo):
        degraded = ClusterTopology(
            DGX_A100_CLUSTER, LinkOverrides(node_scale=((0, 0.5),))
        )
        nominal = NcclCostModel(topo, 64)
        skewed = NcclCostModel(degraded, 64)
        nbytes = 1 << 26
        assert skewed.alltoall_time(nbytes) - NCCL_LATENCY == pytest.approx(
            (nominal.alltoall_time(nbytes) - NCCL_LATENCY) * 2
        )
        assert skewed.decomposed_alltoall_time(nbytes) > (
            nominal.decomposed_alltoall_time(nbytes)
        )

    def test_uniform_uplink_derate_scales_both_flavours(self, topo):
        """Halving every node's uplink doubles the transfer term of the
        fused and the decomposed All-to-All at 64 GPUs (IB-limited)."""
        halved = ClusterTopology(
            DGX_A100_CLUSTER,
            LinkOverrides(node_scale=tuple((node, 0.5) for node in range(8))),
        )
        nominal = NcclCostModel(topo, 64)
        derated = NcclCostModel(halved, 64)
        nbytes = 1 << 26
        assert derated.alltoall_time(nbytes) - NCCL_LATENCY == pytest.approx(
            2 * (nominal.alltoall_time(nbytes) - NCCL_LATENCY), rel=1e-9
        )
        latency = 63 * P2P_LATENCY
        assert derated.decomposed_alltoall_time(nbytes) - latency == (
            pytest.approx(
                2 * (nominal.decomposed_alltoall_time(nbytes) - latency),
                rel=1e-9,
            )
        )

    def test_unit_overrides_are_identical(self, topo):
        unit = ClusterTopology(
            DGX_A100_CLUSTER,
            LinkOverrides(gpu_scale=((0, 1.0),), node_scale=((0, 1.0),)),
        )
        for world in (8, 64):
            for query in ("alltoall_time", "decomposed_alltoall_time"):
                got = getattr(NcclCostModel(unit, world), query)(1 << 24)
                want = getattr(NcclCostModel(topo, world), query)(1 << 24)
                assert got == want, (world, query)

    def test_traffic_prices_the_load_a_degraded_link_carries(self, topo):
        degraded = ClusterTopology(
            DGX_A100_CLUSTER, LinkOverrides(gpu_scale=((3, 0.5),))
        )
        skewed = NcclCostModel(degraded, 8)
        nominal = NcclCostModel(topo, 8)
        nbytes = 1 << 26
        # Gated on the slowest member without a traffic view...
        assert skewed.alltoall_time(nbytes) > nominal.alltoall_time(nbytes)
        assert skewed.alltoall_time(nbytes, traffic=(1.0,) * 8) == (
            skewed.alltoall_time(nbytes)
        )
        # ...but a degraded link the placement keeps light costs nothing.
        light = tuple(0.25 if rank == 3 else 1.0 for rank in range(8))
        assert skewed.alltoall_time(nbytes, traffic=light) == (
            nominal.alltoall_time(nbytes)
        )
        assert skewed.decomposed_alltoall_time(nbytes, traffic=light) == (
            nominal.decomposed_alltoall_time(nbytes)
        )
