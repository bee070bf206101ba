"""Cluster interconnect topology."""

import pytest

from repro.config import ClusterSpec, DGX_A100_CLUSTER
from repro.hardware.topology import ClusterTopology, LinkOverrides
from repro.utils.units import GBPS, GBITPS


@pytest.fixture(scope="module")
def topo():
    return ClusterTopology(DGX_A100_CLUSTER)


class TestBandwidths:
    def test_alltoall_single_node_is_nvlink(self, topo):
        # NVLink line rate discounted by intra-node NCCL efficiency.
        assert topo.alltoall_bandwidth(8) == 600 * GBPS * 0.6

    def test_alltoall_multi_node_ib_limited(self, topo):
        bw64 = topo.alltoall_bandwidth(64)
        # 8 GPUs share the node's 8x200 Gbit/s NICs, 56/64 of each GPU's
        # traffic crosses the fabric, at inter-node NCCL efficiency:
        expected = (8 * 200 * GBITPS / 8) / (56 / 64) * 0.35
        assert bw64 == pytest.approx(expected)
        assert bw64 < topo.alltoall_bandwidth(8)

    def test_alltoall_monotone_in_world(self, topo):
        bws = [topo.alltoall_bandwidth(w) for w in (8, 16, 32, 64)]
        assert all(a >= b for a, b in zip(bws, bws[1:]))

    def test_alltoall_world_bounds(self, topo):
        with pytest.raises(ValueError):
            topo.alltoall_bandwidth(0)
        with pytest.raises(ValueError):
            topo.alltoall_bandwidth(65)

    def test_single_node_cluster(self):
        topo1 = ClusterTopology(ClusterSpec(num_nodes=1, gpus_per_node=4))
        assert topo1.alltoall_bandwidth(4) == 600 * GBPS * 0.6


class TestPartialNodeWorlds:
    """Worlds that do not fill their last node."""

    def test_world_within_one_node_is_nvlink(self, topo):
        for world in (2, 5, 8):
            assert topo.alltoall_bandwidth(world) == 600 * GBPS * 0.6

    def test_world_spilling_into_a_second_node(self, topo):
        # 12 GPUs: node 0's 8 GPUs share its 8x200 Gbit/s NICs, and 4/12
        # of each GPU's traffic crosses the fabric.
        expected = (8 * 200 * GBITPS / 8) / (4 / 12) * 0.35
        assert topo.alltoall_bandwidth(12) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "node, gated, spared", [(1, 9, 8), (2, 17, 16), (7, 57, 56)]
    )
    def test_only_participating_nodes_gate(self, topo, node, gated, spared):
        # A world of `gated` ranks reaches into `node`; `spared` stops
        # one rank short of it.
        scaled = ClusterTopology(
            DGX_A100_CLUSTER, LinkOverrides(node_scale=((node, 0.5),))
        )
        assert scaled.alltoall_bandwidth(gated) == pytest.approx(
            topo.alltoall_bandwidth(gated) * 0.5
        )
        assert scaled.alltoall_bandwidth(spared) == topo.alltoall_bandwidth(
            spared
        )


class TestLinkOverrides:
    """Per-link bandwidth scales: the All-to-All follows the slowest
    participant, and an absent/empty override is bit-identical to the
    nominal topology."""

    def test_no_overrides_is_bit_identical(self, topo):
        scaled = ClusterTopology(
            DGX_A100_CLUSTER, LinkOverrides(gpu_scale=((0, 1.0),))
        )
        for w in (1, 8, 16, 64):
            assert scaled.alltoall_bandwidth(w) == topo.alltoall_bandwidth(w)

    def test_degraded_gpu_gates_the_collective(self, topo):
        scaled = ClusterTopology(
            DGX_A100_CLUSTER, LinkOverrides(gpu_scale=((3, 0.5),))
        )
        # Rank 3 participates: NVLink term halves everywhere it binds.
        assert scaled.alltoall_bandwidth(8) == topo.alltoall_bandwidth(8) * 0.5
        # A world that excludes rank 3 is unaffected... rank 3 is in every
        # world >= 4, so check via a world of 2.
        assert scaled.alltoall_bandwidth(2) == topo.alltoall_bandwidth(2)

    def test_degraded_node_uplink_gates_inter_node(self, topo):
        scaled = ClusterTopology(
            DGX_A100_CLUSTER, LinkOverrides(node_scale=((0, 0.5),))
        )
        # IB-limited at 64 GPUs: halving one node's uplink halves the rate.
        assert scaled.alltoall_bandwidth(64) == pytest.approx(
            topo.alltoall_bandwidth(64) * 0.5
        )
        # The intra-node (NVLink) regime is untouched.
        assert scaled.alltoall_bandwidth(8) == topo.alltoall_bandwidth(8)

    def test_override_validation(self):
        with pytest.raises(ValueError, match="positive"):
            LinkOverrides(gpu_scale=((0, 0.0),))
        with pytest.raises(ValueError, match="duplicate"):
            LinkOverrides(node_scale=((0, 0.5), (0, 0.7)))


class TestTrafficView:
    """``traffic=``: each rank's finish time scales with its own load
    over its own link, and the collective ends with the slowest rank."""

    def test_uniform_traffic_is_min_link_gating(self):
        scaled = ClusterTopology(
            DGX_A100_CLUSTER,
            LinkOverrides(gpu_scale=((3, 0.5),), node_scale=((0, 0.5),)),
        )
        for world in (8, 16, 64):
            assert scaled.alltoall_bandwidth(
                world, traffic=(1.0,) * world
            ) == scaled.alltoall_bandwidth(world)

    def test_nominal_links_ignore_traffic(self, topo):
        skew = tuple(float(rank + 1) for rank in range(64))
        unit = ClusterTopology(
            DGX_A100_CLUSTER,
            LinkOverrides(gpu_scale=((0, 1.0),), node_scale=((0, 1.0),)),
        )
        for world in (8, 64):
            nominal = topo.alltoall_bandwidth(world)
            assert topo.alltoall_bandwidth(world, traffic=skew[:world]) == nominal
            assert unit.alltoall_bandwidth(world, traffic=skew[:world]) == nominal

    def test_lightly_loaded_degraded_link_stops_gating(self, topo):
        scaled = ClusterTopology(
            DGX_A100_CLUSTER, LinkOverrides(gpu_scale=((3, 0.5),))
        )
        # Rank 3 moves a quarter of the busiest rank's volume at half
        # rate: it finishes at half the busiest rank's time.
        light = tuple(0.25 if rank == 3 else 1.0 for rank in range(8))
        assert scaled.alltoall_bandwidth(8, traffic=light) == (
            topo.alltoall_bandwidth(8)
        )
        # At three quarters of the volume it finishes last, 1.5x late.
        heavy = tuple(0.75 if rank == 3 else 1.0 for rank in range(8))
        assert scaled.alltoall_bandwidth(8, traffic=heavy) == pytest.approx(
            topo.alltoall_bandwidth(8) / 1.5
        )

    def test_node_traffic_gates_the_ib_share(self, topo):
        scaled = ClusterTopology(
            DGX_A100_CLUSTER, LinkOverrides(node_scale=((0, 0.5),))
        )
        # Node 0's GPUs inject half of every other node's load through
        # their half-rate uplink: node 0 finishes with the others.
        half = tuple(0.5 if rank < 8 else 1.0 for rank in range(64))
        assert scaled.alltoall_bandwidth(64, traffic=half) == (
            topo.alltoall_bandwidth(64)
        )
        full = tuple(1.0 if rank < 8 else 0.5 for rank in range(64))
        assert scaled.alltoall_bandwidth(64, traffic=full) == pytest.approx(
            topo.alltoall_bandwidth(64) * 0.5
        )

    @pytest.mark.parametrize(
        "traffic, match",
        [
            ((1.0,) * 7, "7 entries for world 8"),
            ((1.0,) * 7 + (-0.5,), ">= 0"),
            ((0.0,) * 8, "positive maximum"),
        ],
        ids=["length", "negative", "all-zero"],
    )
    def test_traffic_validation(self, topo, traffic, match):
        with pytest.raises(ValueError, match=match):
            topo.alltoall_bandwidth(8, traffic=traffic)
