"""Cluster interconnect topology."""

import pytest

from repro.config import ClusterSpec, DGX_A100_CLUSTER
from repro.hardware.topology import ClusterTopology, LinkOverrides
from repro.utils.units import GBPS, GBITPS


@pytest.fixture(scope="module")
def topo():
    return ClusterTopology(DGX_A100_CLUSTER)


class TestStructure:
    def test_gpu_count(self, topo):
        gpus = {topo.rank_to_gpu(rank) for rank in range(topo.spec.world_size)}
        assert len(gpus) == 64
        assert {g.node for g in gpus} == set(range(8))
        assert {g.local for g in gpus} == set(range(8))

    def test_rank_mapping_roundtrip(self, topo):
        gid = topo.rank_to_gpu(19)
        assert (gid.node, gid.local) == (2, 3)
        assert gid.global_rank(8) == 19

    def test_rank_out_of_range(self, topo):
        with pytest.raises(IndexError):
            topo.rank_to_gpu(64)

    def test_same_node(self, topo):
        assert topo.same_node(0, 7)
        assert not topo.same_node(7, 8)


class TestBandwidths:
    def test_intra_node_is_nvlink(self, topo):
        assert topo.p2p_bandwidth(0, 1) == 600 * GBPS

    def test_inter_node_is_ib(self, topo):
        assert topo.p2p_bandwidth(0, 8) == 200 * GBITPS

    def test_p2p_self_rejected(self, topo):
        with pytest.raises(ValueError):
            topo.p2p_bandwidth(3, 3)
        with pytest.raises(ValueError, match="itself"):
            topo.path_bandwidth(3, 3)

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

    def test_bisection(self, topo):
        assert topo.bisection_bandwidth() == 8 * 8 * 200 * GBITPS / 2

    def test_single_node_cluster(self):
        topo1 = ClusterTopology(ClusterSpec(num_nodes=1, gpus_per_node=4))
        assert topo1.alltoall_bandwidth(4) == 600 * GBPS * 0.6


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
        assert scaled.p2p_bandwidth(0, 9) == topo.p2p_bandwidth(0, 9)

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

    def test_p2p_follows_scaled_links(self, topo):
        scaled = ClusterTopology(
            DGX_A100_CLUSTER,
            LinkOverrides(gpu_scale=((1, 0.5),), node_scale=((1, 0.25),)),
        )
        assert scaled.p2p_bandwidth(0, 1) == topo.p2p_bandwidth(0, 1) * 0.5
        # Inter-node pair into node 1: the per-NIC cap scales with the
        # degraded uplink.
        assert scaled.p2p_bandwidth(0, 8) == topo.p2p_bandwidth(0, 8) * 0.25

    def test_override_validation(self):
        with pytest.raises(ValueError, match="positive"):
            LinkOverrides(gpu_scale=((0, 0.0),))
        with pytest.raises(ValueError, match="duplicate"):
            LinkOverrides(node_scale=((0, 0.5), (0, 0.7)))


#: (rank_a, rank_b) -> (path_bandwidth, p2p_bandwidth) in bytes/s on a
#: 2-node x 4-GPU cluster with two degraded NVLinks and one degraded IB
#: uplink, captured from the networkx shortest-path implementation the
#: closed form replaced.
PINNED_2x4 = {
    (0, 1): (60000000000.0, 60000000000.0),
    (0, 2): (600000000000.0, 600000000000.0),
    (0, 3): (600000000000.0, 600000000000.0),
    (0, 4): (150000000000.0, 18750000000.0),
    (0, 5): (150000000000.0, 18750000000.0),
    (0, 6): (120000000000.0, 18750000000.0),
    (0, 7): (150000000000.0, 18750000000.0),
    (1, 2): (60000000000.0, 60000000000.0),
    (1, 3): (60000000000.0, 60000000000.0),
    (1, 4): (60000000000.0, 18750000000.0),
    (1, 5): (60000000000.0, 18750000000.0),
    (1, 6): (60000000000.0, 18750000000.0),
    (1, 7): (60000000000.0, 18750000000.0),
    (2, 3): (600000000000.0, 600000000000.0),
    (2, 4): (150000000000.0, 18750000000.0),
    (2, 5): (150000000000.0, 18750000000.0),
    (2, 6): (120000000000.0, 18750000000.0),
    (2, 7): (150000000000.0, 18750000000.0),
    (3, 4): (150000000000.0, 18750000000.0),
    (3, 5): (150000000000.0, 18750000000.0),
    (3, 6): (120000000000.0, 18750000000.0),
    (3, 7): (150000000000.0, 18750000000.0),
    (4, 5): (600000000000.0, 600000000000.0),
    (4, 6): (120000000000.0, 120000000000.0),
    (4, 7): (600000000000.0, 600000000000.0),
    (5, 6): (120000000000.0, 120000000000.0),
    (5, 7): (600000000000.0, 600000000000.0),
    (6, 7): (120000000000.0, 120000000000.0),
}


def test_closed_form_matches_pinned_table():
    topo = ClusterTopology(
        ClusterSpec(num_nodes=2, gpus_per_node=4),
        LinkOverrides(gpu_scale=((1, 0.1), (6, 0.2)), node_scale=((0, 0.75),)),
    )
    for (a, b), (path, p2p) in PINNED_2x4.items():
        for x, y in ((a, b), (b, a)):
            assert topo.path_bandwidth(x, y) == path, (x, y)
            assert topo.p2p_bandwidth(x, y) == p2p, (x, y)
