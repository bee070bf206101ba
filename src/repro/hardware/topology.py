"""Cluster interconnect topology.

A two-level tree of GPUs and switches: every GPU in a node attaches to
the node's NVSwitch (NVLink bandwidth), and every node's switch attaches
to the InfiniBand fabric (HDR bandwidth shared by the node's GPUs).  The
All-to-All cost model queries :meth:`ClusterTopology.alltoall_bandwidth`
— the effective per-GPU injection rate once the inter-node bottleneck is
accounted for, which is what makes communication dominate at large N
(paper Fig. 13's N-scaling).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ClusterSpec
from repro.utils.units import GBPS, GBITPS


@dataclass(frozen=True)
class LinkOverrides:
    """Per-link bandwidth scale factors (1.0 = nominal).

    ``gpu_scale`` scales the NVLink edge of individual GPUs (by global
    rank); ``node_scale`` scales a node's IB uplink.  The heterogeneous
    layer derives these from per-device comm multipliers
    (:meth:`repro.hardware.hetero.HeteroClusterSpec.link_overrides`),
    which is how "the all-to-all bottleneck follows the degraded
    device": every collective is priced at the slowest participating
    link.
    """

    gpu_scale: tuple[tuple[int, float], ...] = ()
    node_scale: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        for _, scale in (*self.gpu_scale, *self.node_scale):
            if scale <= 0:
                raise ValueError("link bandwidth scales must be positive")
        object.__setattr__(self, "_gpu", dict(self.gpu_scale))
        object.__setattr__(self, "_node", dict(self.node_scale))
        if len(self._gpu) != len(self.gpu_scale) or len(self._node) != len(
            self.node_scale
        ):
            raise ValueError("duplicate link override entry")

    def gpu(self, rank: int) -> float:
        return self._gpu.get(rank, 1.0)

    def node(self, node: int) -> float:
        return self._node.get(node, 1.0)


@dataclass(frozen=True)
class GpuId:
    """Stable identity of a GPU in the cluster: (node, local index)."""

    node: int
    local: int

    def global_rank(self, gpus_per_node: int) -> int:
        return self.node * gpus_per_node + self.local


class ClusterTopology:
    """Hierarchical DGX-style topology derived from a :class:`ClusterSpec`.

    ``overrides`` scales individual link bandwidths — a degraded NVLink
    on one GPU or an oversubscribed IB uplink on one node — and every
    bandwidth query (path, p2p, All-to-All) follows the scaled links.
    ``overrides=None`` builds the nominal topology through the exact
    seed code path.
    """

    def __init__(self, spec: ClusterSpec, overrides: LinkOverrides | None = None) -> None:
        self.spec = spec
        self.overrides = overrides

    def _nvlink(self, rank: int) -> float:
        """NVLink edge of one GPU (bytes/s)."""
        bw = self.spec.nvlink_gbps * GBPS
        if self.overrides is not None:
            bw *= self.overrides.gpu(rank)
        return bw

    def _uplink(self, node: int) -> float:
        """IB uplink of one node's switch (bytes/s)."""
        bw = self.spec.node_ib_gbitps * GBITPS
        if self.overrides is not None:
            bw *= self.overrides.node(node)
        return bw

    def rank_to_gpu(self, rank: int) -> GpuId:
        if not 0 <= rank < self.spec.world_size:
            raise IndexError(f"rank {rank} out of range for world {self.spec.world_size}")
        return GpuId(rank // self.spec.gpus_per_node, rank % self.spec.gpus_per_node)

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        return self.rank_to_gpu(rank_a).node == self.rank_to_gpu(rank_b).node

    # -- bandwidth queries ---------------------------------------------------
    def path_bandwidth(self, rank_a: int, rank_b: int) -> float:
        """Min link bandwidth on the path between two GPUs (bytes/s).

        The path climbs both GPUs' NVLink edges to their switches, and
        also both nodes' IB uplinks when it crosses the fabric.
        """
        a, b = self.rank_to_gpu(rank_a), self.rank_to_gpu(rank_b)
        if rank_a == rank_b:
            raise ValueError("path bandwidth undefined for a rank with itself")
        bw = min(self._nvlink(rank_a), self._nvlink(rank_b))
        if a.node != b.node:
            bw = min(bw, self._uplink(a.node), self._uplink(b.node))
        return bw

    def p2p_bandwidth(self, rank_a: int, rank_b: int) -> float:
        """Point-to-point bandwidth; NVLink intra-node, IB inter-node.

        A single transfer rides one NIC, so inter-node pairs are capped
        at the per-NIC rate even though the node aggregates several NICs.
        """
        if rank_a == rank_b:
            raise ValueError("p2p bandwidth undefined for a rank with itself")
        bw = self.path_bandwidth(rank_a, rank_b)
        if not self.same_node(rank_a, rank_b):
            nic = self.spec.ib_gbitps * GBITPS
            if self.overrides is not None:
                nic *= min(
                    self.overrides.node(self.rank_to_gpu(rank_a).node),
                    self.overrides.node(self.rank_to_gpu(rank_b).node),
                )
            bw = min(bw, nic)
        return bw

    def alltoall_bandwidth(
        self,
        world_size: int | None = None,
        traffic: tuple[float, ...] | None = None,
    ) -> float:
        """Effective per-GPU All-to-All injection bandwidth (bytes/s).

        In a symmetric All-to-All of total volume V per GPU, a fraction
        (N - G)/N of each GPU's traffic crosses the IB fabric, where G is
        gpus_per_node; the node's IB link is shared by its G GPUs.  The
        achievable rate is the min of the NVLink rate and the scaled IB
        share.  With one node the IB term vanishes (pure NVLink).

        ``traffic`` (optional, one relative load per participating rank)
        is the placement-dependent view: instead of gating the whole
        collective on the slowest member's link, each rank's *finish
        time* scales with its own traffic over its own link rate, and
        the collective finishes with the slowest rank.  The returned
        bandwidth is stated against the busiest rank's volume (what the
        caller prices), so the gating factor is ``t_max / max_r(t_r /
        scale_r)`` — exactly 1x when no link is degraded, and exactly
        the seed's min-scale gating when traffic is uniform.  A degraded
        link that the placement keeps lightly loaded no longer drags
        everyone.
        """
        spec = self.spec
        n = world_size if world_size is not None else spec.world_size
        if not 1 <= n <= spec.world_size:
            raise ValueError(f"world_size must be in [1, {spec.world_size}]")
        if traffic is not None:
            if len(traffic) != n:
                raise ValueError(
                    f"traffic has {len(traffic)} entries for world {n}"
                )
            if min(traffic) < 0 or max(traffic) <= 0:
                raise ValueError(
                    "traffic entries must be >= 0 with a positive maximum"
                )
        g = min(spec.gpus_per_node, n)
        ov = self.overrides
        nvlink = spec.nvlink_gbps * GBPS * spec.nccl_efficiency_intra
        if ov is not None:
            if traffic is None:
                # The symmetric collective is gated by its slowest
                # member's injection link — the straggler drags every
                # participant.
                nvlink *= min(ov.gpu(rank) for rank in range(n))
            else:
                t_max = max(traffic)
                worst = max(t / ov.gpu(rank) for rank, t in enumerate(traffic))
                nvlink *= t_max / worst
        if n <= spec.gpus_per_node:
            return nvlink
        cross_fraction = (n - g) / n
        ib_per_gpu = (spec.node_ib_gbitps * GBITPS) / g
        if ov is not None:
            nodes = -(-n // spec.gpus_per_node)  # ceil: participating nodes
            if traffic is None:
                ib_per_gpu *= min(ov.node(node) for node in range(nodes))
            else:
                # Per-node view of the same gating: a node's IB time
                # scales with the traffic its GPUs inject over its link.
                node_traffic = [0.0] * nodes
                for rank, t in enumerate(traffic):
                    node_traffic[rank // spec.gpus_per_node] += t
                t_max = max(node_traffic)
                if t_max > 0:
                    worst = max(
                        t / ov.node(node)
                        for node, t in enumerate(node_traffic)
                    )
                    ib_per_gpu *= t_max / worst
        ib_limited = ib_per_gpu / cross_fraction * spec.nccl_efficiency_inter
        return min(nvlink, ib_limited)

    def bisection_bandwidth(self) -> float:
        """Aggregate IB bisection bandwidth of the cluster (bytes/s)."""
        return self.spec.num_nodes * self.spec.node_ib_gbitps * GBITPS / 2
