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


class ClusterTopology:
    """Hierarchical DGX-style topology derived from a :class:`ClusterSpec`.

    ``overrides`` scales individual link bandwidths — a degraded NVLink
    on one GPU or an oversubscribed IB uplink on one node — and the
    All-to-All bandwidth follows the scaled links.  ``overrides=None``
    builds the nominal topology through the exact seed code path.
    """

    def __init__(self, spec: ClusterSpec, overrides: LinkOverrides | None = None) -> None:
        self.spec = spec
        self.overrides = overrides

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
