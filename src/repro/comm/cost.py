"""Analytic timing model for collectives on the simulated cluster.

Prices the two All-to-All flavours the paper contrasts (Fig. 5):

* **fused NCCL All-to-All** (MPipeMoE, split-by-B): one collective per
  micro-batch; per-GPU cross traffic is ``(N-1)/N`` of its volume at the
  topology's effective All-to-All bandwidth, plus a single launch/fabric
  latency;
* **point-to-point decomposition** (FasterMoE, split-by-N): each
  partition becomes W-1 pairwise sends; NCCL's fusion is lost, so every
  pair pays its own latency term and the slowest pair (the lowest
  bandwidth path — inter-node IB) gates the stage, modelling the
  heterogeneous-bandwidth straggler effect the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.topology import ClusterTopology

# Fixed startup cost of one NCCL collective / p2p kernel: launch plus
# fabric rendezvous.  HDR IB + NVLink clusters measure 15-30 us.
NCCL_LATENCY = 20e-6
P2P_LATENCY = 12e-6

#: Slowdown of the decomposed point-to-point schedule from stragglers:
#: synchronous pairwise exchanges gate on the slowest path, and losing
#: NCCL means losing multi-NIC adaptive routing (paper Sec. III-B).
STRAGGLER_FACTOR = 1.5


@dataclass(frozen=True)
class NcclCostModel:
    """Collective timing against a :class:`ClusterTopology`.

    ``bandwidth_scale`` is a uniform derate on every effective link
    rate (1.0 = nominal) — the what-if knob for collective-level
    degradation that is not tied to one physical link.  Structural
    per-link skew (a degraded NVLink or IB uplink) belongs on the
    topology itself via
    :class:`~repro.hardware.topology.LinkOverrides`, which these
    queries follow automatically.
    """

    topology: ClusterTopology
    world_size: int | None = None  # defaults to the full cluster
    bandwidth_scale: float = 1.0

    def __post_init__(self) -> None:
        w = self.effective_world
        if w < 1:
            raise ValueError("world_size must be >= 1")
        if self.bandwidth_scale <= 0:
            raise ValueError("bandwidth_scale must be positive")

    def collective_bandwidth(
        self,
        world_size: int | None = None,
        traffic: tuple[float, ...] | None = None,
    ) -> float:
        """Effective per-GPU collective rate (bytes/s) over ``world_size``.

        Link overrides and the uniform ``bandwidth_scale`` derate are
        applied.  Every collective below prices against this rate, and
        :meth:`~repro.pipeline.schedule.MoEStageCosts.from_rows` resolves
        it once for both All-to-All flavours of a stage.  ``traffic`` is
        the placement-dependent per-rank load view (see
        :meth:`ClusterTopology.alltoall_bandwidth`).
        """
        w = self.effective_world if world_size is None else world_size
        bw = self.topology.alltoall_bandwidth(w, traffic=traffic)
        if self.bandwidth_scale != 1.0:
            bw *= self.bandwidth_scale
        return bw

    @property
    def effective_world(self) -> int:
        return (
            self.world_size
            if self.world_size is not None
            else self.topology.spec.world_size
        )

    # -- fused collectives ------------------------------------------------------
    def alltoall_time(
        self,
        bytes_per_rank: float,
        traffic: tuple[float, ...] | None = None,
    ) -> float:
        """Fused NCCL All-to-All moving ``bytes_per_rank`` out of each GPU.

        ``bytes_per_rank`` is the busiest rank's volume; ``traffic``
        (optional per-rank relative loads) lets a placement-aware caller
        price degraded links against the traffic they actually carry
        instead of gating the collective on the slowest member.
        """
        if bytes_per_rank < 0:
            raise ValueError("bytes_per_rank must be non-negative")
        w = self.effective_world
        if w == 1:
            return 0.0
        cross = bytes_per_rank * (w - 1) / w
        bw = self.collective_bandwidth(w, traffic=traffic)
        return NCCL_LATENCY + cross / bw

    def allreduce_time(self, nbytes: float) -> float:
        """Ring all-reduce: 2(W-1)/W of the volume over the slowest link."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        w = self.effective_world
        if w == 1:
            return 0.0
        bw = self.collective_bandwidth(w)
        return NCCL_LATENCY + 2 * (w - 1) / w * nbytes / bw

    def allgather_time(self, nbytes_per_rank: float) -> float:
        """Ring all-gather of one rank's ``nbytes_per_rank`` to all ranks."""
        w = self.effective_world
        if w == 1:
            return 0.0
        bw = self.collective_bandwidth(w)
        return NCCL_LATENCY + (w - 1) * nbytes_per_rank / bw

    # -- point-to-point decomposition (FasterMoE fashion) -------------------------
    def p2p_time(self, nbytes: float, src: int, dst: int) -> float:
        """Single pairwise transfer between two global ranks."""
        if src == dst:
            return 0.0
        bw = self.topology.p2p_bandwidth(src, dst)
        if self.bandwidth_scale != 1.0:
            bw *= self.bandwidth_scale
        return P2P_LATENCY + nbytes / bw

    def decomposed_alltoall_time(
        self,
        bytes_per_rank: float,
        traffic: tuple[float, ...] | None = None,
    ) -> float:
        """All-to-All realised as W-1 pairwise exchanges per GPU.

        The same cross-node volume as the fused collective moves, but:
        every pair pays its own launch latency (W-1 of them instead of
        one), and the synchronous pairwise schedule gates on the slowest
        path without NCCL's multi-NIC adaptive routing — modeled as the
        fused bandwidth divided by :data:`STRAGGLER_FACTOR`.  This is
        the Fig. 5(a) penalty: "infeasible to take advantage of
        optimizations offered by NCCL" plus "the synchronization
        procedure causes a waste of resources".
        """
        if bytes_per_rank < 0:
            raise ValueError("bytes_per_rank must be non-negative")
        w = self.effective_world
        if w == 1:
            return 0.0
        cross = bytes_per_rank * (w - 1) / w
        bw = self.collective_bandwidth(w, traffic=traffic) / STRAGGLER_FACTOR
        return (w - 1) * P2P_LATENCY + cross / bw
