"""Eq. 7-10: the closed-form cost of one pipelined micro-batch stage.

Definitions (per micro-batch of b = B/n tokens):

* Eq. 7  v0_comp = FLOPs of one GEMM            = 2 * b * M * H
* Eq. 8  v0_comm = bytes of one All-to-All      = b * M * bytes
* Eq. 9  v0_mem  = bytes of one TDI PCIe copy   = b * M * bytes
  (copying TM costs H/M of these units — "four times more data" when
  H = 4M, the note under Eq. 9)

* Eq. 10 C = max( q1 v_comp / (sigma W_comp),
                  q2 v_comm / (mu    W_comm),
                  q3 v_mem  / (eta   W_mem ) )

The per-iteration cost of a strategy is n * (C(Q_fw) + C(Q_bw)) with the
mu/eta row of Table II.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.comm.cost import NcclCostModel
from repro.config import MoELayerSpec
from repro.hardware.device import DeviceSpec
from repro.hardware.interference import InterferenceModel, PAPER_INTERFERENCE
from repro.memory.strategies import Strategy
from repro.perfmodel.workload import WorkloadSpec
from repro.pipeline.schedule import TIMING_BYTES_PER_ELEM, stage_volumes

if TYPE_CHECKING:
    from repro.hardware.hetero import DeviceRates


@dataclass(frozen=True)
class HardwareRates:
    """W_comp (FLOP/s), W_comm and W_mem (bytes/s) of Sec. II-C."""

    w_comp: float
    w_comm: float
    w_mem: float

    def __post_init__(self) -> None:
        if min(self.w_comp, self.w_comm, self.w_mem) <= 0:
            raise ValueError("hardware rates must be positive")

    @classmethod
    def from_cluster(
        cls,
        device: DeviceSpec,
        comm: NcclCostModel,
        traffic: tuple[float, ...] | None = None,
    ) -> "HardwareRates":
        """Derive rates from the device spec and cluster topology.

        W_comm is the effective All-to-All injection rate scaled by the
        cross-traffic fraction so that time = bytes / W_comm matches the
        collective cost model's bandwidth term.  ``traffic`` (a
        placement's per-rank load view, see
        :meth:`~repro.hardware.topology.ClusterTopology.alltoall_bandwidth`)
        gates that rate on the links the placement actually loads.
        """
        w = comm.effective_world
        if w > 1:
            cross = (w - 1) / w
            w_comm = comm.topology.alltoall_bandwidth(w, traffic=traffic) / cross
        else:
            w_comm = float("inf")
        return cls(
            w_comp=device.sustained_gemm_flops,
            w_comm=w_comm,
            w_mem=device.pcie_bandwidth,
        )

    def scaled(
        self, comp: float = 1.0, comm: float = 1.0, mem: float = 1.0
    ) -> "HardwareRates":
        """Rates with per-kind multipliers applied (heterogeneous skew).

        The hetero layer rescales W_comp / W_mem by the cluster's
        bottleneck-device multipliers before running the Eq. 10
        selector; W_comm usually stays at 1.0 here because the degraded
        link already lowered the topology's All-to-All bandwidth.
        """
        if comp == comm == mem == 1.0:
            return self
        return HardwareRates(
            w_comp=self.w_comp * comp,
            w_comm=self.w_comm * comm,
            w_mem=self.w_mem * mem,
        )


@dataclass(frozen=True)
class StageCost:
    """Per-stream times and the Eq. 10 max for one pipeline stage."""

    comp: float
    comm: float
    mem: float

    @property
    def total(self) -> float:
        return max(self.comp, self.comm, self.mem)

    @property
    def bottleneck(self) -> str:
        return max(
            (("comp", self.comp), ("comm", self.comm), ("mem", self.mem)),
            key=lambda kv: kv[1],
        )[0]


def stage_stream_times(
    spec: MoELayerSpec,
    rates: HardwareRates,
    q: tuple[float, float, float],
    b,
    bytes_per_elem,
    sigma: float,
    mu: float,
    eta: float,
) -> tuple:
    """Eq. 10's per-stream times ``(comp, comm, mem)`` of one stage.

    A micro-batch of ``b`` rows with ``bytes_per_elem``-byte activations
    runs the ``q`` queue volumes against ``rates`` under the sigma/mu/eta
    interference factors; Eq. 10's stage cost is the max of the three.
    Plain arithmetic: :class:`PerfModel` passes ints, the whole-grid
    selector (:mod:`repro.perfmodel.batcheval`) int64 arrays with one
    entry per scenario.
    """
    q1, q2, q3 = q
    v_comp, v_bytes = stage_volumes(spec, b, bytes_per_elem)
    return (
        q1 * v_comp / (sigma * rates.w_comp),
        q2 * v_bytes / (mu * rates.w_comm),
        q3 * v_bytes / (eta * rates.w_mem),
    )


class PerfModel:
    """Eq. 10 evaluator for one (model, batch, granularity) point."""

    def __init__(
        self,
        spec: MoELayerSpec,
        rates: HardwareRates,
        interference: InterferenceModel | None = None,
        use_paper_q: bool = True,
        workload: WorkloadSpec | None = None,
        world_size: int = 1,
        rank_rates: "tuple[DeviceRates, ...] | None" = None,
    ) -> None:
        self.spec = spec
        self.rates = rates
        self.interference = interference or PAPER_INTERFERENCE
        #: Routing-aware workload (top-k fan-out, activation dtype,
        #: gating skew, per-expert capacity) — None keeps the paper's
        #: k=1 / half-precision / uniform pricing; ``world_size`` only
        #: matters for the skew dilution (experts per rank).
        self.workload = workload
        self.world_size = world_size
        #: Per-rank device-rate multipliers (the hetero composition):
        #: with a placed workload, each rank's own row count is priced
        #: against that rank's own comp/mem rates and the iteration
        #: gates on the worst rank — "hot expert on slow device" now
        #: prices worse than "hot expert on fast device".  Only
        #: meaningful alongside a non-default placement.
        if rank_rates is not None:
            if workload is None or not workload.placed:
                raise ValueError(
                    "rank_rates requires a workload with a non-default "
                    "placement (otherwise there is no per-rank load to "
                    "join the rates with)"
                )
            if len(rank_rates) < world_size:
                raise ValueError(
                    f"rank_rates has {len(rank_rates)} entries for "
                    f"world_size {world_size}"
                )
            rank_rates = tuple(rank_rates)
        self.rank_rates = rank_rates
        #: The workload's activation width; half precision without one.
        self.bytes_per_elem = (
            TIMING_BYTES_PER_ELEM if workload is None else workload.bytes_per_elem
        )
        #: Use Table II's tabulated Q (exact paper reproduction, assumes
        #: H = 4M) or the generalized Strategy.workload() for any H/M.
        self.use_paper_q = use_paper_q

    # -- Eq. 7-9 ------------------------------------------------------------
    def v_comp(self, b: int) -> float:
        return stage_volumes(self.spec, b, self.bytes_per_elem)[0]

    def v_comm(self, b: int) -> float:
        return stage_volumes(self.spec, b, self.bytes_per_elem)[1]

    v_mem = v_comm  # Eq. 9: one TDI copy moves an All-to-All's bytes

    # -- Eq. 10 --------------------------------------------------------------
    def stage_cost(
        self,
        q: tuple[float, float, float],
        b: int,
        mu: float,
        eta: float,
        rates: HardwareRates | None = None,
    ) -> StageCost:
        """One stage's streams against ``rates`` (default: the model's)."""
        return StageCost(
            *stage_stream_times(
                self.spec, self.rates if rates is None else rates, q, b,
                self.bytes_per_elem, self.interference.sigma, mu, eta,
            )
        )

    def strategy_queues(
        self, strategy: Strategy
    ) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        if self.use_paper_q:
            return strategy.q_fw, strategy.q_bw
        return strategy.workload(self.spec.d_hidden / self.spec.d_model)

    def _profiles(self, batch: int) -> list[tuple[int, HardwareRates]]:
        """Distinct (rows, rates) pairs to price.

        Without a placement: the routed bottleneck rows (or B itself) at
        the model's rates.  A placed workload has one entry per rank
        hosting experts: the rank's anchored row count joined with its
        own comp/mem-scaled rates (comm stays at the collective's shared
        rate — a rank-local comm multiplier already shows up through the
        topology's link overrides).  Expertless ranks run nothing and
        drop out.
        """
        if self.workload is None:
            return [(batch, self.rates)]
        if not self.workload.placed:
            rows = self.workload.device_rows(self.spec, batch, self.world_size)
            return [(rows, self.rates)]
        load = self.workload.load(self.spec, batch, self.world_size)
        profiles: dict[tuple[int, HardwareRates], None] = {}
        for rank, rank_rows in enumerate(load.anchored_rank_rows()):
            if rank_rows <= 0:
                continue
            rates = self.rates
            if self.rank_rates is not None:
                rr = self.rank_rates[rank]
                rates = rates.scaled(comp=rr.comp, mem=rr.mem)
            profiles[(max(1, math.ceil(rank_rows)), rates)] = None
        return [(rows, rates) for rows, rates in profiles]

    def iteration_cost(self, strategy: Strategy, batch: int, n: int) -> float:
        """Modeled fw+bw time of the whole batch at granularity n.

        With a placed workload the (synchronous) iteration gates on the
        worst rank: each hosting rank's rows are priced against its own
        rates and the max wins.
        """
        if batch < 1 or n < 1:
            raise ValueError("batch and n must be >= 1")
        return n * self._gating_stages(strategy, batch, n)[2]

    def breakdown(self, strategy: Strategy, batch: int, n: int) -> dict[str, StageCost]:
        """Per-phase stream costs, for analysis output.

        For a placed workload: the gating (worst) rank's breakdown.
        """
        fw, bw, _ = self._gating_stages(strategy, batch, n)
        return {"forward": fw, "backward": bw}

    def _gating_stages(
        self, strategy: Strategy, batch: int, n: int
    ) -> tuple[StageCost, StageCost, float]:
        """The gating profile's forward and backward stages and their
        total; the first profile with the largest total wins."""
        mu = self.interference.mu(strategy.uses_mem_stream)
        eta = self.interference.eta(strategy.uses_mem_stream)
        q_fw, q_bw = self.strategy_queues(strategy)
        gating = None
        for rows, rates in self._profiles(batch):
            b = -(-rows // n)  # ceil: padded final micro-batch
            fw = self.stage_cost(q_fw, b, mu, eta, rates)
            bw = self.stage_cost(q_bw, b, mu, eta, rates)
            total = fw.total + bw.total
            if gating is None or total > gating[2]:
                gating = (fw, bw, total)
        return gating
