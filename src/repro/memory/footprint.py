"""Closed-form memory footprint model — paper Eq. 1-6.

All formulas count *elements*; multiply by ``bytes_per_elem`` (4 for the
fp32 accounting the paper uses) to get bytes.  Notation per Table I:
M = d_model, H = d_hidden, E = experts, B = tokens per device, n = number
of pipeline partitions.

Eq. 1   M_ms      = 4 * (E*M + 2*H*M)          model states (Adam: param,
                                                grad, momentum, variance)
Eq. 2   M_act     = 4*B*M + B*H                 TI,TDI,TDO,TO (B,M) + TM (B,H)
Eq. 3   M_buf     = B*M + B*H                   peak adjacent grad pair
Eq. 4   M^pipe_buf = M^pipe_act = 4*B*M + B*H   pipelining alone saves nothing
Eq. 5   dM_buf = dM_act = B*(2M(n-2)/n + H(n-1)/n)   reuse savings
Eq. 6   phi = (dM_act + dM_buf) / (M_ms + M^pipe_act + M^pipe_buf)

The formulas are plain arithmetic, so ``batch`` and ``rows`` may also be
int64 arrays with one entry per scenario: that is how the whole-grid
Eq. 10 selector (:mod:`repro.perfmodel.batcheval`) sizes a group at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import BYTES_PER_ELEM, MoELayerSpec

if TYPE_CHECKING:
    from repro.perfmodel.workload import WorkloadSpec


def model_states_elems(spec: MoELayerSpec) -> int:
    """Eq. 1: gate (E*M) + expert (2*H*M) parameters, x4 for Adam states."""
    return 4 * (spec.gate_params + spec.expert_params)


def activations_elems(spec: MoELayerSpec, batch: int, rows: int | None = None) -> int:
    """Eq. 2: four (B, M) tensors (TI, TDI, TDO, TO) plus TM of (B, H).

    ``rows`` sizes the dispatch-side tensors (TDI, TDO, TM) when a
    routed workload inflates them beyond B (top-k fan-out, capacity
    padding, gating skew); TI and TO always hold the raw B tokens.
    ``rows=None`` (or ``rows == batch``) reproduces Eq. 2 exactly.
    """
    _check_batch(batch)
    if rows is None:
        rows = batch
    return 2 * batch * spec.d_model + 2 * rows * spec.d_model + rows * spec.d_hidden


def buffers_elems(spec: MoELayerSpec, batch: int, rows: int | None = None) -> int:
    """Eq. 3: peak temporary-buffer pair in sequential backward.

    The pair is dispatch-side (a TDO-grad and a TM-grad chunk), so
    ``rows`` scales both terms.
    """
    _check_batch(batch)
    if rows is None:
        rows = batch
    return rows * spec.d_model + rows * spec.d_hidden


def pipeline_activations_elems(
    spec: MoELayerSpec, batch: int, rows: int | None = None
) -> int:
    """Eq. 4: pipeline parallelism alone does not shrink activations."""
    return activations_elems(spec, batch, rows)


def pipeline_buffers_elems(
    spec: MoELayerSpec, batch: int, rows: int | None = None
) -> int:
    """Eq. 4: with pipelining the temp-buffer peak grows to match M_act.

    Gradient chunks of all in-flight partitions coexist, so the paper
    sets M^pipe_buf = M^pipe_act.
    """
    return activations_elems(spec, batch, rows)


def reuse_savings_elems(
    spec: MoELayerSpec, batch: int, n: int, rows: int | None = None
) -> int:
    """Eq. 5: elements saved in *each* of activations and temp buffers.

    TDI and TDO shrink from (B, M) to two (B/n, M) ring slots each; TM
    shrinks from (B, H) to one (B/n, H) slot.  Requires n >= 2 (with
    n = 1 there is nothing to share and the formula would go negative).
    All three tensors are dispatch-side, so ``rows`` replaces B whole.
    """
    _check_batch(batch)
    if n < 2:
        return 0
    if rows is None:
        rows = batch
    m, h = spec.d_model, spec.d_hidden
    saved = rows * (2 * m * (n - 2) / n + h * (n - 1) / n)
    return saved.astype("int64") if _is_array(saved) else int(saved)


def memory_saving_ratio(spec: MoELayerSpec, batch: int, n: int) -> float:
    """Eq. 6: phi, the fraction of the pipelined footprint that reuse removes."""
    delta = reuse_savings_elems(spec, batch, n)
    denom = (
        model_states_elems(spec)
        + pipeline_activations_elems(spec, batch)
        + pipeline_buffers_elems(spec, batch)
    )
    return 2 * delta / denom


def _is_array(x) -> bool:
    """Whether ``x`` is an array with one entry per scenario."""
    return getattr(x, "ndim", 0) > 0


def _check_batch(batch: int) -> None:
    # Array batches come from scenarios, which validated each entry.
    if not _is_array(batch) and batch <= 0:
        raise ValueError("batch must be positive")


@dataclass(frozen=True)
class FootprintModel:
    """Byte-level footprint of one MoE layer on one device.

    ``world_size`` matters only through expert placement: each device
    stores E / world experts' model states (expert parallelism shards
    them, Fig. 1), while the gate is replicated.

    ``workload`` (a :class:`~repro.perfmodel.workload.WorkloadSpec`)
    sizes the dispatch-side activations by the bottleneck device's
    routed row count instead of B — top-k fan-out, capacity padding and
    gating skew all grow TDI/TDO/TM.  The element width stays
    ``bytes_per_elem``: the paper's Eq. 1-6 account in fp32 regardless
    of the wire dtype, and this model keeps that convention.  A neutral
    (or absent) workload reproduces Eq. 2-5 bit for bit.
    """

    spec: MoELayerSpec
    world_size: int = 1
    bytes_per_elem: int = BYTES_PER_ELEM
    workload: "WorkloadSpec | None" = None

    def __post_init__(self) -> None:
        if self._placed:
            # An explicit placement defines each rank's expert count
            # directly — uneven assignments (and E % W != 0) are the
            # point, not an error.
            return
        if self.spec.num_experts % self.world_size:
            raise ValueError(
                f"num_experts {self.spec.num_experts} must divide evenly across "
                f"world_size {self.world_size}"
            )

    @property
    def _placed(self) -> bool:
        return self.workload is not None and self.workload.placed

    @property
    def experts_per_rank(self) -> int:
        """Experts on the fattest rank (the Eq. 1 sizing count).

        Contiguous sharding stores exactly ``E / W`` everywhere; a
        placement stores whatever its fattest rank hosts (a shadow
        replica is a full extra parameter copy).
        """
        if self._placed:
            return self.workload.placement.resolve(
                self.spec.num_experts, self.world_size
            ).max_experts_per_rank
        return self.spec.num_experts // self.world_size

    def model_states_bytes(self, experts: int | None = None) -> int:
        """Per-device model states: replicated gate + local experts, x4 (Adam).

        ``experts`` is the device's local expert count (default:
        :attr:`experts_per_rank`).
        """
        if experts is None:
            experts = self.experts_per_rank
        local = self.spec.gate_params + experts * self.spec.expert_params
        return 4 * local * self.bytes_per_elem

    def _rows(self, batch: int) -> int | None:
        """Dispatch-side row count under the workload (None = plain B)."""
        if self.workload is None:
            return None
        return self.workload.device_rows(self.spec, batch, self.world_size)

    def activations_bytes(self, batch: int) -> int:
        return (
            activations_elems(self.spec, batch, self._rows(batch))
            * self.bytes_per_elem
        )

    def buffers_bytes(self, batch: int) -> int:
        return (
            buffers_elems(self.spec, batch, self._rows(batch))
            * self.bytes_per_elem
        )

    def total_bytes(self, batch: int, pipelined: bool = False, reuse_n: int = 0) -> int:
        """Peak per-device footprint under a given execution mode.

        Under a non-default placement this is the worst device's actual
        footprint (``max(per_device_bytes)``) — pairing the fattest
        rank's states with the hottest rank's rows would bound a device
        that does not exist.
        """
        if self._placed:
            return max(self.per_device_bytes(batch, pipelined, reuse_n))
        return self.device_bytes(batch, self._rows(batch), pipelined, reuse_n)

    def device_bytes(
        self,
        batch: int,
        rows: int | None = None,
        pipelined: bool = False,
        reuse_n: int = 0,
        experts: int | None = None,
    ) -> int:
        """Footprint of one device computing ``rows`` dispatch rows.

        The device stores ``experts`` experts (default: the Eq. 1 sizing
        count, :attr:`experts_per_rank`); ``rows=None`` means B itself.
        ``batch`` and ``rows`` may be equal-length int64 arrays, one
        entry per scenario, for whole-grid pricing.
        """
        if reuse_n >= 2 and not pipelined:
            raise ValueError("memory reuse requires pipelined execution")
        spec, bpe = self.spec, self.bytes_per_elem
        states = self.model_states_bytes(experts)
        act = activations_elems(spec, batch, rows) * bpe
        # Eq. 4: pipelined temp buffers grow to match the activations.
        buf = act if pipelined else buffers_elems(spec, batch, rows) * bpe
        saved = 2 * reuse_savings_elems(spec, batch, reuse_n, rows) * bpe
        return states + act + buf - saved

    def per_device_bytes(
        self, batch: int, pipelined: bool = False, reuse_n: int = 0
    ) -> tuple[int, ...]:
        """Eq. 5 footprint of *each* device, against its hosted experts.

        Entry ``r`` sizes rank ``r``'s model states from the experts the
        placement actually puts there (replicated gate + local experts +
        any shadow replica) and its dispatch-side activations from that
        rank's own anchored row count — so "three experts and the hot
        load" and "one cold expert" stop sharing one bound.  Without a
        workload every rank is identical and this degenerates to
        ``total_bytes`` repeated.  This is the vector the placement
        optimizer checks feasibility against.
        """
        if self.workload is None:
            return (self.total_bytes(batch, pipelined, reuse_n),) * self.world_size
        load = self.workload.load(self.spec, batch, self.world_size)
        return tuple(
            self.device_bytes(
                batch, max(0, math.ceil(rank_rows)), pipelined, reuse_n, count
            )
            for count, rank_rows in zip(
                load.effective_placement().counts(), load.anchored_rank_rows()
            )
        )

    def breakdown(self, batch: int) -> dict[str, int]:
        """Fig. 2 bars: bytes per category in plain expert parallelism."""
        return {
            "model_states": self.model_states_bytes(),
            "activations": self.activations_bytes(batch),
            "temporary_buffers": self.buffers_bytes(batch),
        }

    def saving_ratio(self, batch: int, n: int) -> float:
        """Eq. 6 on the per-device sharded footprint."""
        delta = (
            reuse_savings_elems(self.spec, batch, n, self._rows(batch))
            * self.bytes_per_elem
        )
        denom = self.model_states_bytes() + 2 * self.activations_bytes(batch)
        return 2 * delta / denom
