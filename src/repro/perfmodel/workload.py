"""Routing-aware workload model: top-k, activation dtype, gating skew.

The paper's cost model (Eq. 4-10) prices one GEMM per routed token and
one All-to-All per activation byte, but it states the formulas for the
k = 1, half-precision, perfectly-balanced routing it evaluates.  Before
this module each pricing layer privately re-assumed those defaults:
``MoEStageCosts.compute`` hardwired one routing choice per token and a
2-byte element, the footprint model sized the dispatch-side activations
at exactly B rows, and the sweep runner applied ``capacity_factor`` as
``ceil(B * f)`` on the whole per-device batch — contradicting the
per-expert ``ceil(f * B * k / E)`` definition the executable dispatch
layer (:func:`repro.core.dispatch.capacity_for`) uses.

:class:`WorkloadSpec` replaces those scattered assumptions with one
typed source of truth:

* ``top_k`` — routing fan-out k.  Every token contributes k rows to the
  dispatch buffer, so GEMM FLOPs, All-to-All bytes and the dispatch-side
  activation footprint all scale with k ("increasing k is an
  equivalence of increasing B", paper Sec. IV-A — pinned by a property
  test).
* ``bytes_per_elem`` / :meth:`WorkloadSpec.for_dtype` — the activation
  element width on the wire and over PCIe, pricing comm *and* memcpy
  with one consistent width.
* ``imbalance`` — hottest-expert load ratio: the skewed-gating model
  under which the device hosting the hot expert receives more rows than
  its balanced share and therefore gates the (synchronous) iteration.
* ``capacity_factor`` — per-expert capacity via the canonical
  :func:`expert_capacity` formula.  When set, every device computes and
  ships its *padded* ``(E_local, W, C)`` dispatch buffer (the
  equal-shaped collective layout of :mod:`repro.core.dispatch`), and
  routed rows beyond an expert's capacity overflow (drop).

:meth:`WorkloadSpec.load` compiles those knobs for one operating point
into a :class:`RoutedLoad`: per-expert effective row counts, the
hottest expert's capacity pressure, the padded-capacity overflow, and
``device_rows`` — the row count the bottleneck device actually
computes and exchanges, which is what every pricing layer substitutes
for the raw batch.

A *neutral* spec (k resolving to 1, 2-byte elements, uniform gating,
no capacity factor) resolves ``device_rows`` to ``batch`` through pure
integer arithmetic, so every consumer reproduces the pre-workload
numbers bit for bit — the degenerate-identity contract the golden
tests pin.

With :mod:`repro.perfmodel.placement` the expert→rank assignment is an
input too: a :class:`~repro.perfmodel.placement.PlacementSpec` on the
workload turns ``device_rows`` from "the contiguous hot rank's rows"
into "the worst rank's rows under *this* placement", and
:class:`RoutedLoad` grows the per-rank row vectors
(:meth:`RoutedLoad.rank_rows`, :meth:`RoutedLoad.anchored_rank_rows`)
that the hetero composition, the traffic-aware collective and the
per-device Eq. 5 check consume.  No placement (or the default
contiguous one) takes the exact pre-placement code path.

This module is deliberately dependency-free (stdlib ``math`` only) so
any layer — core dispatch, the timing schedule, the Eq. 10 closed
form, the memory model — can consume it without import cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .placement import ExpertPlacement, PlacementSpec

#: Activation element widths by dtype name.  ``fp16`` matches the
#: paper's half-precision wire format (and the timing layer's
#: ``TIMING_BYTES_PER_ELEM = 2`` — pinned equal by a test).
DTYPE_BYTES: dict[str, int] = {
    "fp8": 1,
    "int8": 1,
    "fp16": 2,
    "bf16": 2,
    "fp32": 4,
    "tf32": 4,
    "fp64": 8,
}

#: The timing layer's default activation dtype.
TIMING_DTYPE = "fp16"


def expert_capacity(
    batch: int, num_experts: int, top_k: int, capacity_factor: float
) -> int:
    """Slots per (source rank, expert): ``ceil(f * B * k / E)``, at least 1.

    The canonical capacity formula — :func:`repro.core.dispatch
    .capacity_for` delegates here, and the sweep runner prices capacity
    through it (it used to apply ``ceil(B * f)`` to the whole batch).
    """
    if batch <= 0:
        raise ValueError("batch must be positive")
    if num_experts < 1:
        raise ValueError("num_experts must be >= 1")
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if not (math.isfinite(capacity_factor) and capacity_factor > 0):
        raise ValueError("capacity_factor must be finite and positive")
    return max(1, math.ceil(capacity_factor * batch * top_k / num_experts))


@dataclass(frozen=True)
class RoutedLoad:
    """One operating point's routing geometry, compiled from a spec.

    Loads are row counts in the per-(source rank, expert) frame the
    dispatch buffer uses; ``device_rows`` is the bottleneck device's
    received total — the quantity the pricing layers substitute for
    the raw batch.
    """

    num_experts: int
    experts_per_rank: int
    world_size: int
    routed_rows: int  # B*k rows leaving each source device
    capacity: int | None  # per (source rank, expert) slots, or uncapped
    hot_rows: float  # hottest expert's per-source load (pre-capacity)
    cold_rows: float  # every other expert's per-source load
    device_rows: int  # rows the bottleneck device computes/exchanges
    overflow_rows: int  # routed rows dropped per source device
    hot_pressure: float | None  # hot_rows / capacity; None when uncapped
    placement: ExpertPlacement | None = None  # None = implicit contiguous

    def per_expert_rows(self) -> tuple[float, ...]:
        """Effective (capacity-capped) per-expert row counts, hot first."""
        cap = self.capacity
        hot = self.hot_rows if cap is None else min(self.hot_rows, cap)
        cold = self.cold_rows if cap is None else min(self.cold_rows, cap)
        return (hot,) + (cold,) * (self.num_experts - 1)

    @property
    def keep_fraction(self) -> float:
        """Fraction of routed rows that survive the capacity cut."""
        if not self.routed_rows:
            return 1.0
        return 1.0 - self.overflow_rows / self.routed_rows

    # -- per-rank views ------------------------------------------------------
    def effective_placement(self) -> ExpertPlacement:
        """The resolved placement, defaulting to the implicit contiguous map."""
        if self.placement is not None:
            return self.placement
        return ExpertPlacement.contiguous(self.num_experts, self.world_size)

    def rank_rows(self) -> tuple[float, ...]:
        """Physical per-source rows landing on each rank (pre-capacity).

        Entry ``r`` is the sum of the per-source loads of the experts
        rank ``r`` hosts (a shadowed expert contributes half to its host
        and half to its replica), so the vector sums to ``routed_rows``
        for *every* placement, skew and geometry — the conservation
        property the placement tests pin.
        """
        per = (self.hot_rows,) + (self.cold_rows,) * (self.num_experts - 1)
        return self.effective_placement().rank_loads(per)

    def anchored_rank_rows(self) -> tuple[float, ...]:
        """Per-rank rows in the frame ``device_rows`` is stated in.

        The scalar ``device_rows`` anchors the bottleneck rank's load to
        the uniform per-device batch: ``E * load_r / n_r`` for a rank
        hosting ``n_r`` experts (0 for expertless ranks) — under uniform
        routing every hosting rank anchors to exactly ``routed_rows``,
        and at the contiguous hot rank the expression reduces to the
        scalar formula, which is what makes ``device_rows ==
        max(anchored_rank_rows)`` (up to the ceil).  Under a capacity
        factor the frame is the padded collective buffer instead:
        ``n_r * W * C`` rows on rank ``r``.

        This is the vector the hetero composition joins with each
        rank's :class:`~repro.hardware.hetero.DeviceRates` and the
        placement optimizer scores against device speeds.
        """
        placement = self.effective_placement()
        counts = placement.counts()
        if self.capacity is not None:
            w, cap = self.world_size, self.capacity
            return tuple(float(n * w * cap) for n in counts)
        loads = self.rank_rows()
        e = self.num_experts
        return tuple(
            e * load / n if n else 0.0 for load, n in zip(loads, counts)
        )

    def traffic(self) -> tuple[float, ...] | None:
        """Per-rank relative All-to-All traffic, or None for the default.

        ``None`` keeps the seed collective model (every participant
        equally loaded, the slowest link gates).  For an explicit
        placement the entries are proportional to the bytes each rank
        receives — physical rows when uncapped, padded buffer slots
        under a capacity factor — which is what lets
        :meth:`repro.hardware.topology.ClusterTopology.alltoall_bandwidth`
        relieve a degraded link that the placement keeps lightly loaded.
        """
        if self.placement is None:
            return None
        if self.capacity is not None:
            return tuple(float(n) for n in self.placement.counts())
        return self.rank_rows()


@dataclass(frozen=True)
class WorkloadSpec:
    """Typed routing workload: top-k, activation dtype, gating skew.

    ``top_k=None`` inherits the layer spec's k (the presets use 1);
    ``imbalance`` is the hottest expert's load as a multiple of the
    uniform per-expert share (1.0 = perfectly balanced gating);
    ``capacity_factor=None`` disables capacity padding and dropping.

    The default instance is *neutral* for any k=1 spec: it resolves to
    the exact integer arithmetic of the pre-workload pricing layers,
    which is what keeps the golden traces bit-identical.
    """

    top_k: int | None = None
    bytes_per_elem: int = DTYPE_BYTES[TIMING_DTYPE]
    imbalance: float = 1.0
    capacity_factor: float | None = None
    placement: PlacementSpec | None = None

    def __post_init__(self) -> None:
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be >= 1 (or None for the spec's k)")
        if self.bytes_per_elem < 1:
            raise ValueError("bytes_per_elem must be >= 1")
        if not (math.isfinite(self.imbalance) and self.imbalance >= 1.0):
            raise ValueError(
                "imbalance is the hottest-expert load ratio; it must be a "
                "finite value >= 1.0 (1.0 = uniform routing)"
            )
        if self.capacity_factor is not None and not (
            math.isfinite(self.capacity_factor) and self.capacity_factor > 0
        ):
            raise ValueError("capacity_factor must be finite and positive (or None)")
        if self.placement is not None and not isinstance(
            self.placement, PlacementSpec
        ):
            raise TypeError(
                "placement must be a repro.perfmodel.placement.PlacementSpec "
                f"(got {type(self.placement).__name__})"
            )

    @property
    def placed(self) -> bool:
        """Whether a non-default placement steers the pricing.

        The default contiguous placement *is* the seed model, so it
        prices through the exact pre-placement code paths — only a
        non-default placement activates the per-rank machinery.
        """
        return self.placement is not None and not self.placement.is_default

    @classmethod
    def for_dtype(cls, dtype: str, **kwargs) -> "WorkloadSpec":
        """A spec whose activations travel as ``dtype`` elements."""
        try:
            bytes_per_elem = DTYPE_BYTES[dtype]
        except KeyError:
            raise ValueError(
                f"unknown activation dtype {dtype!r}; available: "
                f"{sorted(DTYPE_BYTES)}"
            ) from None
        return cls(bytes_per_elem=bytes_per_elem, **kwargs)

    # -- resolution ----------------------------------------------------------
    def resolved_k(self, spec) -> int:
        """The effective routing fan-out for ``spec`` (a MoELayerSpec)."""
        k = self.top_k if self.top_k is not None else spec.top_k
        if k > spec.num_experts:
            raise ValueError(
                f"top_k={k} exceeds num_experts={spec.num_experts}"
            )
        return k

    def is_neutral(self, spec) -> bool:
        """Whether this spec reproduces the pre-workload defaults exactly."""
        return (
            self.resolved_k(spec) == 1
            and self.bytes_per_elem == DTYPE_BYTES[TIMING_DTYPE]
            and self.imbalance == 1.0
            and self.capacity_factor is None
            and not self.placed
        )

    # -- the load model ------------------------------------------------------
    def load(self, spec, batch: int, world_size: int = 1) -> RoutedLoad:
        """Compile the routing geometry for one (spec, batch, world) point.

        The skew model: the hottest expert draws ``imbalance`` times the
        uniform per-expert share (clamped to the whole batch), the other
        ``E - 1`` experts split the remainder evenly, and the bottleneck
        device is the one hosting the hot expert — ``ceil(E / W)``
        experts per rank dilute the skew, so a single hot expert hurts most at
        one-expert-per-GPU scale (and not at all at ``world_size=1``,
        where every device holds every expert).
        """
        if batch < 1:
            raise ValueError("batch must be >= 1")
        k = self.resolved_k(spec)
        e = spec.num_experts
        w = max(1, world_size)
        placement = (
            self.placement.resolve(e, w) if self.placed else None
        )
        if placement is None:
            # The bottleneck device hosts ceil(E / W) experts: with uneven
            # sharding the fattest rank holds the extra expert (flooring
            # here would model a device *smaller* than any real one and
            # price mild skew below uniform).
            experts_per_rank = -(-e // w)
        else:
            # The fattest rank under the actual placement (a shadow
            # replica counts — it stores a full expert copy).
            experts_per_rank = placement.max_experts_per_rank
        routed = batch * k

        if e == 1:
            hot = cold = float(routed)
        else:
            uniform = routed / e
            hot = min(self.imbalance * uniform, float(routed))
            cold = (routed - hot) / (e - 1)

        capacity = (
            expert_capacity(batch, e, k, self.capacity_factor)
            if self.capacity_factor is not None
            else None
        )

        if capacity is None:
            overflow = 0
            pressure = None
            if placement is None and self.imbalance == 1.0:
                # Pure-integer fast path: neutral (and uniform top-k)
                # workloads must resolve without float round-trips.
                device_rows = routed
            elif placement is None:
                # Bottleneck ratio: the hot rank's load over a uniform
                # rank's, normalized so any expert/world geometry —
                # including E % W != 0 and W > E — stays anchored to the
                # uniform per-device frame.  Skew can only add rows, so
                # clamp at the uniform value against float rounding.
                hot_rank = hot + (experts_per_rank - 1) * cold
                uniform_rank = experts_per_rank * (routed / e)
                device_rows = max(
                    routed, math.ceil(routed * hot_rank / uniform_rank)
                )
            elif self.imbalance == 1.0 and placement.shadow is None:
                # Under uniform routing every hosting rank anchors to
                # exactly ``routed`` whatever the assignment, so any
                # shadow-free placement resolves through the same
                # integer fast path (placement only matters with skew).
                device_rows = routed
            else:
                # Per-rank generalization of the bottleneck ratio:
                # anchor each rank's load to the uniform per-device
                # frame through its own expert count (``E * load_r /
                # n_r``) and take the worst rank.  At the contiguous hot
                # rank this reduces to the scalar formula above; a
                # shadow can genuinely land below ``routed`` (it splits
                # the hot rows), so only shadow-free placements clamp.
                counts = placement.counts()
                loads = placement.rank_loads((hot,) + (cold,) * (e - 1))
                worst = max(
                    e * load / n for load, n in zip(loads, counts) if n
                )
                device_rows = max(1, math.ceil(worst))
                if placement.shadow is None:
                    device_rows = max(routed, device_rows)
        else:
            # Equal-shaped collective buffers: every device computes and
            # ships its padded (E_local, W, C) buffer regardless of how
            # the load actually lands; skew shows up as overflow.  The
            # fattest rank's buffer is ceil(E/W) * W * C rows (under a
            # placement, the fattest *placed* rank's buffer).
            device_rows = experts_per_rank * w * capacity
            # Count drops on the canonical integer realization of the
            # skew — the hot expert takes ceil(hot) rows, the cold
            # experts split the remainder by largest remainder — so the
            # priced overflow is exactly what ``core.dispatch
            # .plan_dispatch`` drops for that routing (a float ceil over
            # the summed excesses can land one row high when the cold
            # share is a repeating fraction).
            n_hot = math.ceil(hot)
            if (
                placement is not None
                and placement.shadow is not None
                and placement.shadow[0] == 0
            ):
                # The replica doubles the hot expert's capacity slots:
                # its rows split ceil/floor across the two buffers.
                high = -(-n_hot // 2)
                overflow = max(0, high - capacity)
                overflow += max(0, n_hot - high - capacity)
                pressure = (hot / 2) / capacity
            else:
                overflow = max(0, n_hot - capacity)
                pressure = hot / capacity
            if e > 1:
                base, extra = divmod(routed - n_hot, e - 1)
                overflow += extra * max(0, base + 1 - capacity)
                overflow += (e - 1 - extra) * max(0, base - capacity)

        return RoutedLoad(
            num_experts=e,
            experts_per_rank=experts_per_rank,
            world_size=w,
            routed_rows=routed,
            capacity=capacity,
            hot_rows=hot,
            cold_rows=cold,
            device_rows=device_rows,
            overflow_rows=overflow,
            hot_pressure=pressure,
            placement=placement,
        )

    def device_rows(self, spec, batch: int, world_size: int = 1) -> int:
        """Rows the bottleneck device computes and exchanges.

        This is the drop-in replacement for the raw batch in every
        pricing formula; neutral specs return ``batch`` unchanged (as an
        int, through integer arithmetic only).
        """
        return self.load(spec, batch, world_size).device_rows

    def resolve_bytes(self, bytes_per_elem: int | None) -> int:
        """Reconcile an explicit byte-width argument with this spec.

        Call sites that used to take ``bytes_per_elem`` directly keep
        their parameter for backward compatibility, but a value that
        contradicts the workload would price comm and memcpy with
        inconsistent widths — that is rejected loudly.
        """
        if bytes_per_elem is not None and bytes_per_elem != self.bytes_per_elem:
            raise ValueError(
                f"bytes_per_elem={bytes_per_elem} contradicts the workload's "
                f"{self.bytes_per_elem}-byte activations; drop the explicit "
                f"argument or align the WorkloadSpec"
            )
        return self.bytes_per_elem
