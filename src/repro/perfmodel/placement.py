"""First-class expert placement: the expert → rank map.

Until this module the pricing stack assumed one placement implicitly:
contiguous ``ceil(E / W)`` sharding with the hot expert landing on the
fattest rank (:meth:`repro.perfmodel.workload.WorkloadSpec.load`), the
All-to-All gated by the slowest participant regardless of who actually
receives the traffic, and Eq. 5 checked against ``E / W`` experts per
device.  :class:`ExpertPlacement` makes the assignment an input:

* :class:`ExpertPlacement` — a concrete, resolved expert→rank map for
  one ``(E, W)`` geometry, plus an optional *shadow* (a FasterMoE-style
  replica of one expert on a second rank that splits its rows);
* :class:`PlacementSpec` — the strategy-level description that rides a
  :class:`~repro.perfmodel.workload.WorkloadSpec` (and therefore every
  memo/cache key): a named strategy, resolved into an
  :class:`ExpertPlacement` once the geometry is known.

Strategies
----------
``contiguous``
    Today's default: expert ``e`` lives on rank ``e // ceil(E/W)``.  By
    definition this *is* the seed model — every pricing layer treats a
    contiguous placement exactly like no placement at all (the seed's
    "hot expert on the bottleneck rank" assumption), which is what keeps
    it byte-identical across engines and evaluator paths.
``round_robin``
    Expert ``e`` lives on rank ``e % W`` — spreads consecutive experts,
    so the hot expert shares its rank with fewer hot neighbours when
    ``E > W``.
``explicit``
    A caller-supplied assignment tuple (what the optimizer emits).
``shadowed``
    Contiguous, plus the hottest expert replicated onto the least-loaded
    other rank; the replica and the original each serve half the hot
    rows (pricing-only — no new dispatch mechanics).
``optimized``
    Placeholder resolved *upstream* by
    :func:`repro.perfmodel.placeopt.optimize_placement` (it needs the
    per-rank hetero rates and the Eq. 5 memory bounds, which this
    dependency-free module cannot see).  Resolving it here is an error.

This module is deliberately stdlib-only so
:mod:`repro.perfmodel.workload` can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Every named placement strategy.  ``explicit`` carries its own
#: assignment; ``optimized`` must be resolved by the optimizer before it
#: reaches the pricing layers.
PLACEMENT_STRATEGIES = (
    "contiguous",
    "round_robin",
    "explicit",
    "shadowed",
    "optimized",
)

#: The strategies a sweep axis can name (``explicit`` needs a tuple, so
#: it is API-only).
PLACEMENT_AXIS_VALUES = ("contiguous", "round_robin", "shadowed", "optimized")


def contiguous_assignment(num_experts: int, world_size: int) -> tuple[int, ...]:
    """The seed sharding: expert ``e`` on rank ``e // ceil(E / W)``.

    Rank 0 hosts the first ``ceil(E / W)`` experts — including expert 0,
    the hot one under the two-level skew model — so the fattest rank and
    the hot rank coincide, exactly the implicit assumption the scalar
    ``device_rows`` formula priced.
    """
    per = -(-num_experts // world_size)
    return tuple(e // per for e in range(num_experts))


def round_robin_assignment(num_experts: int, world_size: int) -> tuple[int, ...]:
    """Expert ``e`` on rank ``e % W``."""
    return tuple(e % world_size for e in range(num_experts))


@dataclass(frozen=True)
class ExpertPlacement:
    """A resolved expert → rank map for one ``(E, W)`` geometry.

    ``assignment[e]`` is the host rank of expert ``e``; ``shadow``
    optionally replicates one expert onto a second rank, splitting that
    expert's rows evenly between host and replica (FasterMoE-style
    shadowing, priced without new dispatch mechanics).  Frozen and
    hashable, so it can ride memo keys.
    """

    num_experts: int
    world_size: int
    assignment: tuple[int, ...]
    shadow: tuple[int, int] | None = None  # (expert, replica rank)

    def __post_init__(self) -> None:
        if self.num_experts < 1 or self.world_size < 1:
            raise ValueError("num_experts and world_size must be >= 1")
        if len(self.assignment) != self.num_experts:
            raise ValueError(
                f"assignment has {len(self.assignment)} entries for "
                f"{self.num_experts} experts"
            )
        for expert, rank in enumerate(self.assignment):
            if not 0 <= rank < self.world_size:
                raise ValueError(
                    f"expert {expert} assigned to rank {rank}, outside "
                    f"[0, {self.world_size})"
                )
        if self.shadow is not None:
            expert, rank = self.shadow
            if not 0 <= expert < self.num_experts:
                raise ValueError(f"shadow expert {expert} does not exist")
            if not 0 <= rank < self.world_size:
                raise ValueError(f"shadow rank {rank} outside the world")
            if rank == self.assignment[expert]:
                raise ValueError(
                    "shadow replica must live on a different rank than its "
                    "original"
                )

    # -- constructors --------------------------------------------------------
    @classmethod
    def contiguous(cls, num_experts: int, world_size: int) -> "ExpertPlacement":
        return cls(
            num_experts, world_size, contiguous_assignment(num_experts, world_size)
        )

    @classmethod
    def round_robin(cls, num_experts: int, world_size: int) -> "ExpertPlacement":
        return cls(
            num_experts, world_size, round_robin_assignment(num_experts, world_size)
        )

    @classmethod
    def shadowed(
        cls, num_experts: int, world_size: int, shadow_rank: int | None = None
    ) -> "ExpertPlacement":
        """Contiguous plus a replica of the hot expert (index 0).

        ``shadow_rank=None`` picks the least-loaded rank other than the
        hot expert's host (ties break on the highest rank index, which
        under contiguous ceil-sharding is the rank holding the
        remainder).  Needs ``world_size >= 2``.
        """
        if world_size < 2:
            raise ValueError("shadowing needs at least two ranks")
        assignment = contiguous_assignment(num_experts, world_size)
        host = assignment[0]
        if shadow_rank is None:
            counts = [0] * world_size
            for rank in assignment:
                counts[rank] += 1
            candidates = [r for r in range(world_size) if r != host]
            shadow_rank = max(candidates, key=lambda r: (-counts[r], r))
        return cls(num_experts, world_size, assignment, shadow=(0, shadow_rank))

    # -- structure queries ---------------------------------------------------
    def counts(self) -> tuple[int, ...]:
        """Experts hosted per rank, shadow replica included.

        The replica stores a full copy of its expert's parameters, so it
        counts toward the shadow rank's Eq. 1 model states.
        """
        out = [0] * self.world_size
        for rank in self.assignment:
            out[rank] += 1
        if self.shadow is not None:
            out[self.shadow[1]] += 1
        return tuple(out)

    @property
    def max_experts_per_rank(self) -> int:
        return max(self.counts())

    # -- load projection -----------------------------------------------------
    def rank_loads(self, per_expert_rows) -> tuple[float, ...]:
        """Per-rank row totals for per-expert loads ``per_expert_rows``.

        Rows are in whatever frame the input uses (per-source rows,
        shares, ...).  A shadowed expert's rows split evenly between its
        host and its replica, so the vector still sums to
        ``sum(per_expert_rows)`` — the conservation property the
        placement tests pin.
        """
        if len(per_expert_rows) != self.num_experts:
            raise ValueError(
                f"expected {self.num_experts} per-expert loads, got "
                f"{len(per_expert_rows)}"
            )
        out = [0.0] * self.world_size
        shadow = self.shadow
        for expert, rows in enumerate(per_expert_rows):
            if shadow is not None and expert == shadow[0]:
                half = rows / 2.0
                out[self.assignment[expert]] += half
                out[shadow[1]] += half
            else:
                out[self.assignment[expert]] += rows
        return tuple(out)


@dataclass(frozen=True)
class PlacementSpec:
    """Strategy-level placement description carried by a workload.

    Frozen and hashable so it joins every key a
    :class:`~repro.perfmodel.workload.WorkloadSpec` joins (evaluator
    memos, scenario digests, sweep caches).  :meth:`resolve` turns it
    into a concrete :class:`ExpertPlacement` once ``(E, W)`` are known.

    ``assignment`` is only meaningful (and required) for ``explicit``;
    ``shadow_rank`` adds a replica of the hot expert (index 0) on that
    rank for ``explicit``, or overrides the auto-picked replica rank for
    ``shadowed``.
    """

    strategy: str = "contiguous"
    assignment: tuple[int, ...] | None = None
    shadow_rank: int | None = None

    def __post_init__(self) -> None:
        if self.strategy not in PLACEMENT_STRATEGIES:
            raise ValueError(
                f"unknown placement strategy {self.strategy!r}; available: "
                f"{PLACEMENT_STRATEGIES}"
            )
        if self.strategy == "explicit":
            if self.assignment is None:
                raise ValueError("explicit placement needs an assignment tuple")
            object.__setattr__(self, "assignment", tuple(self.assignment))
        elif self.assignment is not None:
            raise ValueError(
                f"assignment only applies to strategy='explicit', not "
                f"{self.strategy!r}"
            )
        if self.shadow_rank is not None:
            if self.strategy not in ("explicit", "shadowed"):
                raise ValueError(
                    f"shadow_rank only applies to 'explicit'/'shadowed' "
                    f"placements, not {self.strategy!r}"
                )
            if self.shadow_rank < 0:
                raise ValueError("shadow_rank must be >= 0")

    # -- convenience constructors -------------------------------------------
    @classmethod
    def contiguous(cls) -> "PlacementSpec":
        return cls("contiguous")

    @classmethod
    def round_robin(cls) -> "PlacementSpec":
        return cls("round_robin")

    @classmethod
    def shadowed(cls, shadow_rank: int | None = None) -> "PlacementSpec":
        return cls("shadowed", shadow_rank=shadow_rank)

    @classmethod
    def explicit(
        cls, assignment, shadow_rank: int | None = None
    ) -> "PlacementSpec":
        return cls("explicit", assignment=tuple(assignment), shadow_rank=shadow_rank)

    @property
    def is_default(self) -> bool:
        """Whether this spec is the seed sharding, priced as no placement.

        The contiguous strategy is *defined* as today's implicit model —
        hot expert on the fattest rank, collective gated by the slowest
        participant — so every layer routes it through the exact seed
        code path (the byte-identity contract the property tests pin).
        """
        return self.strategy == "contiguous" and self.shadow_rank is None

    def resolve(self, num_experts: int, world_size: int) -> ExpertPlacement:
        """The concrete map for one geometry; ``optimized`` must already
        have been lowered to ``explicit`` by the optimizer."""
        if self.strategy == "optimized":
            raise ValueError(
                "an 'optimized' placement must be resolved by "
                "repro.perfmodel.placeopt.optimize_placement (it needs the "
                "per-rank hetero rates and per-device memory bounds) before it "
                "reaches the pricing layers"
            )
        if self.strategy == "contiguous":
            return ExpertPlacement.contiguous(num_experts, world_size)
        if self.strategy == "round_robin":
            return ExpertPlacement.round_robin(num_experts, world_size)
        if self.strategy == "shadowed":
            return ExpertPlacement.shadowed(
                num_experts, world_size, shadow_rank=self.shadow_rank
            )
        # explicit
        shadow = None
        if self.shadow_rank is not None:
            shadow = (0, self.shadow_rank)
        return ExpertPlacement(
            num_experts, world_size, self.assignment, shadow=shadow
        )

    def label(self) -> str:
        """Compact tag for scenario labels."""
        tag = self.strategy
        if self.shadow_rank is not None:
            tag += f"+shadow@{self.shadow_rank}"
        return tag
