"""Skew-aware expert placement optimizer (greedy + local search).

The pricing substrate (:mod:`repro.perfmodel.placement`,
:meth:`repro.perfmodel.workload.RoutedLoad.anchored_rank_rows`) makes a
placement *priceable*; this module makes it *choosable*.  The objective
is the quantity the Eq. 10 bottleneck actually gates on: the worst
rank's anchored row count divided by that rank's relative compute rate,

    score(P) = max_r  anchored_rows_r(P) / comp_r ,

so a hot expert on a 0.5x straggler costs twice what it costs on a
healthy device, and the optimizer's job is to route the heat away from
the slow metal — subject to each device's Eq. 5 memory bound (model
states for the experts it hosts plus the pipelined activations for the
rows it receives must fit).

Two searchers share that objective:

* :func:`optimize_placement` — greedy (hottest expert first, onto the
  device where it raises the score least, feasible devices only)
  followed by local-search refinement (single-expert moves and pairwise
  swaps until a sweep finds no improvement).  A candidate re-scores
  only the two ranks it touches; the exactness contract is that every
  decision equals the one a full rescan of all ranks would make, and
  each call checks its result against one full rescan before
  returning;
* :func:`exhaustive_placement` — all ``W^E`` assignments, for the small
  cases the agreement property test sweeps (``E <= 6, W <= 4``).

Both emit an *explicit* :class:`~repro.perfmodel.placement
.PlacementSpec` — the sweep runner lowers ``placement="optimized"``
scenarios through :func:`optimize_placement` before any pricing layer
sees them.
"""

from __future__ import annotations

import bisect
import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

from repro.config import BYTES_PER_ELEM, MoELayerSpec
from repro.memory.footprint import activations_elems
from repro.perfmodel.placement import PlacementSpec
from repro.perfmodel.workload import WorkloadSpec


@dataclass(frozen=True)
class PlacementProblem:
    """One optimization instance: loads, speeds, and memory bounds.

    ``per_expert_rows`` are per-source row counts (hot first — the
    order :meth:`RoutedLoad.per_expert_rows` emits); ``comp_rates`` are
    relative per-rank compute multipliers (1.0 = nominal);
    ``memory_bytes`` is the per-device Eq. 5 budget (None = unbounded).
    """

    spec: MoELayerSpec
    batch: int
    world_size: int
    per_expert_rows: tuple[float, ...]
    comp_rates: tuple[float, ...]
    memory_bytes: int | None = None
    bytes_per_elem: int = BYTES_PER_ELEM
    #: Expert-count cap per rank.  None = the balanced ``ceil(E / W)``
    #: of contiguous sharding: the optimizer re-*arranges* the balanced
    #: shard map, it does not re-size it — stacking experts on one fast
    #: rank would defeat expert parallelism's memory sharding (and the
    #: per-rank anchored pricing frame would under-charge it).
    max_per_rank: int | None = None

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.world_size < 1:
            raise ValueError("world_size must be >= 1")
        if len(self.per_expert_rows) != self.spec.num_experts:
            raise ValueError(
                f"need {self.spec.num_experts} per-expert loads, got "
                f"{len(self.per_expert_rows)}"
            )
        if len(self.comp_rates) != self.world_size:
            raise ValueError(
                f"need {self.world_size} comp rates, got "
                f"{len(self.comp_rates)}"
            )
        if min(self.comp_rates) <= 0:
            raise ValueError("comp rates must be positive")
        if self.max_per_rank is not None:
            if self.max_per_rank * self.world_size < self.spec.num_experts:
                raise ValueError(
                    f"max_per_rank={self.max_per_rank} cannot host "
                    f"{self.spec.num_experts} experts on "
                    f"{self.world_size} ranks"
                )

    @property
    def rank_cap(self) -> int:
        """The effective per-rank expert-count cap."""
        if self.max_per_rank is not None:
            return self.max_per_rank
        return -(-self.spec.num_experts // self.world_size)

    @classmethod
    def from_workload(
        cls,
        spec: MoELayerSpec,
        workload: WorkloadSpec,
        world_size: int,
        batch: int,
        comp_rates: tuple[float, ...] | None = None,
        memory_bytes: int | None = None,
    ) -> "PlacementProblem":
        """Build the instance from a workload's skew histogram.

        The workload's own placement field is ignored — the optimizer
        is choosing it.
        """
        base = replace(workload, placement=None)
        load = base.load(spec, batch, world_size)
        return cls(
            spec=spec,
            batch=batch,
            world_size=world_size,
            per_expert_rows=load.per_expert_rows(),
            comp_rates=comp_rates
            if comp_rates is not None
            else (1.0,) * world_size,
            memory_bytes=memory_bytes,
        )

    # -- objective -----------------------------------------------------------
    def rank_totals(
        self, assignment: Sequence[int]
    ) -> tuple[list[float], list[int]]:
        """Per-rank (summed rows, hosted expert count) of an assignment.

        Rows accumulate in expert-index order: the one summation order
        :meth:`score`, :meth:`feasible` and the optimizer's rescoring
        share, so their floats agree bit for bit.
        """
        loads = [0.0] * self.world_size
        counts = [0] * self.world_size
        for expert, rank in enumerate(assignment):
            loads[rank] += self.per_expert_rows[expert]
            counts[rank] += 1
        return loads, counts

    def rank_score(self, rank: int, count: int, load: float) -> float:
        """One rank's anchored rows over its rate (0 when it hosts none)."""
        if not count:
            return 0.0
        return self.spec.num_experts * load / count / self.comp_rates[rank]

    def score(self, assignment: tuple[int, ...]) -> float:
        """The bottleneck metric: worst rank's anchored rows over its rate."""
        loads, counts = self.rank_totals(assignment)
        return max(
            self.rank_score(r, counts[r], loads[r])
            for r in range(self.world_size)
        )

    # -- Eq. 5 feasibility ---------------------------------------------------
    def device_bytes(self, count: int, load: float) -> int:
        """One device's pipelined footprint hosting ``count`` experts.

        The conservative bound the optimizer enforces: Eq. 1 states for
        the hosted experts plus twice the Eq. 4 activations for the
        anchored rows (pipelined, no reuse) — exactly
        :meth:`FootprintModel.per_device_bytes` at ``pipelined=True,
        reuse_n=0``.
        """
        states = 4 * (
            self.spec.gate_params + count * self.spec.expert_params
        ) * self.bytes_per_elem
        e = self.spec.num_experts
        rows = max(0, math.ceil(e * load / count)) if count else 0
        act = activations_elems(self.spec, self.batch, rows) * self.bytes_per_elem
        return states + 2 * act

    def rank_fits(self, count: int, load: float) -> bool:
        """Whether one rank hosting ``count`` experts that receive
        ``load`` rows keeps the count cap and its Eq. 5 memory bound."""
        return count <= self.rank_cap and (
            self.memory_bytes is None
            or self.device_bytes(count, load) <= self.memory_bytes
        )

    def feasible(self, assignment: tuple[int, ...]) -> bool:
        """Whether the count cap and every Eq. 5 memory bound hold."""
        loads, counts = self.rank_totals(assignment)
        return all(
            self.rank_fits(counts[r], loads[r]) for r in range(self.world_size)
        )


def exhaustive_placement(problem: PlacementProblem) -> PlacementSpec:
    """The true optimum by enumeration — ``W^E`` assignments.

    Small cases only (the agreement test sweeps ``E <= 6, W <= 4``);
    ties break on the lexicographically smallest assignment so the
    result is deterministic.  Raises if no assignment is feasible.
    """
    e, w = problem.spec.num_experts, problem.world_size
    if w**e > 2_000_000:
        raise ValueError(
            f"exhaustive search over {w}^{e} assignments is intractable; "
            "use optimize_placement"
        )
    best: tuple[int, ...] | None = None
    best_score = math.inf
    assignment = [0] * e
    while True:
        candidate = tuple(assignment)
        if problem.feasible(candidate):
            score = problem.score(candidate)
            if score < best_score - 1e-12:
                best, best_score = candidate, score
        # odometer increment
        i = e - 1
        while i >= 0 and assignment[i] == w - 1:
            assignment[i] = 0
            i -= 1
        if i < 0:
            break
        assignment[i] += 1
    if best is None:
        raise ValueError(
            "no feasible placement under the per-device memory bound"
        )
    return PlacementSpec.explicit(best)


def optimize_placement(
    problem: PlacementProblem, max_rounds: int = 8
) -> PlacementSpec:
    """Greedy assignment plus local-search refinement.

    Greedy: experts in descending load order (hottest first), each onto
    the feasible device where the resulting bottleneck score is lowest
    — ties prefer the fastest device, then the lowest rank, so results
    are deterministic.  Refinement: alternating sweeps of single-expert
    moves and pairwise swaps, accepting strict improvements in
    first-improvement order, until a full sweep changes nothing or
    ``max_rounds`` is hit.  Raises if no feasible assignment exists
    (every expert must land somewhere).

    Scoring is incremental.  Per rank the search keeps the hosted
    experts, the rank's term of :meth:`PlacementProblem.score` and its
    :meth:`~PlacementProblem.rank_fits` verdict; a move or swap
    re-scores only the two ranks it touches, against the top three
    terms of the rest and a running count of failing ranks, and a
    per-call memo answers repeated ``(count, load)`` Eq. 5 checks.  A
    touched rank's load is re-summed in expert-index order, exactly as
    :meth:`~PlacementProblem.rank_totals` sums it, so every candidate
    scores bit-identically to a full rescan and the search picks the
    placement a full-rescan search would.  Post-condition: the result's
    full :meth:`~PlacementProblem.feasible` and
    :meth:`~PlacementProblem.score` equal the incremental verdict and
    score, else this raises ``RuntimeError``.
    """
    e, w = problem.spec.num_experts, problem.world_size
    rows, cap = problem.per_expert_rows, problem.rank_cap
    verdicts: dict[tuple[int, float], bool] = {}

    def fits(count: int, load: float) -> bool:
        ok = verdicts.get((count, load))
        if ok is None:
            ok = verdicts[count, load] = problem.rank_fits(count, load)
        return ok

    def rescore(rank: int, hosted: list[int]) -> tuple[float, float]:
        """(load, term) of ``rank`` hosting the sorted ``hosted``."""
        load = 0.0
        for expert in hosted:
            load += rows[expert]
        return load, problem.rank_score(rank, len(hosted), load)

    def top(terms: list[float], k: int) -> list[tuple[float, int]]:
        # Padded: the max over no rank is score()'s 0.0 floor.
        return heapq.nlargest(k, zip(terms, range(w))) + [(0.0, -1)] * k

    # Greedy: the worst term among the other ranks is the top term, or
    # the runner-up when the candidate rank holds the top one.
    members: list[list[int]] = [[] for _ in range(w)]
    loads, terms = [0.0] * w, [0.0] * w
    for expert in sorted(range(e), key=lambda i: (-rows[i], i)):
        (t1, r1), (t2, _) = top(terms, 2)[:2]
        best: tuple[float, float, int] | None = None
        for rank in range(w):
            count, load = len(members[rank]) + 1, loads[rank] + rows[expert]
            if not fits(count, load):
                continue
            score = max(
                t2 if rank == r1 else t1, problem.rank_score(rank, count, load)
            )
            key = (score, -problem.comp_rates[rank], rank)
            if best is None or key < best:
                best = key
        if best is None:
            raise ValueError(
                "no feasible placement under the per-device memory bound"
            )
        rank = best[2]
        bisect.insort(members[rank], expert)
        loads[rank], terms[rank] = rescore(rank, members[rank])

    current = [0] * e
    for rank, hosted in enumerate(members):
        for expert in hosted:
            current[expert] = rank
    loads, counts = problem.rank_totals(current)
    terms = [problem.rank_score(r, counts[r], loads[r]) for r in range(w)]
    bad = [not fits(counts[r], loads[r]) for r in range(w)]
    best3, failing = top(terms, 3), bad.count(True)

    def exchange(x: int, y: int | None, ra: int, rb: int) -> bool:
        """Commit "``x``: ``ra`` -> ``rb`` (and ``y``: ``rb`` -> ``ra``)"
        if the result is feasible and strictly better."""
        nonlocal best3, failing
        threshold = best3[0][0] - 1e-12
        if not next(t for t, r in best3 if r != ra and r != rb) < threshold:
            return False
        touched = []
        for rank, out, into in ((ra, x, y), (rb, y, x)):
            hosted = [m for m in members[rank] if m != out]
            if into is not None:
                bisect.insort(hosted, into)
            load, term = rescore(rank, hosted)
            if not term < threshold:
                return False
            touched.append((rank, hosted, term, not fits(len(hosted), load)))
        if failing - bad[ra] - bad[rb] + touched[0][3] + touched[1][3]:
            return False
        for rank, hosted, term, fails in touched:
            members[rank], terms[rank], bad[rank] = hosted, term, fails
        best3, failing = top(terms, 3), bad.count(True)
        return True

    for _ in range(max_rounds):
        improved = False
        for expert in range(e):
            for rank in range(w):
                src = current[expert]
                # Onto a full rank is infeasible whatever the loads.
                if rank != src and len(members[rank]) < cap and exchange(
                    expert, None, src, rank
                ):
                    current[expert] = rank
                    improved = True
        for a in range(e):
            for b in range(a + 1, e):
                ra, rb = current[a], current[b]
                if ra != rb and exchange(a, b, ra, rb):
                    current[a], current[b] = rb, ra
                    improved = True
        if not improved:
            break

    final = tuple(current)
    if (
        problem.feasible(final) != (failing == 0)
        or problem.score(final) != best3[0][0]
    ):
        raise RuntimeError(
            "incremental placement scoring disagrees with a full rescan"
        )
    return PlacementSpec.explicit(final)
