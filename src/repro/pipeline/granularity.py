"""Adaptive pipeline granularity configuration — paper Algorithm 1.

The optimal partition count n grows monotonically with the token batch
size B (the paper's hypothesis, validated in Fig. 12).  Algorithm 1
exploits this to avoid re-running trials for every B:

* a set ``S`` of disjoint ranges ``R_n = [B_lower, B_upper] -> n`` over
  the B domain (here a sorted interval list with O(log |S|) find/insert,
  the paper implements it as a binary search tree);
* a hash ``cache_table`` memoising exact B values already configured;
* ``searchBestGran(B)`` — the expensive trial search, invoked only when
  B falls outside every known range; its result either widens the range
  already mapped to that n or opens a new singleton range.

``evaluate(B, n)`` is injected so the searcher works against simulated
trials (benchmarks) or any user-provided timer (real deployments would
time actual iterations).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence


@dataclass
class _Range:
    lower: int
    upper: int
    n: int


class RangeSet:
    """Disjoint integer ranges mapped to partition counts.

    Maintains ranges sorted by lower bound; ``find`` bisects, ``insert``
    opens a singleton range, ``extend`` widens an n's range to cover a
    new B (clamped against neighbours so disjointness is preserved even
    if the monotonicity hypothesis is violated by a noisy trial).
    """

    def __init__(self) -> None:
        self._ranges: list[_Range] = []

    def __len__(self) -> int:
        return len(self._ranges)

    def __iter__(self):
        return iter((r.lower, r.upper, r.n) for r in self._ranges)

    def find(self, b: int) -> int | None:
        """Return the n whose range contains ``b``, else None (line 6)."""
        idx = bisect.bisect_right(self._lowers(), b) - 1
        if idx >= 0 and self._ranges[idx].lower <= b <= self._ranges[idx].upper:
            return self._ranges[idx].n
        return None

    def range_for(self, n: int) -> tuple[int, int] | None:
        for r in self._ranges:
            if r.n == n:
                return (r.lower, r.upper)
        return None

    def insert(self, b: int, n: int) -> None:
        """Open the singleton range (b, b) -> n (Algorithm 1 lines 10-12)."""
        if self.find(b) is not None:
            raise ValueError(f"B={b} already covered")
        if self.range_for(n) is not None:
            raise ValueError(f"n={n} already has a range; use extend")
        bisect.insort(self._ranges, _Range(b, b, n), key=lambda r: r.lower)

    def extend(self, b: int, n: int) -> None:
        """Widen n's range to include ``b`` (Algorithm 1 lines 13-14).

        The new bounds are min/max with the existing range, clamped so the
        widened range never swallows a neighbouring range's domain.
        """
        idx = next(
            (i for i, r in enumerate(self._ranges) if r.n == n), None
        )
        if idx is None:
            raise KeyError(f"no range for n={n}")
        r = self._ranges[idx]
        new_lower = min(r.lower, b)
        new_upper = max(r.upper, b)
        if idx > 0:
            new_lower = max(new_lower, self._ranges[idx - 1].upper + 1)
        if idx + 1 < len(self._ranges):
            new_upper = min(new_upper, self._ranges[idx + 1].lower - 1)
        r.lower, r.upper = new_lower, new_upper

    def _lowers(self) -> list[int]:
        return [r.lower for r in self._ranges]


@dataclass
class SearchStats:
    trials: int = 0
    cache_hits: int = 0
    range_hits: int = 0
    searches: int = 0


class GranularitySearcher:
    """Online configurator: ``configure(B)`` implements Algorithm 1.

    Parameters
    ----------
    evaluate:
        ``evaluate(batch, n) -> cost`` (lower is better); one *trial*.
        Typically a simulated or measured iteration time.
    candidates:
        The n values ``searchBestGran`` tries (powers of two by default;
        candidates that do not divide ``batch`` are skipped).
    """

    def __init__(
        self,
        evaluate: Callable[[int, int], float],
        candidates: Sequence[int] = (1, 2, 4, 8, 16),
    ) -> None:
        if not candidates:
            raise ValueError("need at least one candidate granularity")
        if any(c < 1 for c in candidates):
            raise ValueError("candidates must be >= 1")
        self.evaluate = evaluate
        self.candidates = tuple(sorted(set(candidates)))
        self.ranges = RangeSet()  # the paper's S
        self.cache_table: dict[int, int] = {}
        self.stats = SearchStats()

    def configure(self, batch: int) -> int:
        """Algorithm 1: optimal n for this batch size."""
        if batch < 1:
            raise ValueError("batch must be >= 1")
        # Lines 3-5: exact-B memo.
        if batch in self.cache_table:
            self.stats.cache_hits += 1
            return self.cache_table[batch]
        # Line 6: range lookup.
        n = self.ranges.find(batch)
        if n is not None:
            self.stats.range_hits += 1
        else:
            # Lines 7-15: trial search, then grow/open the range for n.
            n = self.search_best_granularity(batch)
            if self.ranges.range_for(n) is None:
                self.ranges.insert(batch, n)
            else:
                self.ranges.extend(batch, n)
        # Line 17: memoise.
        self.cache_table[batch] = n
        return n

    def search_best_granularity(self, batch: int) -> int:
        """``searchBestGran``: evaluate every candidate by trial, take argmin.

        Divisibility is not required: the layer pads the dispatch capacity
        to a multiple of the chosen n, and the trial evaluator prices the
        padded (ceil) micro-batch.
        """
        self.stats.searches += 1
        best_n, best_cost = None, float("inf")
        for n in self.candidates:
            self.stats.trials += 1
            cost = self.evaluate(batch, n)
            if cost < best_cost:
                best_n, best_cost = n, cost
        return best_n
