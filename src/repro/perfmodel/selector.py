"""Runtime strategy selection (paper Sec. III-E, validated in Fig. 13).

Evaluates Eq. 10 for every memory-reusing strategy (S1-S4) and picks the
cheapest one whose footprint fits the device.  "none" is never a
candidate — MPipeMoE with ``memory_reuse=True`` always reuses, trading
the small overhead (Fig. 13's MPipeMoE bar) for the Eq. 6 footprint
reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.footprint import FootprintModel
from repro.memory.strategies import STRATEGIES, Strategy
from repro.perfmodel.cost import PerfModel


@dataclass(frozen=True)
class SelectionResult:
    strategy: Strategy
    cost: float
    costs: dict[str, float]  # every candidate's modeled cost
    memory_bytes: int


class StrategySelector:
    """Pick the optimal reuse strategy for a (batch, n) operating point."""

    def __init__(
        self,
        perf_model: PerfModel,
        footprint: FootprintModel | None = None,
        device_capacity: int | None = None,
    ) -> None:
        self.perf_model = perf_model
        self.footprint = footprint
        self.device_capacity = device_capacity

    def memory_bytes(self, strategy: Strategy, batch: int, n: int) -> int:
        """Per-device peak under ``strategy`` (reuse shrinks per Eq. 5)."""
        if self.footprint is None:
            return 0
        reuse_n = n if strategy.reuses_memory else 0
        return self.footprint.total_bytes(batch, pipelined=True, reuse_n=reuse_n)

    def fits(self, strategy: Strategy, batch: int, n: int) -> bool:
        if self.device_capacity is None or self.footprint is None:
            return True
        return self.memory_bytes(strategy, batch, n) <= self.device_capacity

    def select(self, batch: int, n: int) -> SelectionResult:
        """Cheapest feasible strategy by Eq. 10.

        Raises ``MemoryError`` when nothing fits — the caller should then
        reduce the batch size (the paper's motivation for reuse is
        exactly to push that wall outward).
        """
        costs: dict[str, float] = {}
        best: tuple[Strategy, float] | None = None
        for name, strategy in STRATEGIES.items():
            if not strategy.reuses_memory or n < 2:
                continue
            cost = self.perf_model.iteration_cost(strategy, batch, n)
            costs[name] = cost
            if not self.fits(strategy, batch, n):
                continue
            if best is None or cost < best[1]:
                best = (strategy, cost)
        if best is None:
            raise MemoryError(
                f"no memory-reuse strategy fits batch={batch}, n={n} within "
                f"capacity {self.device_capacity}"
            )
        strategy, cost = best
        return SelectionResult(
            strategy=strategy,
            cost=cost,
            costs=costs,
            memory_bytes=self.memory_bytes(strategy, batch, n),
        )
