"""MPipeMoE: the full system — adaptive pipeline + adaptive memory reuse.

Granularity comes from Algorithm 1 (shared with PipeMoE); the memory
reuse strategy comes from simulated trial iterations of S1-S4 (the
runtime-measurement analogue of Sec. III-E's selection) unless pinned
via ``fixed_strategy`` (reproducing Fig. 13's S1-S4 ablations).  The
closed-form Eq. 10 selector is the sweep's ``eq10`` objective.  The
reported footprint applies the Eq. 5 savings to the pipelined footprint.

Built on a heterogeneous context (``SystemContext(hetero=...)``), the
trials re-run under the skew: they price every (n, strategy) candidate
on the straggler's device profiles with the link-degraded collectives,
which is how a slow node flips the choice from S1 toward
recompute-heavy strategies (``benchmarks/bench_straggler_sensitivity.py``).
"""

from __future__ import annotations

from repro.config import MoELayerSpec
from repro.memory.strategies import get_strategy
from repro.perfmodel.workload import WorkloadSpec
from repro.systems.base import SystemContext, SystemModel, SystemReport
from repro.systems.pipemoe import PipeMoEModel

#: Strategy-search candidates of Sec. III-E (Table II's reuse rows).
REUSE_STRATEGIES = ("S1", "S2", "S3", "S4")


class MPipeMoEModel(SystemModel):
    name = "MPipeMoE"

    def __init__(
        self,
        context: SystemContext | None = None,
        fixed_n: int | None = None,
        fixed_strategy: str | None = None,
    ) -> None:
        super().__init__(context)
        self.pipemoe = PipeMoEModel(self.context, fixed_n=fixed_n)
        if fixed_strategy is not None:
            get_strategy(fixed_strategy)
            self.name = f"MPipeMoE({fixed_strategy})"
        self.fixed_strategy = fixed_strategy

    def _simulated_strategy(
        self,
        spec: MoELayerSpec,
        batch: int,
        n: int,
        workload: WorkloadSpec | None = None,
    ) -> str:
        evaluator = self.context.evaluator
        # All four reuse strategies share the Eq. 5 footprint, so the
        # capacity check is loop-invariant: one probe decides feasibility
        # for the whole search.
        if not evaluator.fits(spec, batch, n, workload=workload):
            raise MemoryError(f"no reuse strategy fits batch={batch}, n={n}")
        best_name, best_time = None, float("inf")
        for name in REUSE_STRATEGIES:
            t = evaluator.makespan(spec, batch, n, name, workload=workload)
            if t < best_time:
                best_name, best_time = name, t
        return best_name

    def choose_strategy(
        self,
        spec: MoELayerSpec,
        batch: int,
        n: int,
        workload: WorkloadSpec | None = None,
    ) -> str:
        if n < 2:
            return "none"
        if self.fixed_strategy is not None:
            return self.fixed_strategy
        return self._simulated_strategy(spec, batch, n, workload)

    def evaluate(
        self,
        spec: MoELayerSpec,
        batch: int,
        workload: WorkloadSpec | None = None,
    ) -> SystemReport:
        n = self.pipemoe.choose_n(spec, batch, workload)
        strategy = self.choose_strategy(spec, batch, n, workload)
        evaluator = self.context.evaluator
        timing = evaluator.timing(spec, batch, n, strategy, workload=workload)
        reuse_n = n if strategy != "none" else 0
        memory = evaluator.footprint_bytes(
            spec, batch, pipelined=n > 1, reuse_n=reuse_n, workload=workload
        )
        return self._report(spec, batch, timing, memory, n=n, strategy=strategy)
