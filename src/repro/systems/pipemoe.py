"""PipeMoE: MPipeMoE's pipeline parallelism without memory reuse.

Split-by-B micro-batches with fused fine-grained NCCL All-to-Alls
(Fig. 5b) and, by default, the adaptive granularity of Algorithm 1;
pass ``fixed_n`` to reproduce the PipeMoE(n=k) ablations of
Figs. 8, 11 and 12.

On a heterogeneous context the Algorithm 1 trials price candidates on
the straggler device profiles, so the selected n shifts with the skew:
a compute straggler makes fine pipelining pay launch overhead and GEMM
undersaturation for compute it can no longer hide, pushing the argmin
toward coarser n.
"""

from __future__ import annotations

from repro.config import MoELayerSpec
from repro.perfmodel.workload import WorkloadSpec
from repro.pipeline.granularity import GranularitySearcher
from repro.systems.base import SystemContext, SystemModel, SystemReport

DEFAULT_CANDIDATES = (1, 2, 4, 8, 16)


class PipeMoEModel(SystemModel):
    name = "PipeMoE"

    def __init__(
        self,
        context: SystemContext | None = None,
        fixed_n: int | None = None,
        candidates: tuple[int, ...] = DEFAULT_CANDIDATES,
    ) -> None:
        super().__init__(context)
        if fixed_n is not None and fixed_n < 1:
            raise ValueError("fixed_n must be >= 1")
        self.fixed_n = fixed_n
        self.candidates = candidates
        # Keyed (spec name, workload): Algorithm 1's learned B->n ranges
        # are workload-specific — a skewed or k>1 routing shifts them.
        self._searchers: dict[tuple, GranularitySearcher] = {}
        if fixed_n is not None:
            self.name = f"PipeMoE(n={fixed_n})"

    def choose_n(
        self,
        spec: MoELayerSpec,
        batch: int,
        workload: WorkloadSpec | None = None,
    ) -> int:
        """Algorithm 1 per model spec (a layer has its own searcher state).

        Trials price candidates through the shared evaluator's
        makespan-only path: no Op DAG or trace is built per candidate,
        and repeat probes (including MPipeMoE's) hit the memo.
        """
        if self.fixed_n is not None:
            return self.fixed_n
        key = (spec.name, workload)
        searcher = self._searchers.get(key)
        if searcher is None:
            evaluator = self.context.evaluator
            searcher = GranularitySearcher(
                evaluate=lambda b, n: evaluator.makespan(
                    spec, b, n, "none", workload=workload
                ),
                candidates=self.candidates,
            )
            self._searchers[key] = searcher
        return searcher.configure(batch)

    def evaluate(
        self,
        spec: MoELayerSpec,
        batch: int,
        workload: WorkloadSpec | None = None,
    ) -> SystemReport:
        n = self.choose_n(spec, batch, workload)
        evaluator = self.context.evaluator
        timing = evaluator.timing(spec, batch, n, "none", workload=workload)
        memory = evaluator.footprint_bytes(
            spec, batch, pipelined=n > 1, workload=workload
        )
        return self._report(spec, batch, timing, memory, n=n, strategy="none")
