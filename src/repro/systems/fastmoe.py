"""FastMoE baseline: primitive expert parallelism.

The paper's characterisation (Sec. V-B): no pipelining — the All-to-All
and expert computation are synchronous, blocking stages ("Inefficient
Synchronous Communication", Sec. II-A) — and the GEMMs do not use the
tensor-core path MPipeMoE's kernels hit, modeled by ``gemm_derate``.

Memory is the plain Eq. 1-3 footprint (the Fig. 9 normalisation
baseline).

Under a heterogeneous context the sequential timeline is priced on the
worst device profile like every other system — FastMoE has no overlap
to hide a straggler behind, so its slowdown tracks the straggler's
severity almost linearly.
"""

from __future__ import annotations

from repro.config import MoELayerSpec
from repro.perfmodel.workload import WorkloadSpec
from repro.systems.base import SystemContext, SystemModel, SystemReport

#: Fraction of MPipeMoE's sustained GEMM rate FastMoE achieves (no
#: tensor-core fusion; Sec. V-C attributes part of PipeMoE(n=1)'s edge
#: over FastMoE to Tensor Cores).
FASTMOE_GEMM_DERATE = 0.6


class FastMoEModel(SystemModel):
    name = "FastMoE"

    def __init__(self, context: SystemContext | None = None,
                 gemm_derate: float = FASTMOE_GEMM_DERATE) -> None:
        super().__init__(context)
        self.gemm_derate = gemm_derate

    def evaluate(
        self,
        spec: MoELayerSpec,
        batch: int,
        workload: WorkloadSpec | None = None,
    ) -> SystemReport:
        evaluator = self.context.evaluator
        timing = evaluator.timing(
            spec, batch, 1, "none",
            sequential=True, gemm_derate=self.gemm_derate, workload=workload,
        )
        memory = evaluator.footprint_bytes(
            spec, batch, pipelined=False, workload=workload
        )
        return self._report(spec, batch, timing, memory, n=1, strategy="none")
