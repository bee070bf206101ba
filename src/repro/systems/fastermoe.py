"""FasterMoE baseline (He et al., PPoPP'22) as the paper models it.

Characteristics reproduced (Sec. III-B, Fig. 5a; Sec. V-D):

* pipeline parallelism at a **fixed, pre-defined granularity** — "the
  granularity of pipelining is pre-defined and it is fixed throughout
  the training" (Sec. I);
* the batch is split **by destination rank**, so each partition's
  exchange is a set of point-to-point transfers: NCCL's fused-collective
  optimisations are lost and heterogeneous link bandwidth makes faster
  workers wait (priced by
  :meth:`~repro.comm.cost.NcclCostModel.decomposed_alltoall_time`);
* **dynamic shadowing** replicates hot experts locally, costing extra
  device memory — "FasterMoE requires more memory than FastMoE because
  of the dynamic shadowing and smart scheduling" (Sec. V-D).

Heterogeneous contexts hit FasterMoE twice: the decomposed exchange
already gates on the slowest pairwise path, and a degraded link lowers
the underlying topology bandwidth on top of the ``STRAGGLER_FACTOR``
penalty, while compute skew stretches its fixed-n pipeline like every
other system.
"""

from __future__ import annotations

from repro.config import MoELayerSpec
from repro.perfmodel.workload import WorkloadSpec
from repro.systems.base import SystemContext, SystemModel, SystemReport

#: FasterMoE's fixed pipeline degree (its coarse-grained default).
FASTERMOE_FIXED_N = 2

#: Same non-tensor-core GEMM derate as FastMoE (shared cuBLAS path).
FASTERMOE_GEMM_DERATE = 0.6

#: Shadowed experts per device: model states of shadowed replicas plus
#: their gradient buffers.  Two shadows of the (2*H*M) expert weights in
#: fp16 + fp32 grad accumulation lands at ~15-25% of the baseline
#: footprint for the paper's models, matching Fig. 9's FasterMoE bars.
SHADOWED_EXPERTS = 2


class FasterMoEModel(SystemModel):
    name = "FasterMoE"

    def __init__(
        self,
        context: SystemContext | None = None,
        fixed_n: int = FASTERMOE_FIXED_N,
        gemm_derate: float = FASTERMOE_GEMM_DERATE,
        shadowed_experts: int = SHADOWED_EXPERTS,
    ) -> None:
        super().__init__(context)
        if fixed_n < 1:
            raise ValueError("fixed_n must be >= 1")
        self.fixed_n = fixed_n
        self.gemm_derate = gemm_derate
        self.shadowed_experts = shadowed_experts

    def shadowing_bytes(self, spec: MoELayerSpec) -> int:
        """Device memory of shadowed expert replicas (params + grads, x2)."""
        fp = self.context.evaluator.footprint(spec)
        per_expert = spec.expert_params * fp.bytes_per_elem
        return 2 * self.shadowed_experts * per_expert

    def evaluate(
        self,
        spec: MoELayerSpec,
        batch: int,
        workload: WorkloadSpec | None = None,
    ) -> SystemReport:
        n = min(self.fixed_n, self.context.effective_world)
        evaluator = self.context.evaluator
        timing = evaluator.timing(
            spec, batch, n, "none",
            decomposed_comm=True, gemm_derate=self.gemm_derate,
            workload=workload,
        )
        memory = evaluator.footprint_bytes(
            spec, batch, pipelined=n > 1, workload=workload
        ) + self.shadowing_bytes(spec)
        return self._report(spec, batch, timing, memory, n=n, strategy="none")
