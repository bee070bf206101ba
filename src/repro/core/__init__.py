"""The paper's primary contribution: the MPipeMoE layer.

* :mod:`repro.core.experts` — FFN expert (two linear layers), with both
  an autograd path and explicit numpy forward/backward used by the
  memory-reusing pipelined executor.
* :mod:`repro.core.gating` — top-k gating network with load-balancing
  auxiliary loss (Switch Transformer style; the paper uses k=1).
* :mod:`repro.core.dispatch` — capacity-based token routing: slot
  assignment, dispatch/combine as differentiable scatter/gather.
* :mod:`repro.core.moe_layer` — the public ``MoELayer`` mirroring the
  paper's ``pmoe.MoELayer`` API (``pipeline=True, memory_reuse=True``).
"""

from repro.core.experts import ExpertFFN
from repro.core.gating import TopKGate, GateDecision
from repro.core.dispatch import DispatchPlan, plan_dispatch, dispatch_tokens, combine_tokens
from repro.core.moe_layer import MoELayer, MoEOutput

__all__ = [
    "ExpertFFN",
    "TopKGate",
    "GateDecision",
    "DispatchPlan",
    "plan_dispatch",
    "dispatch_tokens",
    "combine_tokens",
    "MoELayer",
    "MoEOutput",
]
