"""MPipeMoE reproduction — memory-efficient MoE training with adaptive
pipeline parallelism (Zhang et al., IPDPS 2023).

Public API
----------
The paper's usage pattern translates directly::

    import repro

    layer = repro.MoELayer(d_model=1024, d_hidden=4096, top_k=1,
                           num_experts=64, world_size=8,
                           pipeline=True, memory_reuse=True)

Studies — evaluating operating points across systems, cluster shapes
and batch sizes — go through the stable facade :mod:`repro.api`
(``python -m repro`` is the matching CLI)::

    from repro.api import Study, ScenarioGrid

    results = Study(ScenarioGrid(batches=(8192, 16384))).run()

See :mod:`repro.core` for the layer, :mod:`repro.systems` for the
evaluation system models (FastMoE / FasterMoE / PipeMoE / MPipeMoE),
:mod:`repro.pipeline` for adaptive pipelining, and :mod:`repro.memory`
for the reuse strategies and footprint model.  The layer names and
:mod:`repro.api` load on first access: numpy comes with the training
half (:mod:`repro.core`, :mod:`repro.tensor`), not with ``import repro``.
"""

from repro.config import (
    ClusterSpec,
    DGX_A100_CLUSTER,
    MoELayerSpec,
    MOE_BERT_L,
    MOE_GPT3_S,
    MOE_GPT3_XL,
    PipelineConfig,
    get_preset,
)
from repro.utils.lazy import lazy_exports

__version__ = "1.1.0"

__all__ = [
    "api",
    "MoELayer",
    "MoEOutput",
    "TopKGate",
    "ExpertFFN",
    "Tensor",
    "no_grad",
    "MoELayerSpec",
    "ClusterSpec",
    "PipelineConfig",
    "MOE_GPT3_S",
    "MOE_GPT3_XL",
    "MOE_BERT_L",
    "DGX_A100_CLUSTER",
    "get_preset",
]

# The numpy layer and the study facade load on first access, so `import
# repro` stays cheap and `repro.api.Study` needs no extra import.
__getattr__, __dir__ = lazy_exports(__name__, {
    "api": "repro.api",
    "MoELayer": "repro.core:MoELayer",
    "MoEOutput": "repro.core:MoEOutput",
    "TopKGate": "repro.core:TopKGate",
    "ExpertFFN": "repro.core:ExpertFFN",
    "Tensor": "repro.tensor:Tensor",
    "no_grad": "repro.tensor:no_grad",
})
