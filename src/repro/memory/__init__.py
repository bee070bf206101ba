"""Memory-efficiency subsystem (paper Sec. III-D/E).

* :mod:`repro.memory.footprint` — closed-form footprint model, Eq. 1-6.
* :mod:`repro.memory.strategies` — the four reuse strategies of Table II
  plus "none", with their restore methods and workload vectors Q.
* :mod:`repro.memory.host_pool` — CPU offload target (pinned-host pool).
* :mod:`repro.memory.buffer_pool` — shared ring buffers realising the
  "memory bubbles" compression of Fig. 6, metered through the caching
  allocator so achieved savings are measurable (Fig. 10).
"""

from repro.memory.footprint import (
    FootprintModel,
    model_states_elems,
    activations_elems,
    buffers_elems,
    pipeline_activations_elems,
    reuse_savings_elems,
    memory_saving_ratio,
)
from repro.memory.strategies import Strategy, STRATEGIES, strategy_names
from repro.utils.lazy import lazy_exports

__all__ = [
    "FootprintModel",
    "model_states_elems",
    "activations_elems",
    "buffers_elems",
    "pipeline_activations_elems",
    "reuse_savings_elems",
    "memory_saving_ratio",
    "Strategy",
    "STRATEGIES",
    "strategy_names",
    "HostBufferPool",
    "SharedBufferPool",
]

# The numpy-backed pools load on first access.
__getattr__, __dir__ = lazy_exports(__name__, {
    "HostBufferPool": "repro.memory.host_pool:HostBufferPool",
    "SharedBufferPool": "repro.memory.buffer_pool:SharedBufferPool",
})
