"""Discrete-event timing simulator.

Models each GPU as three CUDA-stream lanes (compute / NCCL comm / PCIe
memcpy).  Operations (:class:`~repro.sim.engine.Op`) carry *work*
expressed in seconds-at-full-speed; while several lanes of one device
are concurrently busy, each op progresses at the slowed rate given by
the Fig. 3 :class:`~repro.hardware.interference.InterferenceModel` — a
fluid (rate-based) simulation integrated between lane-state changes.
An engine built with a :class:`~repro.hardware.hetero.DeviceRates`
profile further scales every rate by that profile's multiplier for the
op's stream kind, which is how heterogeneous clusters and straggler
devices are simulated; the unit profile leaves every rate bit for bit
as it is.

The :class:`~repro.sim.memory_allocator.CachingAllocator` mirrors
PyTorch's caching allocator closely enough to measure peak footprint:
frees return blocks to a size-bucketed cache, allocation prefers cached
blocks, and the high-water mark is tracked exactly.
"""

from repro.sim.engine import (
    CompiledDag,
    Op,
    OpRecord,
    SimEngine,
    SimResult,
    compile_dag,
)
from repro.sim.memory_allocator import CachingAllocator, OutOfMemoryError
from repro.sim.trace import to_chrome_trace

__all__ = [
    "CompiledDag",
    "Op",
    "SimEngine",
    "SimResult",
    "OpRecord",
    "compile_dag",
    "CachingAllocator",
    "OutOfMemoryError",
    "to_chrome_trace",
]
