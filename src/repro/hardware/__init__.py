"""Hardware models for the timing layer.

* :mod:`repro.hardware.device` — per-GPU capability numbers (GEMM
  throughput, HBM capacity, PCIe bandwidth).
* :mod:`repro.hardware.topology` — cluster interconnect tree (NVLink
  within a node, InfiniBand between nodes).
* :mod:`repro.hardware.interference` — the Fig. 3 stream-interference
  model: slowdown factors mu (comm), sigma (comp), eta (memcpy) as a
  function of which other stream types are concurrently active.
* :mod:`repro.hardware.hetero` — heterogeneous-cluster capability maps:
  per-rank device specs and rate multipliers (the engine runs at one
  such profile) and named straggler scenarios.
"""

from repro.hardware.device import DeviceSpec, A100_SXM_40GB, V100_SXM_32GB
from repro.hardware.topology import ClusterTopology, LinkOverrides
from repro.hardware.interference import (
    InterferenceModel,
    StreamKind,
    PAPER_INTERFERENCE,
)
from repro.hardware.hetero import (
    DeviceRates,
    HeteroClusterSpec,
    STRAGGLER_KINDS,
    StragglerModel,
    UNIT_RATES,
)

__all__ = [
    "DeviceSpec",
    "A100_SXM_40GB",
    "V100_SXM_32GB",
    "ClusterTopology",
    "LinkOverrides",
    "InterferenceModel",
    "StreamKind",
    "PAPER_INTERFERENCE",
    "DeviceRates",
    "HeteroClusterSpec",
    "STRAGGLER_KINDS",
    "StragglerModel",
    "UNIT_RATES",
]
