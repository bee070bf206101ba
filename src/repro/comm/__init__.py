"""Communication substrate.

The functional half (:mod:`repro.comm.group`, :mod:`repro.comm.collectives`)
implements NCCL-style collectives over in-process ranks: every rank's
buffer is a numpy array living in the same interpreter, and a collective
is a deterministic permutation/reduction over the per-rank list — the
mpi4py buffer-protocol idiom without needing an MPI launcher.

The timing half (:mod:`repro.comm.cost`) prices those collectives on the
simulated cluster topology, including the degraded point-to-point
decomposition FasterMoE uses (paper Fig. 5a discussion).
"""

from repro.comm.cost import NcclCostModel
from repro.utils.lazy import lazy_exports

__all__ = [
    "ProcessGroup",
    "all_to_all",
    "all_to_all_single",
    "all_gather",
    "all_reduce",
    "reduce_scatter",
    "broadcast",
    "NcclCostModel",
]

# The numpy functional half loads on first access.
__getattr__, __dir__ = lazy_exports(__name__, {
    "ProcessGroup": "repro.comm.group:ProcessGroup",
    "all_to_all": "repro.comm.collectives:all_to_all",
    "all_to_all_single": "repro.comm.collectives:all_to_all_single",
    "all_gather": "repro.comm.collectives:all_gather",
    "all_reduce": "repro.comm.collectives:all_reduce",
    "reduce_scatter": "repro.comm.collectives:reduce_scatter",
    "broadcast": "repro.comm.collectives:broadcast",
})
