"""Communication timing: :mod:`repro.comm.cost` prices NCCL collectives
on the simulated cluster topology, including the degraded point-to-point
decomposition FasterMoE uses (paper Fig. 5a discussion).  The executor
performs the S and R exchanges themselves as in-process array
permutations.
"""

from repro.comm.cost import NcclCostModel

__all__ = ["NcclCostModel"]
