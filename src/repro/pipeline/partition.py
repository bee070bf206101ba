"""Micro-batch partitioning (paper Fig. 5b).

MPipeMoE splits the dispatch buffer along the *token* (capacity) axis —
every partition still spans all destination ranks, so each partition is
one fused fine-grained All-to-All.  FasterMoE's split along the rank
axis (Fig. 5a) is priced, not executed: :mod:`repro.comm.cost` charges
its point-to-point decomposition.
"""

from __future__ import annotations


def split_capacity(capacity: int, n: int) -> int:
    """Per-partition capacity chunk; requires n | capacity.

    The MoE layer pads capacity up to a multiple of the partition count
    before dispatch so this always holds at call sites.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if capacity % n:
        raise ValueError(f"capacity {capacity} not divisible by n={n}")
    return capacity // n


def pad_capacity(capacity: int, n: int) -> int:
    """Round capacity up to a multiple of n (adds only zero padding slots)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (capacity + n - 1) // n * n


def partition_slices(capacity: int, n: int) -> list[slice]:
    """Slices along the capacity axis for the n micro-batches (split-by-B)."""
    chunk = split_capacity(capacity, n)
    return [slice(j * chunk, (j + 1) * chunk) for j in range(n)]
