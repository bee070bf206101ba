"""Unit constants and human-readable formatting.

All simulator-internal quantities use SI base units: bytes, seconds,
FLOPs. The constants here convert *to* base units, e.g. ``4 * GIB`` is
four gibibytes expressed in bytes and ``200 * GBITPS`` is an InfiniBand
link rate in bytes/second.
"""

from __future__ import annotations

# Binary byte multiples (memory capacities).
KIB = 1024
MIB = 1024**2
GIB = 1024**3

# Decimal byte multiples (bandwidths are quoted decimal by vendors).
KB = 1000
MB = 1000**2
GB = 1000**3

# Bandwidth: bytes per second.
GBPS = GB  # 1 GB/s in bytes/s
GBITPS = GB / 8  # 1 Gbit/s in bytes/s

# Compute: floating point operations per second.
TFLOPS = 1e12


def fmt_bytes(n: float) -> str:
    """Format a byte count with a binary suffix, e.g. ``fmt_bytes(2**21) == '2.00 MiB'``."""
    n = float(n)
    for unit, factor in (("GiB", GIB), ("MiB", MIB), ("KiB", KIB)):
        if abs(n) >= factor:
            return f"{n / factor:.2f} {unit}"
    return f"{n:.0f} B"
