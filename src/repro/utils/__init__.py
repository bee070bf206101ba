"""Shared utilities: units, seeding, formatting.

These helpers are deliberately dependency-free so every other subpackage can
import them without cycles.
"""

from repro.utils.units import (
    KIB,
    MIB,
    GIB,
    KB,
    MB,
    GB,
    GBPS,
    GBITPS,
    TFLOPS,
    fmt_bytes,
)
from repro.utils.lazy import lazy_exports
from repro.utils.tables import Table

__all__ = [
    "KIB",
    "MIB",
    "GIB",
    "KB",
    "MB",
    "GB",
    "GBPS",
    "GBITPS",
    "TFLOPS",
    "fmt_bytes",
    "seeded_rng",
    "derive_seed",
    "Table",
]

# Seeding needs numpy, so it loads on first access.
__getattr__, __dir__ = lazy_exports(__name__, {
    "seeded_rng": "repro.utils.seeding:seeded_rng",
    "derive_seed": "repro.utils.seeding:derive_seed",
})
