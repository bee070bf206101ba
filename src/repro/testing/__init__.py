"""Test-support utilities shipped with the library.

* :mod:`repro.testing.faults` is the deterministic fault-injection
  harness the resilience suite (and the CI fault smoke) drives sweeps
  through: scripted scenario failures, hangs, worker kills, and cache
  corruption, all reproducible run to run.
* :mod:`repro.testing.oracles` holds the slow, independent twins the
  fast path is checked against: ``ReferenceSimEngine`` (the
  straight-line fluid loop) and ``ColdEvaluator`` (the uncached seed
  evaluation path).  Import it directly; it is not re-exported here.
"""

from repro.testing.faults import (
    FAULT_PLAN_ENV,
    Fault,
    FaultInjected,
    FaultPlan,
    active_plan,
)

__all__ = [
    "FAULT_PLAN_ENV",
    "Fault",
    "FaultInjected",
    "FaultPlan",
    "active_plan",
]
