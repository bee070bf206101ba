"""Fault injection shipped with the library.

:mod:`repro.testing.faults` is the deterministic fault-injection
harness the resilience suite (and the CI fault smoke) drives sweeps
through: scripted scenario failures, hangs and worker kills, all
reproducible run to run.  It ships in ``src/`` because the resilience
retry loop reads a plan from ``REPRO_FAULT_PLAN`` in every worker.
The slow, independent twins the fast path is checked against
(``ReferenceSimEngine``, ``ColdEvaluator``) live in the test suite,
``tests/oracles.py``.
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
