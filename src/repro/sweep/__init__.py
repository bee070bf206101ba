"""Scenario sweep subsystem: declarative grids and parallel cached runs.

This is the engine room under the public :mod:`repro.api` facade —
prefer ``Study``/``ResultSet`` for new code::

    from repro.api import Study, ScenarioGrid

    grid = ScenarioGrid(
        systems=("fastmoe", "pipemoe", "mpipemoe"),
        world_sizes=(16, 64),
        batches=(8192, 16384),
    )
    results = Study(grid).cache(".sweep_cache").workers(4).run()
    print(results.table())
    best = results.pareto()  # Fig. 11-style memory/time frontier

The legacy surface (``SweepRunner``, the module-level evaluators, and
the analysis helpers) remains fully supported; ``SweepRunner`` executes
on the same :mod:`repro.api.backends` backends the facade uses.  The
analysis helpers (``pareto_front``/``sweep_table``/``group_by``) live
in :mod:`repro.api.result` and resolve lazily here.
"""

from repro.sweep.grid import (
    AXIS_FIELDS,
    BACKEND_NAMES,
    Scenario,
    ScenarioGrid,
    ScenarioList,
    SYSTEM_NAMES,
    as_scenarios,
)
from repro.sweep.resilience import (
    RetryPolicy,
    RunManifest,
    ScenarioError,
    SweepError,
    SweepTimeoutError,
    WorkerCrashError,
)
from repro.sweep.runner import (
    VECTORIZE_MIN_POINTS,
    SweepResult,
    SweepRunner,
    evaluate_eq10,
    evaluate_system,
    evaluate_timeline,
    scenario_hetero,
    scenario_workload,
    shared_context,
)
from repro.utils.lazy import lazy_exports

__all__ = [
    "AXIS_FIELDS",
    "BACKEND_NAMES",
    "SYSTEM_NAMES",
    "RetryPolicy",
    "RunManifest",
    "Scenario",
    "ScenarioError",
    "ScenarioGrid",
    "ScenarioList",
    "SweepError",
    "SweepResult",
    "SweepRunner",
    "SweepTimeoutError",
    "WorkerCrashError",
    "VECTORIZE_MIN_POINTS",
    "as_scenarios",
    "evaluate_eq10",
    "evaluate_system",
    "evaluate_timeline",
    "scenario_hetero",
    "scenario_workload",
    "shared_context",
    "group_by",
    "pareto_front",
    "sweep_table",
]

# Defined in repro.api.result; resolved lazily so importing
# repro.sweep never pulls the facade in.
__getattr__, __dir__ = lazy_exports(__name__, {
    "group_by": "repro.api.result:group_by",
    "pareto_front": "repro.api.result:pareto_front",
    "sweep_table": "repro.api.result:sweep_table",
})
