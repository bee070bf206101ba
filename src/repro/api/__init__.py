"""``repro.api`` — the stable public entry surface of the reproduction.

Everything a study needs lives here::

    from repro.api import Study, ScenarioGrid

    grid = ScenarioGrid(
        systems=("fastmoe", "pipemoe", "mpipemoe"),
        world_sizes=(16, 64),
        batches=(8192, 16384),
    )
    results = Study(grid).backend("serial").run()
    print(results.table())
    front = results.pareto()            # Fig. 11-style frontier
    print(results.to_json())            # deterministic across backends

The pieces:

* :class:`Study` — declarative builder composing a grid, an objective
  (``"system"``, ``"timeline"``, or a callable), a cluster overlay, and
  execution options; immutable and chainable.
* :class:`ResultSet` — typed results with ``.pareto()``, ``.table()``,
  ``.group_by()``, ``.cache_stats()``, ``.to_json()``; each row is a
  ``StudyResult``, the public name of
  :class:`~repro.sweep.runner.SweepResult`.
* :mod:`repro.api.backends` — the execution backends, by name
  (``serial`` / ``process`` / ``remote``); a custom backend is a
  :class:`Backend` instance, passed wherever a name is.  Whole-grid
  numpy pricing is the ``vectorize`` run option
  (:meth:`Study.vectorize`), not a backend.
* ``python -m repro`` — the CLI over all of it (:mod:`repro.api.cli`).

Grid construction (:class:`Scenario`, :class:`ScenarioGrid`,
:class:`ScenarioList`) and the analysis helpers are re-exported so one
import serves a whole study.  The backends load eagerly and
the rest on first access.  This import and a scalar study load neither
numpy nor multiprocessing: numpy comes with the training half and the
whole-grid pass (imported at build under ``vectorize=True``).
"""

from repro.api.backends import (
    Backend,
    ProcessBackend,
    SerialBackend,
    WorkersLost,
    available_backends,
    get_backend,
)
from repro.utils.lazy import lazy_exports

__all__ = [
    # backends (eager; stdlib-only)
    "Backend",
    "SerialBackend",
    "ProcessBackend",
    "WorkersLost",
    "get_backend",
    "available_backends",
    # distributed execution (lazy; see repro.distrib)
    "RemoteBackend",
    "StudyServer",
    "CacheStore",
    # facade (lazy)
    "Study",
    "OBJECTIVES",
    "StudyResult",
    "ResultSet",
    # resilience (lazy)
    "RetryPolicy",
    "SweepError",
    "ScenarioError",
    "SweepTimeoutError",
    "WorkerCrashError",
    "pareto_front",
    "sweep_table",
    "group_by",
    # grid surface (lazy re-exports from repro.sweep.grid)
    "Scenario",
    "ScenarioGrid",
    "ScenarioList",
    "as_scenarios",
]

# Lazily-resolved exports: importing ``repro.api`` must not import the
# sweep/systems stack (repro.sweep.runner imports the backends
# from here — eager imports would cycle).
__getattr__, __dir__ = lazy_exports(__name__, {
    "RemoteBackend": "repro.distrib.backend:RemoteBackend",
    "StudyServer": "repro.distrib.server:StudyServer",
    "CacheStore": "repro.distrib.store:CacheStore",
    "Study": "repro.api.study:Study",
    "OBJECTIVES": "repro.api.study:OBJECTIVES",
    "StudyResult": "repro.sweep.runner:SweepResult",
    "ResultSet": "repro.api.result:ResultSet",
    "RetryPolicy": "repro.sweep.resilience:RetryPolicy",
    "SweepError": "repro.sweep.resilience:SweepError",
    "ScenarioError": "repro.sweep.resilience:ScenarioError",
    "SweepTimeoutError": "repro.sweep.resilience:SweepTimeoutError",
    "WorkerCrashError": "repro.sweep.resilience:WorkerCrashError",
    "pareto_front": "repro.api.result:pareto_front",
    "sweep_table": "repro.api.result:sweep_table",
    "group_by": "repro.api.result:group_by",
    "Scenario": "repro.sweep.grid:Scenario",
    "ScenarioGrid": "repro.sweep.grid:ScenarioGrid",
    "ScenarioList": "repro.sweep.grid:ScenarioList",
    "as_scenarios": "repro.sweep.grid:as_scenarios",
})
