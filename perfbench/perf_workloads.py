"""Seeded workload generators for the sweep benchmark.

Each workload is a list of ``(objective, scenarios)`` parts, built only
from the seed: the same seed always yields the same scenario list, and
the program under test sees nothing but those scenarios.  A part becomes
one :class:`repro.api.Study` on the ``serial`` backend with one worker.

``repro`` is imported lazily inside the generators, so the pass process
can time ``import repro.api`` on its own (``setup.import_s``).
"""

from __future__ import annotations

import hashlib
import json
import random

#: Workload name -> one-line reason it exists (mirrors BENCHMARK.json).
WORKLOADS = {
    "grid-vectorized": (
        "30,720 seeded timeline and Eq. 10 points through the whole-grid "
        "array path: batcheval, schedule replay, runner overhead and a "
        "30k-row to_json export; no scalar event loop"
    ),
    "systems-serial": (
        "1,728 four-system points on the system objective: Algorithm 1 and "
        "the simulated strategy search through the memoized Evaluator and "
        "run_compiled; no batcheval, no placeopt"
    ),
    "placement-straggler": (
        "64 GPT-XL x 64 straggler points crossed with four expert "
        "placements: optimize_placement dominates, each straggler cluster "
        "has a cold evaluator context"
    ),
}

SYSTEMS = ("fastmoe", "fastermoe", "pipemoe", "mpipemoe")
SPECS = ("GPT-S", "BERT-L", "GPT-XL")

#: Timeline templates of the vectorized scan: S1 at n=4/8/16 and S4 at
#: n=8/16/32 keep stable event orders across a dense batch axis.
TIMELINE_TEMPLATES = (("S1", (4, 8, 16)), ("S4", (8, 16, 32)))
TIMELINE_BATCHES = 2048
EQ10_WORLDS = (8, 16, 64)
EQ10_NS = (2, 4, 8, 16)
EQ10_BATCHES = 512

SYSTEMS_WORLDS = (8, 16, 32, 64)
#: Batches per (system, spec, world) point, and the routing slice's.
SYSTEMS_BATCHES = 32
ROUTING_BATCHES = 2

PLACEMENT_STRAGGLERS = (
    "single-slow-gpu", "slow-node", "degraded-link", "two-slow-gpus",
)
PLACEMENTS = ("contiguous", "round_robin", "shadowed", "optimized")


def _strata(rng: random.Random, lo: int, hi: int, step: int, count: int) -> tuple:
    """``count`` batches in [lo, hi), one drawn from each of ``count``
    equal strata: the seed moves every point, but the mix of small and
    large batches (and so the work per pass) stays the same."""
    slots = (hi - lo) // step
    return tuple(
        lo + step * (i * slots // count + rng.randrange(max(1, slots // count)))
        for i in range(count)
    )


def _grid_vectorized(rng: random.Random) -> list:
    from repro.api import ScenarioGrid

    start = 32768 + 2 * rng.randrange(1024)
    window = tuple(range(start, start + 2 * TIMELINE_BATCHES, 2))
    timeline = []
    for strategy, ns in TIMELINE_TEMPLATES:
        timeline += ScenarioGrid(
            systems=("timeline",), specs=("GPT-S",), world_sizes=(8,),
            batches=window, ns=ns, strategies=(strategy,),
        ).scenarios()
    eq10_batches = _strata(rng, 2048, 65536, 8, EQ10_BATCHES)
    eq10 = ScenarioGrid(
        systems=("mpipemoe",), specs=SPECS, world_sizes=EQ10_WORLDS,
        batches=eq10_batches, ns=EQ10_NS,
    ).scenarios()
    return [("timeline", timeline), ("eq10", eq10)]


def _systems_serial(rng: random.Random) -> list:
    from repro.api import ScenarioGrid

    batches = _strata(rng, 4096, 32768, 256, SYSTEMS_BATCHES)
    base = ScenarioGrid(
        systems=SYSTEMS, specs=SPECS, world_sizes=SYSTEMS_WORLDS,
        batches=batches,
    ).scenarios()
    routed_batches = _strata(rng, 4096, 16384, 256, ROUTING_BATCHES)
    routed = ScenarioGrid(
        systems=SYSTEMS, specs=SPECS, world_sizes=SYSTEMS_WORLDS,
        batches=routed_batches, top_ks=(2,), dtypes=("bf16",),
        imbalances=(2.0, 4.0),
    ).scenarios()
    return [("system", base + routed)]


def _placement_straggler(rng: random.Random) -> list:
    from repro.api import ScenarioGrid

    severity = round(rng.uniform(0.4, 0.6), 2)
    batch = 16384 + 1024 * rng.randrange(9)
    grid = ScenarioGrid(
        systems=("pipemoe", "mpipemoe"), specs=("GPT-XL",),
        world_sizes=(64,), batches=(batch,), stragglers=PLACEMENT_STRAGGLERS,
        severities=(severity,), imbalances=(2.0, 4.0), placements=PLACEMENTS,
    )
    return [("system", grid.scenarios())]


_BUILDERS = {
    "grid-vectorized": _grid_vectorized,
    "systems-serial": _systems_serial,
    "placement-straggler": _placement_straggler,
}


def generate(name: str, seed: int) -> list:
    """The workload's ``[(objective, [Scenario, ...]), ...]`` parts."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; known: {sorted(_BUILDERS)}")
    return _BUILDERS[name](random.Random(f"{name}:{seed}"))


def build_studies(parts: list) -> list:
    """One serial, single-worker :class:`Study` per part."""
    from repro.api import Study

    studies = []
    for objective, scenarios in parts:
        study = Study(scenarios, objective=objective).backend("serial").workers(1)
        if objective in ("timeline", "eq10"):
            study = study.vectorize(True)
        studies.append(study)
    return studies


def digest(parts: list) -> str:
    """sha256 over the generated scenario list (objective + payloads)."""
    from repro.sweep.grid import scenario_payload

    h = hashlib.sha256()
    for objective, scenarios in parts:
        h.update(objective.encode())
        for sc in scenarios:
            h.update(json.dumps(scenario_payload(sc), sort_keys=True).encode())
    return h.hexdigest()
