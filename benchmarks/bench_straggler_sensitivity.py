"""Straggler sensitivity study: how adaptive choices shift under skew.

Two measurements:

1. **Severity sweep** — one GPU of the 64-GPU GPT-XL cluster slows from
   1.0x to 0.4x compute (the ``single-slow-gpu`` scenario, a thermally
   throttled device).  For each severity and batch size the adaptive
   MPipeMoE stack re-runs Algorithm 1 and both strategy selectors on
   the heterogeneous context, and the table shows where the selected
   granularity n and the reuse strategy move.  Gated: at severity 0.5
   and B=24576 the selected n must differ from the healthy cluster —
   the straggler makes compute the bottleneck, so coarser pipelining
   (fewer kernel launches, better GEMM saturation) wins.  Rows for the
   ``degraded-link`` and ``slow-node`` scenarios at matched severities
   show the other two skew regimes (comm-bound and comp+mem-bound).

2. **Hetero grid sweep** — a :class:`ScenarioGrid` crossing straggler
   severity with the new expert-count (E) and capacity-factor axes,
   run on the serial backend so all points share one in-process
   evaluator memo; the reported cache stats come from the per-scenario
   deltas the runner now persists.

3. **Placement recovery** — the headline for the skew-aware placement
   optimizer: at the gate point (B=24576, 0.5x single-slow-gpu, 4x-hot
   gating) the contiguous shard map puts the hot expert on the slow
   rank and eats the full straggler regression; ``placement="optimized"``
   re-routes the heat onto healthy metal.  Gated: the optimized
   placement must recover at least half of the straggler regression
   (measured fraction is typically 1.0 — the bottleneck returns to the
   healthy hot-rank price because the slow rank only hosts cold
   experts).  Appends to ``benchmarks/results/BENCH_placement.json``.

Results append to ``benchmarks/results/BENCH_straggler.json``.

Run:  PYTHONPATH=src python benchmarks/bench_straggler_sensitivity.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.config import get_preset
from repro.hardware.hetero import StragglerModel
from repro.api import ScenarioGrid, Study
from repro.systems import MPipeMoEModel
from repro.systems.base import SystemContext
from repro.utils import Table

RESULTS_JSON = pathlib.Path(__file__).parent / "results" / "BENCH_straggler.json"
PLACEMENT_JSON = pathlib.Path(__file__).parent / "results" / "BENCH_placement.json"

WORLD = 64
SPEC = "GPT-XL"
#: The acceptance point: a single 0.5x-compute straggler must shift the
#: selected granularity at this batch (healthy n=8 -> straggler n=4).
GATE_BATCH = 24576
GATE_SEVERITY = 0.5
#: Hot-expert load ratio at the placement gate point: skew is what makes
#: placement matter (uniform routing prices identically everywhere).
PLACEMENT_IMBALANCE = 4.0
#: The optimized placement must claw back at least this fraction of the
#: straggler regression, (T_straggler - T_optimized) / (T_straggler -
#: T_healthy).
PLACEMENT_MIN_RECOVERY = 0.5

SEVERITIES = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4)
BATCHES = (8192, 16384, 24576, 32768)
SMOKE_SEVERITIES = (1.0, GATE_SEVERITY)
SMOKE_BATCHES = (GATE_BATCH,)


def evaluate_point(kind: str, severity: float, batch: int) -> dict:
    """Adaptive MPipeMoE choices on one (straggler, severity, batch) point."""
    hetero = StragglerModel(kind, severity=severity).build()
    ctx = SystemContext(world_size=WORLD, hetero=hetero)
    spec = get_preset(SPEC)
    report = MPipeMoEModel(ctx).evaluate(spec, batch)
    eq10 = ctx.evaluator.selector(spec).select(batch, report.num_partitions)
    return {
        "straggler": kind,
        "severity": severity,
        "batch": batch,
        "n": report.num_partitions,
        "strategy": report.strategy,
        "eq10_strategy": eq10.strategy.name,
        "iteration_time": report.iteration_time,
    }


def severity_sweep(args) -> tuple[dict, bool]:
    severities = SMOKE_SEVERITIES if args.smoke else SEVERITIES
    batches = SMOKE_BATCHES if args.smoke else BATCHES

    rows = [
        evaluate_point("single-slow-gpu", sev, batch)
        for sev in severities
        for batch in batches
    ]
    if not args.smoke:
        # The other two skew regimes at matched severities, for contrast.
        for kind in ("degraded-link", "slow-node"):
            rows += [
                evaluate_point(kind, sev, GATE_BATCH) for sev in (0.7, 0.5, 0.4)
            ]

    baseline = {
        r["batch"]: r["iteration_time"]
        for r in rows
        if r["straggler"] == "single-slow-gpu" and r["severity"] == 1.0
    }
    table = Table(
        ["straggler", "severity", "B", "n", "strategy", "Eq.10", "time (ms)",
         "slowdown"],
        title=f"Adaptive choices under skew, {SPEC} x {WORLD} GPUs",
    )
    for r in rows:
        base = baseline.get(r["batch"])
        r["slowdown_vs_healthy"] = (
            r["iteration_time"] / base if base else None
        )
        table.add_row([
            r["straggler"], r["severity"], r["batch"], r["n"], r["strategy"],
            r["eq10_strategy"], r["iteration_time"] * 1e3,
            r["slowdown_vs_healthy"] or float("nan"),
        ])
    print(table)

    def pick(sev):
        return next(
            r for r in rows
            if r["straggler"] == "single-slow-gpu"
            and r["severity"] == sev and r["batch"] == GATE_BATCH
        )

    healthy, degraded = pick(1.0), pick(GATE_SEVERITY)
    ok = True
    if degraded["n"] == healthy["n"]:
        print(
            f"FAIL: a {GATE_SEVERITY}x-compute straggler left the selected "
            f"granularity at n={healthy['n']} (B={GATE_BATCH})", file=sys.stderr,
        )
        ok = False
    else:
        print(
            f"granularity shift at B={GATE_BATCH}: n={healthy['n']} (healthy) "
            f"-> n={degraded['n']} ({GATE_SEVERITY}x straggler)"
        )
    payload = {
        "spec": SPEC,
        "world_size": WORLD,
        "gate": {
            "batch": GATE_BATCH,
            "severity": GATE_SEVERITY,
            "healthy_n": healthy["n"],
            "straggler_n": degraded["n"],
            "shifted": degraded["n"] != healthy["n"],
        },
        "rows": rows,
    }
    return payload, ok


def hetero_grid_sweep(args) -> dict:
    """Serial-backend sweep over the straggler / E / capacity-factor axes."""
    if args.smoke:
        grid = ScenarioGrid(
            systems=("mpipemoe",), specs=(SPEC,), world_sizes=(16,),
            batches=(8192,), stragglers=("single-slow-gpu",),
            severities=(1.0, 0.5), num_experts=(64,), capacity_factors=(None,),
        )
    else:
        grid = ScenarioGrid(
            systems=("mpipemoe",), specs=(SPEC,), world_sizes=(WORLD,),
            batches=(16384,), stragglers=("single-slow-gpu", "degraded-link"),
            severities=(1.0, 0.7, 0.4), num_experts=(64, 128),
            capacity_factors=(1.0, 1.25),
        )
    study = Study(grid).backend("serial")
    t0 = time.perf_counter()
    results = study.run()
    wall = time.perf_counter() - t0
    print(results.table(
        ["label", "n", "strategy", ("time (s)", "iteration_time")],
        title=f"Hetero grid, {len(results)} scenarios, serial backend",
    ))
    hits = sum(r.cache_stats["hits"] for r in results if r.cache_stats)
    misses = sum(r.cache_stats["misses"] for r in results if r.cache_stats)
    print(f"grid wall: {wall:.2f}s; shared-evaluator hits/misses: "
          f"{hits}/{misses}")
    return {
        "scenarios": len(results),
        "wall_s": wall,
        "evaluator_hits": hits,
        "evaluator_misses": misses,
        "points": [
            {
                "label": r.scenario.label(),
                "n": r["n"],
                "strategy": r["strategy"],
                "iteration_time": r["iteration_time"],
            }
            for r in results
        ],
    }


def placement_recovery(args) -> tuple[dict, bool]:
    """The optimized-placement headline: recover the straggler regression.

    Three points at the gate geometry (GPT-XL x 64 GPUs, B=24576, 4x-hot
    gating): healthy cluster, 0.5x single-slow-gpu under the contiguous
    default (hot expert on the slow rank — worst case), and the same
    straggler with ``placement="optimized"``.  Every point goes through
    the public sweep evaluator, so the optimizer lowering, the per-rank
    pricing, and the traffic-aware selector are all on the measured path.
    """
    from repro.sweep.grid import Scenario
    from repro.sweep.runner import evaluate_system, scenario_workload

    base = dict(
        system="mpipemoe", spec=SPEC, world_size=WORLD,
        batch=GATE_BATCH, imbalance=PLACEMENT_IMBALANCE,
    )
    straggler = dict(straggler="single-slow-gpu", severity=GATE_SEVERITY)
    healthy = evaluate_system(Scenario(**base))
    degraded = evaluate_system(Scenario(**base, **straggler))
    optimized_sc = Scenario(**base, **straggler, placement="optimized")
    optimized = evaluate_system(optimized_sc)

    t_h = healthy["iteration_time"]
    t_d = degraded["iteration_time"]
    t_o = optimized["iteration_time"]
    regression = t_d - t_h
    recovery = (t_d - t_o) / regression if regression > 0 else 0.0

    table = Table(
        ["cluster", "placement", "n", "strategy", "time (ms)"],
        title=f"Placement recovery, {SPEC} x {WORLD} GPUs, "
              f"B={GATE_BATCH}, {PLACEMENT_IMBALANCE:g}x-hot gating",
    )
    table.add_row(["healthy", "contiguous", healthy["n"],
                   healthy["strategy"], t_h * 1e3])
    table.add_row([f"{GATE_SEVERITY}x slow GPU", "contiguous",
                   degraded["n"], degraded["strategy"], t_d * 1e3])
    table.add_row([f"{GATE_SEVERITY}x slow GPU", "optimized",
                   optimized["n"], optimized["strategy"], t_o * 1e3])
    print(table)

    ok = True
    if regression <= 0:
        print(
            f"FAIL: the {GATE_SEVERITY}x straggler caused no regression "
            f"to recover (healthy {t_h * 1e3:.3f}ms, straggler "
            f"{t_d * 1e3:.3f}ms)", file=sys.stderr,
        )
        ok = False
    elif recovery < PLACEMENT_MIN_RECOVERY:
        print(
            f"FAIL: optimized placement recovered only {recovery:.1%} of "
            f"the straggler regression (gate: >= "
            f"{PLACEMENT_MIN_RECOVERY:.0%})", file=sys.stderr,
        )
        ok = False
    else:
        print(
            f"optimized placement recovered {recovery:.1%} of the "
            f"{regression * 1e3:.3f}ms straggler regression "
            f"(gate: >= {PLACEMENT_MIN_RECOVERY:.0%})"
        )
    assignment = scenario_workload(optimized_sc).placement.assignment
    payload = {
        "spec": SPEC,
        "world_size": WORLD,
        "batch": GATE_BATCH,
        "severity": GATE_SEVERITY,
        "imbalance": PLACEMENT_IMBALANCE,
        "healthy_time": t_h,
        "straggler_time": t_d,
        "optimized_time": t_o,
        "regression": regression,
        "recovery": recovery,
        "min_recovery": PLACEMENT_MIN_RECOVERY,
        "passed": ok,
        "hot_expert_rank": assignment[0],
        "slow_rank_experts": sum(1 for r in assignment if r == 0),
    }
    return payload, ok


def emit_placement_json(mode: str, payload: dict) -> None:
    """Append the placement-gate record to its own trajectory file."""
    PLACEMENT_JSON.parent.mkdir(exist_ok=True)
    record = {
        "benchmark": "bench_straggler_sensitivity/placement",
        "mode": mode,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **payload,
    }
    history: list = []
    if PLACEMENT_JSON.is_file():
        try:
            previous = json.loads(PLACEMENT_JSON.read_text())
            if isinstance(previous, list):
                history = previous
        except (OSError, json.JSONDecodeError):
            pass  # unreadable trajectory: restart it rather than crash
    history.append(record)
    PLACEMENT_JSON.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")
    print(f"appended run {len(history)} to {PLACEMENT_JSON}")


def emit_json(mode: str, severity_payload: dict, grid_payload: dict) -> None:
    """Append this run's record to the trajectory file (a JSON array)."""
    RESULTS_JSON.parent.mkdir(exist_ok=True)
    record = {
        "benchmark": "bench_straggler_sensitivity",
        "mode": mode,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "severity_sweep": severity_payload,
        "hetero_grid": grid_payload,
    }
    history: list = []
    if RESULTS_JSON.is_file():
        try:
            previous = json.loads(RESULTS_JSON.read_text())
            if isinstance(previous, list):
                history = previous
        except (OSError, json.JSONDecodeError):
            pass  # unreadable trajectory: restart it rather than crash
    history.append(record)
    RESULTS_JSON.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")
    print(f"appended run {len(history)} to {RESULTS_JSON}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small workloads for CI (gate still checked)")
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    severity_payload, ok = severity_sweep(args)
    grid_payload = hetero_grid_sweep(args)
    placement_payload, placement_ok = placement_recovery(args)
    emit_json(mode, severity_payload, grid_payload)
    emit_placement_json(mode, placement_payload)

    if not (ok and placement_ok):
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
