"""Routing-axes study: how top-k, activation dtype and gating skew move
the adaptive choices.

Three measurements:

1. **Imbalance sweep** — the hottest expert of the 64-GPU GPT-XL
   cluster draws 1x..8x its balanced share (`WorkloadSpec.imbalance`).
   At one-expert-per-GPU scale the hot device receives that multiple of
   its rows, so the adaptive MPipeMoE stack re-runs Algorithm 1 and the
   strategy selectors on inflated bottleneck rows.  Gated: at B=8192 a
   4x-hot expert must shift the selected (n, strategy) pair — skew acts
   like a bigger batch, so the granularity coarsens (n=4 -> 8; at
   B=4096 the strategy flips S3 -> S1 as well).

2. **Top-k / dtype table** — the paper's "increasing k is an
   equivalence of increasing B" claim checked in the perf model
   (makespan at (B, k=2) must equal (2B, k=1) bit for bit), and the
   activation-dtype axis (fp8 / fp16 / fp32) moving the comm-bound
   points.

3. **Routing grid sweep** — a :class:`ScenarioGrid` crossing the new
   ``top_ks`` / ``dtypes`` / ``imbalances`` axes with capacity factors
   on the serial backend, reporting per-expert overflow and
   hottest-expert capacity pressure from the workload model.

Results append to ``benchmarks/results/BENCH_routing.json``.

Run:  PYTHONPATH=src python benchmarks/bench_routing_axes.py [--smoke]
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from _harness import append_record, timed, utc_timestamp
from repro.api import ScenarioGrid, Study
from repro.config import get_preset
from repro.perfmodel.workload import WorkloadSpec
from repro.sweep import scenario_workload
from repro.systems import MPipeMoEModel
from repro.systems.base import SystemContext
from repro.utils import Table

RESULTS_JSON = pathlib.Path(__file__).parent / "results" / "BENCH_routing.json"

WORLD = 64
SPEC = "GPT-XL"
#: The acceptance point: a 4x-hot expert must shift the adaptive
#: (n, strategy) choice at this batch (healthy n=4 -> skewed n=8).
GATE_BATCH = 8192
GATE_IMBALANCE = 4.0

IMBALANCES = (1.0, 2.0, 4.0, 8.0)
BATCHES = (4096, 8192, 16384)
SMOKE_IMBALANCES = (1.0, GATE_IMBALANCE)
SMOKE_BATCHES = (GATE_BATCH,)


def evaluate_point(imbalance: float, batch: int) -> dict:
    """Adaptive MPipeMoE choices on one (imbalance, batch) point."""
    workload = None if imbalance == 1.0 else WorkloadSpec(imbalance=imbalance)
    ctx = SystemContext(world_size=WORLD)
    spec = get_preset(SPEC)
    report = MPipeMoEModel(ctx).evaluate(spec, batch, workload=workload)
    eq10 = ctx.evaluator.selector(spec, workload).select(
        batch, report.num_partitions
    )
    rows = (workload or WorkloadSpec()).load(spec, batch, WORLD).device_rows
    return {
        "imbalance": imbalance,
        "batch": batch,
        "device_rows": rows,
        "n": report.num_partitions,
        "strategy": report.strategy,
        "eq10_strategy": eq10.strategy.name,
        "iteration_time": report.iteration_time,
    }


def imbalance_sweep(args) -> tuple[dict, bool]:
    imbalances = SMOKE_IMBALANCES if args.smoke else IMBALANCES
    batches = SMOKE_BATCHES if args.smoke else BATCHES

    rows = [
        evaluate_point(imb, batch) for imb in imbalances for batch in batches
    ]
    baseline = {
        r["batch"]: r["iteration_time"] for r in rows if r["imbalance"] == 1.0
    }
    table = Table(
        ["skew", "B", "bottleneck rows", "n", "strategy", "Eq.10",
         "time (ms)", "slowdown"],
        title=f"Adaptive choices under gating skew, {SPEC} x {WORLD} GPUs",
    )
    for r in rows:
        base = baseline.get(r["batch"])
        r["slowdown_vs_uniform"] = r["iteration_time"] / base if base else None
        table.add_row([
            r["imbalance"], r["batch"], r["device_rows"], r["n"],
            r["strategy"], r["eq10_strategy"], r["iteration_time"] * 1e3,
            r["slowdown_vs_uniform"] or float("nan"),
        ])
    print(table)

    def pick(imb):
        return next(
            r for r in rows
            if r["imbalance"] == imb and r["batch"] == GATE_BATCH
        )

    uniform, skewed = pick(1.0), pick(GATE_IMBALANCE)
    shifted = (skewed["n"], skewed["strategy"]) != (
        uniform["n"], uniform["strategy"]
    )
    ok = True
    if not shifted:
        print(
            f"FAIL: a {GATE_IMBALANCE}x-hot expert left the selection at "
            f"(n={uniform['n']}, {uniform['strategy']}) at B={GATE_BATCH}",
            file=sys.stderr,
        )
        ok = False
    else:
        print(
            f"selection shift at B={GATE_BATCH}: "
            f"(n={uniform['n']}, {uniform['strategy']}) uniform -> "
            f"(n={skewed['n']}, {skewed['strategy']}) at "
            f"{GATE_IMBALANCE}x skew"
        )
    payload = {
        "spec": SPEC,
        "world_size": WORLD,
        "gate": {
            "batch": GATE_BATCH,
            "imbalance": GATE_IMBALANCE,
            "uniform": [uniform["n"], uniform["strategy"]],
            "skewed": [skewed["n"], skewed["strategy"]],
            "shifted": shifted,
        },
        "rows": rows,
    }
    return payload, ok


def topk_dtype_table(args) -> tuple[dict, bool]:
    """The k = B-scaling equivalence and the dtype axis, via the memo."""
    ctx = SystemContext(world_size=WORLD)
    spec = get_preset(SPEC)
    batch = GATE_BATCH
    ev = ctx.evaluator

    at_k2 = ev.makespan(spec, batch, 4, "S1", workload=WorkloadSpec(top_k=2))
    at_2b = ev.makespan(spec, 2 * batch, 4, "S1",
                        workload=WorkloadSpec(top_k=1))
    equivalent = at_k2 == at_2b

    dtype_rows = []
    for dtype in ("fp8", "fp16", "fp32"):
        span = ev.makespan(
            spec, batch, 4, "S1", workload=WorkloadSpec.for_dtype(dtype)
        )
        dtype_rows.append({"dtype": dtype, "makespan": span})

    table = Table(
        ["quantity", "value"],
        title=f"Top-k and dtype axes, {SPEC} B={batch} n=4 S1",
    )
    table.add_row(["(B, k=2) makespan", f"{at_k2 * 1e3:.3f} ms"])
    table.add_row(["(2B, k=1) makespan", f"{at_2b * 1e3:.3f} ms"])
    table.add_row(["k == B-scaling equivalence", str(equivalent)])
    for r in dtype_rows:
        table.add_row([f"makespan @ {r['dtype']}", f"{r['makespan'] * 1e3:.3f} ms"])
    print(table)

    ok = True
    if not equivalent:
        print(
            f"FAIL: makespan(B, k=2)={at_k2} != makespan(2B, k=1)={at_2b}",
            file=sys.stderr,
        )
        ok = False
    return {
        "batch": batch,
        "k2_makespan": at_k2,
        "doubled_b_makespan": at_2b,
        "equivalent": equivalent,
        "dtypes": dtype_rows,
    }, ok


def routing_grid_sweep(args) -> dict:
    """Serial-backend sweep over the top-k / dtype / imbalance axes."""
    if args.smoke:
        grid = ScenarioGrid(
            systems=("mpipemoe",), specs=(SPEC,), world_sizes=(16,),
            batches=(8192,), top_ks=(None, 2), imbalances=(1.0, 4.0),
        )
    else:
        grid = ScenarioGrid(
            systems=("mpipemoe",), specs=(SPEC,), world_sizes=(WORLD,),
            batches=(8192,), top_ks=(None, 2), dtypes=(None, "fp32"),
            imbalances=(1.0, 4.0), capacity_factors=(None, 1.25),
        )
    study = Study(grid).backend("serial")
    results, wall = timed(study.run)
    print(results.table(
        ["label", "n", "strategy", ("time (s)", "iteration_time")],
        title=f"Routing grid, {len(results)} scenarios, serial backend",
    ))
    spec = get_preset(SPEC)
    points = []
    for r in results:
        workload = scenario_workload(r.scenario)
        load = (
            workload.load(spec, r.scenario.batch, r.scenario.world_size)
            if workload is not None
            else None
        )
        points.append({
            "label": r.scenario.label(),
            "n": r["n"],
            "strategy": r["strategy"],
            "iteration_time": r["iteration_time"],
            "device_rows": load.device_rows if load else r.scenario.batch,
            "overflow_rows": load.overflow_rows if load else 0,
            "hot_pressure": load.hot_pressure if load else None,
        })
    dropped = [p for p in points if p["overflow_rows"]]
    print(
        f"grid wall: {wall:.2f}s; {len(dropped)}/{len(points)} points drop "
        f"tokens at their capacity factor"
    )
    return {"scenarios": len(results), "wall_s": wall, "points": points}


def emit_json(mode: str, imbalance_payload: dict, topk_payload: dict,
              grid_payload: dict) -> None:
    """Append this run's record to the trajectory file (a JSON array)."""
    record = {
        "benchmark": "bench_routing_axes",
        "mode": mode,
        "timestamp": utc_timestamp(),
        "imbalance_sweep": imbalance_payload,
        "topk_dtype": topk_payload,
        "routing_grid": grid_payload,
    }
    append_record(RESULTS_JSON, record)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small workloads for CI (gates still checked)")
    args = parser.parse_args(argv)

    imbalance_payload, ok_shift = imbalance_sweep(args)
    topk_payload, ok_equiv = topk_dtype_table(args)
    grid_payload = routing_grid_sweep(args)
    emit_json("smoke" if args.smoke else "full", imbalance_payload,
              topk_payload, grid_payload)

    if not (ok_shift and ok_equiv):
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
