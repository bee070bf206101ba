"""Routing-workload walkthrough: what the gate does to the pipeline.

Three short studies on the GPT-XL x 64-GPU testbed, all driving the
routing axes that used to be hardwired into the cost model (top-k = 1,
fp16 activations, perfectly uniform gating):

1. **Skew ladder** — the hottest expert draws 1x..8x its balanced
   share.  At one expert per GPU the hot device receives that multiple
   of its rows and gates the synchronous iteration, so the adaptive
   granularity coarsens exactly as it would for a bigger batch.
2. **Dtype ladder** — the same operating point with fp8 / fp16 / fp32
   activations on the wire: byte width moves the comm-bound points and
   eventually flips the reuse strategy (cheap comm makes
   recompute-heavy strategies affordable).
3. **Capacity planner** — skew crossed with capacity factors.  With a
   capacity cap the collective buffers stay equal-shaped, so skew stops
   costing time and starts costing *tokens*: the workload model reports
   the hottest expert's capacity pressure and how many routed rows
   overflow (drop) per device.

Everything drives the public :class:`repro.api.Study` facade on the
serial backend (shared in-process evaluator memo); the workload
diagnostics come from :class:`repro.perfmodel.workload.WorkloadSpec`
— the same object the pricing layers consume.

Run:  PYTHONPATH=src python examples/routing_axes_study.py
"""

from __future__ import annotations

import argparse

from repro.api import ScenarioGrid, Study
from repro.config import get_preset
from repro.sweep import scenario_workload
from repro.utils import Table

WORLD = 64
SPEC = "GPT-XL"
BATCH = 8192


def skew_ladder() -> None:
    grid = ScenarioGrid(
        systems=("mpipemoe",), specs=(SPEC,), world_sizes=(WORLD,),
        batches=(BATCH,), imbalances=(1.0, 2.0, 4.0, 8.0),
    )
    results = Study(grid).backend("serial").run()
    spec = get_preset(SPEC)
    table = Table(
        ["skew", "bottleneck rows", "n", "strategy", "time (ms)",
         "vs uniform"],
        title=f"Gating skew, {SPEC} x {WORLD} GPUs, B={BATCH}",
    )
    uniform = results[0]["iteration_time"]
    for r in results:
        workload = scenario_workload(r.scenario)
        rows = (
            workload.load(spec, BATCH, WORLD).device_rows
            if workload else BATCH
        )
        table.add_row([
            r.scenario.imbalance, rows, r["n"], r["strategy"],
            r["iteration_time"] * 1e3, r["iteration_time"] / uniform,
        ])
    print(table)
    print("-> a hot expert acts like a bigger batch: n coarsens with skew\n")


def dtype_ladder() -> None:
    grid = ScenarioGrid(
        systems=("mpipemoe",), specs=(SPEC,), world_sizes=(WORLD,),
        batches=(BATCH,), dtypes=("fp8", None, "fp32"),
    )
    results = Study(grid).backend("serial").run()
    table = Table(
        ["dtype", "n", "strategy", "time (ms)"],
        title=f"Activation dtype on the wire, {SPEC}, B={BATCH}",
    )
    for r in results:
        table.add_row([
            r.scenario.dtype or "fp16 (default)", r["n"], r["strategy"],
            r["iteration_time"] * 1e3,
        ])
    print(table)
    print("-> wider activations are comm-bound: coarser n, different reuse\n")


def capacity_planner() -> None:
    grid = ScenarioGrid(
        systems=("mpipemoe",), specs=(SPEC,), world_sizes=(WORLD,),
        batches=(BATCH,), imbalances=(1.0, 4.0),
        capacity_factors=(None, 1.0, 1.25),
    )
    results = Study(grid).backend("serial").run()
    spec = get_preset(SPEC)
    table = Table(
        ["skew", "capacity f", "priced rows", "hot pressure",
         "dropped rows", "time (ms)"],
        title=f"Skew x capacity factor, {SPEC}, B={BATCH}",
    )
    for r in results:
        workload = scenario_workload(r.scenario)
        load = (
            workload.load(spec, BATCH, WORLD) if workload is not None else None
        )
        table.add_row([
            r.scenario.imbalance,
            r.scenario.capacity_factor or "uncapped",
            load.device_rows if load else BATCH,
            f"{load.hot_pressure:.2f}" if load and load.hot_pressure else "-",
            load.overflow_rows if load else 0,
            r["iteration_time"] * 1e3,
        ])
    print(table)
    print(
        "-> capacity caps trade the skew's time cost for dropped tokens:\n"
        "   equal-shaped buffers keep every device at E*C rows while the\n"
        "   hot expert overflows its slots"
    )


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    skew_ladder()
    dtype_ladder()
    capacity_planner()


if __name__ == "__main__":
    main()
