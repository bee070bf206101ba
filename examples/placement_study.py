"""Expert-placement walkthrough: where the hot expert lives matters.

Two ladders on the GPT-XL x 64-GPU testbed, both driving the public
:class:`repro.api.Study` facade with the new ``placements`` axis:

1. **Straggler ladder** — one GPU throttles from 1.0x down to 0.4x
   compute while gating skew keeps expert 0 hot.  Contiguous sharding
   pins that hot expert to the sick rank; the skew-aware optimizer
   (``placement="optimized"``) re-routes it onto healthy metal, and the
   recovery column shows how much of the straggler regression the move
   claws back.  Watch the Eq. 10 granularity too: the contiguous run
   backs its ``n`` off as the straggler turns the pipeline
   compute-bound, while the optimized run keeps the healthy choice.
2. **Skew ladder** — no straggler, rising imbalance, four placements
   (contiguous, round_robin, shadowed, optimized).  Under uniform
   routing every placement prices identically (conservation: placement
   moves rows, it cannot create them); as the hot expert heats up,
   shadowing splits its rows and the selected ``(n, strategy)`` shifts
   with the bottleneck row count.

Run:  PYTHONPATH=src python examples/placement_study.py
"""

from __future__ import annotations

import argparse

from repro.api import ScenarioGrid, Study
from repro.utils import Table

WORLD = 64
SPEC = "GPT-XL"
BATCH = 24576
IMBALANCE = 4.0


def straggler_ladder() -> None:
    severities = (1.0, 0.8, 0.6, 0.5, 0.4)
    grid = ScenarioGrid(
        systems=("mpipemoe",), specs=(SPEC,), world_sizes=(WORLD,),
        batches=(BATCH,), imbalances=(IMBALANCE,),
        stragglers=("single-slow-gpu",), severities=severities,
        placements=("contiguous", "optimized"),
    )
    results = Study(grid).backend("serial").run()
    by_point = {
        (r.scenario.severity, r.scenario.placement): r for r in results
    }
    healthy = by_point[(1.0, "contiguous")]["iteration_time"]
    table = Table(
        ["severity", "placement", "n", "strategy", "time (ms)",
         "recovery"],
        title=(f"Hot expert vs. one slow GPU, {SPEC} x {WORLD}, "
               f"B={BATCH}, skew={IMBALANCE}x"),
    )
    for severity in severities:
        degraded = by_point[(severity, "contiguous")]["iteration_time"]
        for placement in ("contiguous", "optimized"):
            r = by_point[(severity, placement)]
            t = r["iteration_time"]
            gap = degraded - healthy
            recovery = (degraded - t) / gap if gap > 0 else 0.0
            table.add_row([
                severity, placement, r["n"], r["strategy"], t * 1e3,
                f"{recovery:+.0%}" if gap > 0 else "-",
            ])
    print(table)


def skew_ladder() -> None:
    grid = ScenarioGrid(
        systems=("mpipemoe",), specs=(SPEC,), world_sizes=(WORLD,),
        batches=(BATCH,), imbalances=(1.0, 2.0, 4.0, 8.0),
        placements=("contiguous", "round_robin", "shadowed", "optimized"),
    )
    results = Study(grid).backend("serial").run()
    table = Table(
        ["skew", "placement", "n", "strategy", "time (ms)", "vs contig"],
        title=f"Gating skew x placement, healthy cluster, B={BATCH}",
    )
    contig = {
        r.scenario.imbalance: r["iteration_time"]
        for r in results if r.scenario.placement == "contiguous"
    }
    for r in results:
        t = r["iteration_time"]
        table.add_row([
            r.scenario.imbalance, r.scenario.placement, r["n"],
            r["strategy"], t * 1e3,
            f"{t / contig[r.scenario.imbalance]:.3f}x",
        ])
    print(table)
    print("(uniform routing: every placement prices identically — "
          "placement moves rows, it cannot create them)")


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    straggler_ladder()
    skew_ladder()


if __name__ == "__main__":
    main()
