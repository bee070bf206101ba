"""Heterogeneous-cluster walkthrough: what one sick GPU costs you.

Three short studies on the GPT-XL x 64-GPU testbed:

1. **Severity ladder** — a single GPU throttles from 1.0x to 0.4x
   compute; MPipeMoE re-runs Algorithm 1 and the strategy search on the
   heterogeneous context at every step, and the table shows the
   granularity backing off (n=8 -> 4) as the straggler turns the
   pipeline compute-bound.
2. **Skew-kind comparison** — the same severity applied as a compute
   straggler, a degraded NIC, and a whole slow node: three different
   bottlenecks, three different adaptive responses.
3. **Mixed pool** — a V100 dropped into the A100 pool via a device-spec
   override (no hand-written multipliers: the capability ratio is
   derived from the specs).

All of it drives the public :class:`repro.api.Study` facade — the same
machinery as the paper-figure benches — on the serial backend so every
point shares one in-process evaluator memo; the cache columns show what
that sharing saved.  The skew-kind study uses ``Study.cluster(...)``,
the facade's hetero overlay: one homogeneous grid, re-run per cluster.

Run:  PYTHONPATH=src python examples/straggler_study.py
"""

from __future__ import annotations

import argparse

from repro.api import ResultSet, ScenarioGrid, Study
from repro.config import get_preset
from repro.hardware.device import V100_SXM_32GB
from repro.hardware.hetero import HeteroClusterSpec, StragglerModel
from repro.systems import MPipeMoEModel
from repro.systems.base import SystemContext
from repro.utils import Table

WORLD = 64
SPEC = "GPT-XL"
BATCH = 24576


def severity_ladder() -> None:
    grid = ScenarioGrid(
        systems=("mpipemoe",), specs=(SPEC,), world_sizes=(WORLD,),
        batches=(BATCH,), stragglers=("single-slow-gpu",),
        severities=(1.0, 0.8, 0.6, 0.5, 0.4),
    )
    results = Study(grid).backend("serial").run()
    table = Table(
        ["severity", "n", "strategy", "time (ms)", "vs healthy",
         "memo hits"],
        title=f"Single slow GPU, {SPEC} x {WORLD} GPUs, B={BATCH}",
    )
    healthy = results[0]["iteration_time"]
    for r in results:
        table.add_row([
            r.scenario.severity, r["n"], r["strategy"],
            r["iteration_time"] * 1e3, r["iteration_time"] / healthy,
            r.cache_stats["hits"] if r.cache_stats else 0,
        ])
    print(table)


def skew_kinds() -> None:
    # One homogeneous grid; the facade's cluster overlay re-targets it
    # at each straggler kind without rebuilding the axes.
    base = Study(
        ScenarioGrid(systems=("mpipemoe",), specs=(SPEC,),
                     world_sizes=(WORLD,), batches=(BATCH,))
    ).backend("serial")
    rows = []
    for kind in ("single-slow-gpu", "degraded-link", "slow-node"):
        rows.extend(base.cluster(kind, severity=0.5).run())
    print(ResultSet(rows).table(
        ["label", "n", "strategy", ("time (ms)",
         lambda r: r["iteration_time"] * 1e3)],
        title="Same severity, three bottlenecks",
    ))


def mixed_pool() -> None:
    spec = get_preset(SPEC)
    plain = MPipeMoEModel(SystemContext(world_size=WORLD))
    mixed = MPipeMoEModel(SystemContext(
        world_size=WORLD,
        hetero=HeteroClusterSpec.of(devices={13: V100_SXM_32GB}),
    ))
    table = Table(["pool", "n", "strategy", "time (ms)"],
                  title=f"One V100 in the A100 pool, B={BATCH}")
    for name, model in (("64x A100", plain), ("63x A100 + 1x V100", mixed)):
        r = model.evaluate(spec, BATCH)
        table.add_row([name, r.num_partitions, r.strategy,
                       r.iteration_time * 1e3])
    print(table)
    ratio = (
        mixed.context.hetero.rates_for(13).comp
        if mixed.context.hetero else 1.0
    )
    print(f"(V100 comp ratio derived from device specs: {ratio:.2f}x)")


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    severity_ladder()
    skew_kinds()
    mixed_pool()
    # A jitter postscript: every device slightly off-nominal.
    jittered = SystemContext(
        world_size=WORLD,
        hetero=StragglerModel("random-jitter", severity=0.8, seed=7).build(),
    )
    r = MPipeMoEModel(jittered).evaluate(get_preset(SPEC), BATCH)
    print(f"seeded jitter (floor 0.8x, seed 7): n={r.num_partitions}, "
          f"{r.strategy}, {r.iteration_time*1e3:.1f} ms")


if __name__ == "__main__":
    main()
