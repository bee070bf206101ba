"""Cluster-scale scenario study driven by the public ``repro.api`` facade.

Declares a 100+-point study in four grids — the full system comparison
over world sizes and batches, a memory-strategy ablation, a granularity
scan, and a model-spec cross-check — fans it out over an execution
backend of your choice with on-disk caching, and post-processes the
results through the :class:`~repro.api.ResultSet` accessors into
paper-style tables plus per-world-size Pareto frontiers (Fig. 11 at
every scale).

Re-running is nearly free: completed scenarios are cached under
``--cache-dir`` keyed by scenario hash, so extending the grids only
evaluates the new points.  The same study runs unchanged on any
backend — results are byte-identical by contract.

Run:  PYTHONPATH=src python examples/sweep_cluster.py [--workers 4]
"""

from __future__ import annotations

import argparse
import time

from repro.api import ScenarioGrid, Study, available_backends

WORLDS = (8, 16, 32, 64)
BATCHES = (4096, 8192, 16384, 32768, 65536)

#: Full system comparison: 4 systems x 4 world sizes x 5 batches = 80.
COMPARISON = ScenarioGrid(
    systems=("fastmoe", "fastermoe", "pipemoe", "mpipemoe"),
    world_sizes=WORLDS,
    batches=BATCHES,
)
#: Pinned-strategy ablation at 64 GPUs (Fig. 13's S1-S4 axis): 8 points.
STRATEGIES = ScenarioGrid(
    systems=("mpipemoe",), world_sizes=(64,), batches=(8192, 32768),
    ns=(4,), strategies=("S1", "S2", "S3", "S4"),
)
#: Granularity scan (Fig. 12's n axis): 10 points.
GRANULARITY = ScenarioGrid(
    systems=("pipemoe",), world_sizes=(16, 64), batches=(16384,),
    ns=(1, 2, 4, 8, 16),
)
#: Model-spec cross-check on the two smaller Table III layers: 8 points.
SPECS = ScenarioGrid(
    systems=("pipemoe", "mpipemoe"), specs=("GPT-S", "BERT-L"),
    world_sizes=(64,), batches=(16384, 32768),
)

STUDY_GRID = COMPARISON + STRATEGIES + GRANULARITY + SPECS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--backend", default="process",
                        choices=available_backends())
    parser.add_argument("--cache-dir", default=".sweep_cache")
    args = parser.parse_args()

    study = (
        Study(STUDY_GRID)
        .backend(args.backend)
        .workers(args.workers)
        .cache(args.cache_dir)
    )
    t0 = time.perf_counter()
    results = study.run()
    wall = time.perf_counter() - t0
    stats = results.cache_stats()
    print(
        f"{stats['scenarios']} scenarios in {wall:.1f}s "
        f"({stats['disk_hits']} cache hits, "
        f"{stats['scenarios'] - stats['disk_hits']} evaluated, "
        f"backend={args.backend}, workers={args.workers})\n"
    )

    comparison = results[: len(COMPARISON)]
    print(
        comparison.table(
            [
                "world_size",
                "batch",
                "system",
                ("time (ms)", lambda r: r["iteration_time"] * 1e3),
                ("memory (MB)", lambda r: r["peak_memory_bytes"] / 1e6),
                "n",
                "strategy",
            ],
            title="System comparison across cluster scales (GPT-XL)",
        )
    )

    # Fig. 11 at every scale: the memory-time frontier per world size.
    print("\nPareto frontiers (time, memory) per world size, B=16384:")
    at_b = comparison.group_by("batch")[16384]
    for world, group in sorted(at_b.group_by("world_size").items()):
        points = ", ".join(
            f"{r['system']} ({r['iteration_time'] * 1e3:.1f} ms, "
            f"{r['peak_memory_bytes'] / 1e6:.0f} MB)"
            for r in group.pareto()
        )
        print(f"  N={world:3d}: {points}")

    # Largest-scale speedup summary.
    biggest = comparison.group_by("world_size")[64].group_by("batch")
    print("\nMPipeMoE speedup over FastMoE at 64 GPUs:")
    for batch, group in sorted(biggest.items()):
        by_system = {r["system"]: r for r in group}
        ratio = (
            by_system["FastMoE"]["iteration_time"]
            / by_system["MPipeMoE"]["iteration_time"]
        )
        print(f"  B={batch:6d}: {ratio:.2f}x")

    strategies = results[len(COMPARISON): len(COMPARISON) + len(STRATEGIES)]
    print()
    print(
        strategies.table(
            [
                "batch",
                "strategy",
                ("time (ms)", lambda r: r["iteration_time"] * 1e3),
                ("memory (MB)", lambda r: r["peak_memory_bytes"] / 1e6),
            ],
            title="Pinned memory-reuse strategies, 64 GPUs, n=4 (Fig. 13 axis)",
        )
    )


if __name__ == "__main__":
    main()
