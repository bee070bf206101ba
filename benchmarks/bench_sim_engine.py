"""Simulation fast-path speedup benchmarks.

Two measurements, both gated:

1. **Engine benchmark** — builds a large synthetic multi-device
   MoE-style DAG (per-device S/C/R micro-op chains on comm/comp/mem
   lanes with periodic cross-device barriers — the shape
   ``build_timeline`` produces, scaled to cluster size), runs it through
   both the production :class:`SimEngine` and the
   ``ReferenceSimEngine`` oracle (``tests/oracles.py``), and reports
   wall-clock speedup.  The two engines must agree on the makespan to 1e-9; in full mode the fast
   path must be at least 5x faster on the 10k-op DAG.

2. **Selector-loop benchmark** — times ``MPipeMoE.evaluate`` over a
   batch/n grid twice: once on a ``ColdEvaluator``
   (``tests/oracles.py``; the seed path: fresh stage costs, fresh Op
   DAG and a fully recorded run for every granularity/strategy probe)
   and once with the
   shared evaluator + compiled-timeline fast path.  Reports must be
   identical; in full mode the fast path must be at least 3x faster.
   Results are appended to ``benchmarks/results/BENCH_evaluate.json`` so
   the perf trajectory of the evaluation hot path is recorded over time.

``--quick`` shrinks both workloads for CI smoke runs and only checks
agreement (the JSON is still emitted, tagged ``"mode": "quick"``).

Run:  PYTHONPATH=src python benchmarks/bench_sim_engine.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import time

from repro.config import get_preset
from repro.hardware.interference import StreamKind
from repro.sim.engine import Op, SimEngine
from repro.systems import MPipeMoEModel
from repro.systems.base import SystemContext
from repro.utils import Table

# The oracles live in the test suite, one directory up.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
from tests.oracles import ColdEvaluator, ReferenceSimEngine  # noqa: E402

REQUIRED_SPEEDUP = 5.0
REQUIRED_EVALUATE_SPEEDUP = 3.0
RESULTS_JSON = pathlib.Path(__file__).parent / "results" / "BENCH_evaluate.json"

#: The selector-loop grid: adaptive granularity plus pinned-n variants,
#: swept over the batch axis (GPT-XL at the paper's 64 GPUs).
EVAL_BATCHES = (2048, 4096, 6144, 8192, 12288, 16384, 24576, 32768)
EVAL_NS = (None, 2, 4, 8)
QUICK_EVAL_BATCHES = (4096, 16384)
QUICK_EVAL_NS = (None, 4)


def build_dag(num_ops: int, devices: int, seed: int = 0) -> list[Op]:
    """Deterministic layered DAG of ~``num_ops`` ops across ``devices``."""
    rng = random.Random(seed)
    ops: list[Op] = []
    barrier = None
    stage = 0
    while len(ops) < num_ops:
        stage_r: list[Op] = []
        for dev in range(devices):
            s_deps = (barrier,) if barrier is not None else ()
            s = Op(f"S{stage}d{dev}", dev, StreamKind.COMM,
                   rng.uniform(0.5, 1.5), s_deps, tag="S")
            c = Op(f"C{stage}d{dev}", dev, StreamKind.COMP,
                   rng.uniform(1.0, 3.0), (s,), tag="C")
            r = Op(f"R{stage}d{dev}", dev, StreamKind.COMM,
                   rng.uniform(0.5, 1.5), (c,), tag="R")
            ops += [s, c, r]
            stage_r.append(r)
            if rng.random() < 0.3:
                ops.append(
                    Op(f"D{stage}d{dev}", dev, StreamKind.MEM,
                       rng.uniform(0.2, 1.0), (c,), tag="D")
                )
        # Cross-device sync every few stages, like an optimizer step or
        # the loss boundary between forward and backward.
        if stage % 4 == 3:
            barrier = Op(f"B{stage}", 0, StreamKind.COMP, 0.0,
                         tuple(stage_r), tag="X")
            ops.append(barrier)
        stage += 1
    return ops


def time_engine(engine, ops: list[Op]) -> tuple[float, float]:
    """(wall seconds, simulated makespan) of one run."""
    t0 = time.perf_counter()
    result = engine.run(ops)
    return time.perf_counter() - t0, result.makespan


def engine_benchmark(args) -> tuple[dict, bool]:
    """Fast event-heap engine vs the reference fluid loop."""
    num_ops = 2_000 if args.quick else args.ops
    ops = build_dag(num_ops, args.devices, args.seed)
    print(f"DAG: {len(ops)} ops on {args.devices} devices "
          f"({'quick' if args.quick else 'full'} mode)")

    fast_wall, fast_makespan = time_engine(SimEngine(), ops)
    ref_wall, ref_makespan = time_engine(ReferenceSimEngine(), ops)
    speedup = ref_wall / fast_wall

    table = Table(["engine", "wall (s)", "makespan (s)"],
                  title=f"SimEngine fast path vs reference, {len(ops)}-op DAG")
    table.add_row(["SimEngine (fast)", fast_wall, fast_makespan])
    table.add_row(["ReferenceSimEngine", ref_wall, ref_makespan])
    print(table)
    print(f"speedup: {speedup:.2f}x")

    ok = True
    if abs(fast_makespan - ref_makespan) > 1e-9 * max(1.0, abs(ref_makespan)):
        print("FAIL: engines disagree on the makespan", file=sys.stderr)
        ok = False
    if ok and not args.quick and speedup < REQUIRED_SPEEDUP:
        print(f"FAIL: speedup {speedup:.2f}x < required "
              f"{REQUIRED_SPEEDUP:.1f}x", file=sys.stderr)
        ok = False
    payload = {
        "num_ops": len(ops),
        "devices": args.devices,
        "fast_wall_s": fast_wall,
        "reference_wall_s": ref_wall,
        "speedup": speedup,
        "required_speedup": None if args.quick else REQUIRED_SPEEDUP,
    }
    return payload, ok


def _evaluate_grid(batches, ns, enabled: bool):
    """One timed pass of MPipeMoE.evaluate over the (batch, n) grid.

    ``enabled=False`` swaps in the :class:`ColdEvaluator`, which
    reproduces the seed evaluation path (uncached stage costs, a fresh
    Op DAG and a fully recorded run per simulated trial).
    """
    spec = get_preset("GPT-XL")
    ctx = SystemContext(world_size=64)
    if not enabled:
        ctx.evaluator = ColdEvaluator(ctx)
    models = [MPipeMoEModel(ctx, fixed_n=n) for n in ns]
    t0 = time.perf_counter()
    reports = [m.evaluate(spec, b) for b in batches for m in models]
    return time.perf_counter() - t0, reports


def selector_loop_benchmark(args) -> tuple[dict, bool]:
    """Seed path vs shared-evaluator fast path on MPipeMoE.evaluate."""
    batches = QUICK_EVAL_BATCHES if args.quick else EVAL_BATCHES
    ns = QUICK_EVAL_NS if args.quick else EVAL_NS
    rounds = 1 if args.quick else 3

    # Fresh contexts every round; best-of-N tames scheduler noise (the
    # reports are identical across rounds, so any round's serve to check
    # seed/fast agreement).
    seed_runs = [_evaluate_grid(batches, ns, enabled=False) for _ in range(rounds)]
    fast_runs = [_evaluate_grid(batches, ns, enabled=True) for _ in range(rounds)]
    seed_wall = min(wall for wall, _ in seed_runs)
    fast_wall = min(wall for wall, _ in fast_runs)
    seed_reports = seed_runs[0][1]
    fast_reports = fast_runs[0][1]
    points = len(batches) * len(ns)
    speedup = seed_wall / fast_wall

    table = Table(
        ["path", "wall (ms)", "points"],
        title=f"MPipeMoE.evaluate selector loop, GPT-XL x {points} (B, n) points",
    )
    table.add_row(["seed (no cache, recorded sims)", seed_wall * 1e3, points])
    table.add_row(["shared evaluator + compiled", fast_wall * 1e3, points])
    print(table)
    print(f"evaluate speedup: {speedup:.2f}x")

    ok = True
    if seed_reports != fast_reports:
        print("FAIL: cached evaluation changed a SystemReport", file=sys.stderr)
        ok = False
    if ok and not args.quick and speedup < REQUIRED_EVALUATE_SPEEDUP:
        print(f"FAIL: evaluate speedup {speedup:.2f}x < required "
              f"{REQUIRED_EVALUATE_SPEEDUP:.1f}x", file=sys.stderr)
        ok = False
    payload = {
        "spec": "GPT-XL",
        "world_size": 64,
        "batches": list(batches),
        "ns": [n if n is not None else "adaptive" for n in ns],
        "points": points,
        "rounds": rounds,
        "seed_wall_s": seed_wall,
        "fast_wall_s": fast_wall,
        "speedup": speedup,
        "required_speedup": None if args.quick else REQUIRED_EVALUATE_SPEEDUP,
        "reports_identical": seed_reports == fast_reports,
    }
    return payload, ok


def emit_json(mode: str, engine_payload: dict, evaluate_payload: dict) -> None:
    """Append this run's record to the trajectory file (a JSON array)."""
    RESULTS_JSON.parent.mkdir(exist_ok=True)
    record = {
        "benchmark": "bench_sim_engine",
        "mode": mode,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "engine": engine_payload,
        "evaluate": evaluate_payload,
    }
    history: list = []
    if RESULTS_JSON.is_file():
        try:
            previous = json.loads(RESULTS_JSON.read_text())
            if isinstance(previous, list):
                history = previous
            elif isinstance(previous, dict):  # pre-trajectory single record
                history = [previous]
        except (OSError, json.JSONDecodeError):
            pass  # unreadable trajectory: restart it rather than crash
    history.append(record)
    RESULTS_JSON.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")
    print(f"appended run {len(history)} to {RESULTS_JSON}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ops", type=int, default=10_000,
                        help="approximate DAG size (default 10000)")
    parser.add_argument("--devices", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small workloads, agreement checks only (CI smoke)")
    args = parser.parse_args(argv)

    engine_payload, engine_ok = engine_benchmark(args)
    evaluate_payload, evaluate_ok = selector_loop_benchmark(args)
    emit_json("quick" if args.quick else "full", engine_payload, evaluate_payload)

    if not (engine_ok and evaluate_ok):
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
