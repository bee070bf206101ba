"""The repo's benchmark: seeded sweep workloads through ``repro.api.Study``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-vectorized --seed 1 \\
        --seconds 30 --trace 0

Each pass runs in a fresh interpreter (``perf_pass.py``) on the serial
backend with one thread, so every pass is memo-cold and template-cold
like a first ``repro sweep``.  Passes repeat until ``--seconds`` have
elapsed (at least :data:`MIN_PASSES`).  Set-up time, memory and every
per-layer figure are medians over passes; ``scenarios_per_s`` and
``export_s`` are the best pass (see :func:`summarize`).  ``--trace 1``
alternates untraced and traced
passes: the traced ones give the per-layer metrics, the pair gives the
tracing overhead.

Correctness is checked in the same command: every pass must produce the
same ResultSet JSON (sha256), no row may fail, and a seeded sample of
scenarios re-priced memo-cold on the serial per-scenario path must match
the pass's values bit for bit.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
command exits non-zero when anything mismatched.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

sys.path.insert(0, str(HERE))
from perf_trace import LAYER_METRICS  # noqa: E402
from perf_workloads import WORKLOADS  # noqa: E402

#: Untraced passes per run at least (and traced ones, under --trace 1).
MIN_PASSES = 3
MIN_TRACED = 2
#: No new pass starts after this many seconds, whatever --seconds says,
#: and no pass may take longer than the timeout, so a run always ends
#: within 180 s.
HARD_STOP_S = 110.0
PASS_TIMEOUT_S = 60.0
#: Scenarios re-priced memo-cold per run, per workload.
CHECK_SAMPLE = {
    "grid-vectorized": 64,
    "systems-serial": 32,
    "placement-straggler": 8,
}

END_TO_END = {
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "export_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def _pass_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_pass(args, pass_id: int, traced: bool, check: int) -> dict:
    """Spawn one pass; its JSON line plus the parent-side setup time."""
    cmd = [
        sys.executable, str(HERE / "perf_pass.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(int(traced)), "--check", str(check),
        "--pass-id", str(pass_id),
    ]
    if traced:
        OUT.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT / f"spans-{args.workload}.json")]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_pass_env(), capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"pass {pass_id} timed out after {PASS_TIMEOUT_S:.0f}s", file=sys.stderr)
        return {"pass_id": pass_id, "traced": traced, "error": "timeout"}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return {"pass_id": pass_id, "traced": traced, "error": proc.returncode}
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(f"pass {pass_id} printed no result", file=sys.stderr)
        return {"pass_id": pass_id, "traced": traced, "error": "no result"}
    out["setup_s"] = out["setup_done"] - spawned
    return out


def _median(passes: list, key) -> float:
    return statistics.median(key(p) for p in passes)


def _throughput(p: dict) -> float:
    return p["scenarios"] / p["run_s"]


def summarize(args, passes: list) -> tuple[dict, dict]:
    """(result object, human-readable facts) from the pass records."""
    good = [p for p in passes if "error" not in p]
    untraced = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    scenarios = good[0]["scenarios"] if good else 1
    checked = sum(p.get("checked", 0) for p in good)
    mismatched = sum(p.get("mismatched", 0) for p in good)
    failed_rows = sum(p["failures"] for p in good)
    crashed = len(passes) - len(good)
    attempted = scenarios * len(passes) + checked
    failed = failed_rows + mismatched + scenarios * crashed
    digests = {p["sha256"] for p in good}
    scenario_digests = {p["scenario_digest"] for p in good}
    correct = (
        failed == 0
        and bool(untraced)
        and len(digests) == 1
        and len(scenario_digests) == 1
        and checked > 0
    )
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "scenarios": scenarios,
        "scenario_digest": next(iter(scenario_digests), None),
        "resultset_sha256": sorted(digests),
        "passes": len(passes),
        "traced_passes": len(traced),
        "checked": checked,
        "mismatched": mismatched,
        "failed_ratio": failed / attempted,
        "nproc": os.cpu_count(),
    }
    metrics: dict = {}
    if untraced and not args.trace:
        # Throughput and export are best-of-passes: host contention only
        # ever slows a pass down, and on a shared box it comes in bursts
        # longer than a pass, so the median moves with the neighbours
        # while the best pass does not.  The medians are printed too.
        facts["median_scenarios_per_s"] = _median(untraced, _throughput)
        facts["median_export_s"] = _median(untraced, lambda p: p["export_s"])
        values = {
            "setup_s": _median(untraced, lambda p: p["setup_s"]),
            "scenarios_per_s": max(_throughput(p) for p in untraced),
            "export_s": min(p["export_s"] for p in untraced),
            "peak_rss_mb": _median(untraced, lambda p: p["peak_rss_mb"]),
            "ok_ratio": 1.0 - failed / attempted,
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    elif untraced and traced:
        values = {
            name: _median(traced, lambda p, n=name: p["layers"][n])
            for name in traced[0]["layers"]
        }
        values["setup.import_s"] = _median(good, lambda p: p["import_s"])
        values["setup.grid_s"] = _median(good, lambda p: p["grid_s"])
        values["trace.overhead_ratio"] = _median(
            traced, lambda p: p["run_s"]
        ) / _median(untraced, lambda p: p["run_s"])
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, *_) in LAYER_METRICS.items()
        }
    else:
        correct = False
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure ({SRC / 'repro'} is missing)",
              file=sys.stderr)
        return 2

    passes: list = []
    started = time.monotonic()
    while True:
        untraced = sum(not p["traced"] for p in passes)
        traced = len(passes) - untraced
        enough = untraced >= MIN_PASSES and (not args.trace or traced >= MIN_TRACED)
        elapsed = time.monotonic() - started
        if (enough and elapsed >= args.seconds) or elapsed >= HARD_STOP_S:
            break
        check = CHECK_SAMPLE[args.workload] if not passes else 0
        trace_next = bool(args.trace) and traced < untraced
        passes.append(run_pass(args, len(passes), trace_next, check))
        if "error" in passes[-1]:
            break

    result, facts = summarize(args, passes)
    print("perfbench " + " ".join(f"{k}={v}" for k, v in facts.items()))
    rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    rows.append(("failed_ratio", facts["failed_ratio"], "ratio"))
    for name, value, unit in rows:
        print(f"  {name:34s} {value:>16.6g} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
