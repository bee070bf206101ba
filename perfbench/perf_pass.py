"""One benchmark pass, in a fresh interpreter.

Run by ``perfbench/run.py``, never imported by it: each pass starts a
new Python process so it is memo-cold and template-cold, exactly like a
first ``repro sweep``.  The pass

1. times ``import repro.api`` and building the workload's studies
   (setup), then reports the monotonic clock so the parent can add the
   interpreter start it timed from outside;
2. runs every study (``Study.run()``, timed) and exports every result
   set (``ResultSet.to_json()``, timed), hashing the JSON;
3. optionally re-prices a seeded sample of scenarios one at a time
   through ``SweepRunner(objective, backend="serial", vectorize=False)``
   on an emptied context pool (memo-cold) and compares every value bit
   for bit with the pass's own;
4. prints one JSON line with its measurements.

``--trace 1`` installs the layer wrappers of :mod:`perf_trace` around
step 2 and adds the per-layer metrics; ``--spans`` names the file the
recorded spans are written to once the pass ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import struct
import sys
import time

#: Untraced export timing: repeat a short ``to_json`` until this much
#: wall time is spent, at most this many calls.
EXPORT_MIN_S = 0.25
EXPORT_MAX_CALLS = 50


def _bits(value):
    """A bit-exact, comparable image of a values payload."""
    if isinstance(value, float):
        return struct.pack("<d", value).hex()
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


def _timed_export(results, min_s: float) -> tuple[str, float]:
    """``results.to_json()`` and its wall time.

    A small export is repeated until ``min_s`` has been spent (at most
    :data:`EXPORT_MAX_CALLS` calls) and the median call time is
    reported, so millisecond exports are not pure timer noise.
    """
    times = []
    text = None
    while not times or (sum(times) < min_s and len(times) < EXPORT_MAX_CALLS):
        start = time.perf_counter()
        out = results.to_json()
        times.append(time.perf_counter() - start)
        if text is None:
            text = out
        elif out != text:
            raise AssertionError("ResultSet.to_json() is not deterministic")
    return text, statistics.median(times)


def check_sample(parts, result_sets, seed: int, size: int) -> tuple[int, int]:
    """Re-price a seeded sample memo-cold; return (checked, mismatched)."""
    from repro.api.study import OBJECTIVES
    from repro.sweep import runner as runner_mod
    from repro.sweep.runner import SweepRunner

    rng = random.Random(f"check:{seed}")
    total = sum(len(scenarios) for _, scenarios in parts)
    checked = mismatched = 0
    for (objective, scenarios), results in zip(parts, result_sets):
        share = max(1, round(size * len(scenarios) / total))
        runner = SweepRunner(
            OBJECTIVES[objective], backend="serial", vectorize=False
        )
        for i in sorted(rng.sample(range(len(scenarios)), min(share, len(scenarios)))):
            with runner_mod._POOL_LOCK:  # memo-cold: no shared context survives
                runner_mod._CONTEXTS.clear()
            cold = runner.run([scenarios[i]])[0]
            checked += 1
            if not cold.ok or _bits(cold.values) != _bits(results[i].values):
                mismatched += 1
                print(
                    f"mismatch: {scenarios[i].label()} pass={results[i].values} "
                    f"cold={cold.values}",
                    file=sys.stderr,
                )
    return checked, mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, default=0,
                        help="scenarios to re-price memo-cold (0 = none)")
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--spans", default=None,
                        help="write the traced pass's spans to this file")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import repro.api  # noqa: F401  (timed: setup.import_s)

    t1 = time.perf_counter()
    import perf_workloads

    parts = perf_workloads.generate(args.workload, args.seed)
    studies = perf_workloads.build_studies(parts)
    t2 = time.perf_counter()
    setup_done = time.monotonic()

    tracer = None
    if args.trace:
        from perf_trace import Tracer

        tracer = Tracer()
        tracer.pass_id = args.pass_id
        tracer.install()
    try:
        result_sets = []
        run_s = 0.0
        for study in studies:
            start = time.perf_counter()
            result_sets.append(study.run())
            run_s += time.perf_counter() - start
        export_s = 0.0
        digest = hashlib.sha256()
        for results in result_sets:
            # Traced passes export once, so the to_json spans time
            # exactly one call per result set.
            text, seconds = _timed_export(
                results, 0.0 if args.trace else EXPORT_MIN_S
            )
            export_s += seconds
            digest.update(text.encode())
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    stats = [r.cache_stats() for r in result_sets]
    cache_stats = {k: sum(s[k] for s in stats) for k in stats[0]}
    out = {
        "pass_id": args.pass_id,
        "traced": bool(args.trace),
        "setup_done": setup_done,
        "import_s": t1 - t0,
        "grid_s": t2 - t1,
        "scenarios": cache_stats["scenarios"],
        "failures": sum(not r.ok for rs in result_sets for r in rs),
        "run_s": run_s,
        "export_s": export_s,
        "peak_rss_mb": peak_rss_mb,
        "sha256": digest.hexdigest(),
        "scenario_digest": perf_workloads.digest(parts),
        "cache_stats": cache_stats,
    }
    if tracer is not None:
        from perf_trace import layer_metrics

        out["layers"] = layer_metrics(tracer, cache_stats, run_s, export_s)
        if args.spans:
            tracer.dump(args.spans)
    if args.check:
        out["checked"], out["mismatched"] = check_sample(
            parts, result_sets, args.seed, args.check
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
