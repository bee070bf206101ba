"""``python -m repro`` — drive studies from the command line.

Four subcommands; the first three all run through the
:class:`~repro.api.Study` facade:

* ``repro sweep`` — build a :class:`~repro.sweep.grid.ScenarioGrid`
  from axis flags, run it, print the table, optionally persist JSON.
  ``--smoke`` pins a small deterministic grid for CI.
* ``repro bench`` — re-emit a named paper-figure study (``--list``
  shows them) through the public facade.
* ``repro study`` — run a declarative JSON study spec
  (:meth:`Study.from_spec`); ``--json -`` streams the ResultSet to
  stdout.
* ``repro serve`` — long-lived study worker for the ``remote``
  backend: accepts scenario shards over TCP, prices them on one
  evaluation thread (run more processes to scale out), and (with
  ``--cache-dir``) answers repeats from a shared federated cache store
  (:mod:`repro.distrib`).

Every command exits non-zero on bad input with the eager validation
errors of the underlying API (unknown axes, backends, objectives).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.api.backends import available_backends
from repro.api.study import OBJECTIVES, Study
from repro.sweep.grid import BACKEND_NAMES, ScenarioGrid

#: The CI smoke grid: tiny, timeline-priced, deterministic.  The two
#: pinned scenarios exercise the routing-workload path (top-k fan-out
#: plus skewed gating) and the expert-placement path (a skewed straggler
#: point re-placed by the optimizer) end to end through the CLI.
SMOKE_SPEC = {
    "grids": [
        {
            "systems": ["timeline"],
            "specs": ["GPT-S"],
            "world_sizes": [8],
            "batches": [1024, 2048],
            "ns": [1, 2],
            "strategies": ["none", "S1"],
        }
    ],
    "scenarios": [
        {
            "system": "timeline",
            "spec": "GPT-S",
            "world_size": 8,
            "batch": 2048,
            "n": 2,
            "strategy": "S1",
            "top_k": 2,
            "imbalance": 4.0,
        },
        {
            "system": "timeline",
            "spec": "GPT-S",
            "world_size": 8,
            "batch": 2048,
            "n": 2,
            "strategy": "S1",
            "imbalance": 4.0,
            "straggler": "single-slow-gpu",
            "severity": 0.5,
            "placement": "optimized",
        },
    ],
    "objective": "timeline",
    "backend": "serial",
}

#: Named paper-figure studies for ``repro bench`` — each is a Study spec
#: mirroring the grid of the corresponding ``benchmarks/bench_*.py``.
BENCH_SPECS: dict[str, dict] = {
    "fig08": {
        "grids": [
            {"systems": ["fastmoe", "fastermoe"],
             "specs": ["GPT-S", "BERT-L", "GPT-XL"],
             "batches": [4096, 8192, 16384]},
            {"systems": ["pipemoe"],
             "specs": ["GPT-S", "BERT-L", "GPT-XL"],
             "batches": [4096, 8192, 16384], "ns": [1, None]},
        ],
    },
    "fig11": {
        "grids": [
            {"systems": ["fastmoe", "fastermoe"], "batches": [16384]},
            {"systems": ["pipemoe"], "ns": [4, None], "batches": [16384]},
            {"systems": ["mpipemoe"], "batches": [16384]},
        ],
    },
    "fig12": {
        "grids": [
            # The full batch scan of bench_fig12_granularity.py,
            # including the band-transition points (20480/22528 around
            # the n=4 -> n=8 switch) the figure exists to show.
            {"systems": ["pipemoe"],
             "batches": [4096, 6144, 8192, 12288, 16384, 20480, 22528,
                         24576, 28672, 31744],
             "ns": [1, 2, 4, 8, None]},
        ],
    },
}


def _parse_optional(text: str, cast):
    """Axis values where ``none``/``adaptive`` mean the adaptive None."""
    if text.lower() in ("none", "adaptive"):
        return None
    return cast(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MPipeMoE reproduction — public study CLI (repro.api).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        # Defaults are None sentinels so "flag given" is distinguishable
        # from "flag omitted": `repro study` must let an explicit
        # `--backend serial` override a spec's backend.
        p.add_argument("--backend", default=None,
                       help=f"execution backend ({', '.join(available_backends())}; "
                            f"default serial)")
        p.add_argument("--workers", type=int, default=None,
                       help="worker count (default 1)")
        p.add_argument("--endpoints", default=None, metavar="HOST:PORT,...",
                       help="comma-separated `repro serve` endpoints; "
                            "implies the remote backend (overrides "
                            "--backend)")
        p.add_argument("--cache-dir", default=None,
                       help="cache completed scenarios as JSON under this dir")
        p.add_argument("--json", metavar="PATH", default=None,
                       help="write the ResultSet JSON here ('-' for stdout)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the result table")
        p.add_argument("--keep-going", action="store_true",
                       help="keep sweeping past failing scenarios; failures "
                            "become ok=false rows and the exit code is 3")
        p.add_argument("--retries", type=int, default=None, metavar="N",
                       help="retry each failing scenario up to N times "
                            "(N+1 total attempts)")
        p.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-scenario attempt timeout in seconds")
        p.add_argument("--resume", action="store_true",
                       help="resume a previous run from its cache manifest "
                            "(needs --cache-dir), re-running only "
                            "failed-or-missing points")
        p.add_argument("--metrics", nargs="?", const="-", default=None,
                       metavar="PATH",
                       help="collect run metrics; write the run-report "
                            "JSON to PATH, or to stderr with no PATH "
                            "(one also lands in --cache-dir)")
        p.add_argument("--trace", default=None, metavar="PATH",
                       help="write a Chrome-trace JSON of the run here "
                            "(open in chrome://tracing or ui.perfetto.dev)")
        p.add_argument("--progress", action="store_true",
                       help="render a live N/total progress line on stderr")

    sweep = sub.add_parser("sweep", help="run a scenario grid built from flags")
    sweep.add_argument("--systems", nargs="+", default=["mpipemoe"],
                       metavar="SYS", help=f"one of {BACKEND_NAMES}")
    sweep.add_argument("--specs", nargs="+", default=["GPT-XL"])
    sweep.add_argument("--world-sizes", nargs="+", type=int, default=[64])
    sweep.add_argument("--batches", nargs="+", type=int, default=[16384])
    sweep.add_argument("--ns", nargs="+", default=["adaptive"],
                       help="pipeline granularities; 'adaptive' for Algorithm 1")
    sweep.add_argument("--strategies", nargs="+", default=["adaptive"],
                       help="memory-reuse strategies; 'adaptive' for Eq. 10")
    sweep.add_argument("--stragglers", nargs="+", default=["adaptive"],
                       help="straggler kinds; 'none'/'adaptive' = homogeneous")
    sweep.add_argument("--severities", nargs="+", type=float, default=[1.0])
    sweep.add_argument("--top-ks", nargs="+", default=["none"],
                       help="routing fan-out k; 'none' = the preset's k")
    sweep.add_argument("--dtypes", nargs="+", default=["none"],
                       help="activation dtypes (fp8/fp16/bf16/fp32/...); "
                            "'none' = the timing default (fp16)")
    sweep.add_argument("--imbalances", nargs="+", type=float, default=[1.0],
                       help="hottest-expert load ratios (1.0 = uniform gating)")
    sweep.add_argument("--placements", nargs="+", default=["none"],
                       help="expert placement strategies (contiguous/"
                            "round_robin/shadowed/optimized); 'none' = the "
                            "implicit contiguous shard map")
    sweep.add_argument("--objective", default="system",
                       choices=sorted(OBJECTIVES))
    sweep.add_argument("--smoke", action="store_true",
                       help="ignore grid flags; run the pinned CI smoke grid")
    add_run_flags(sweep)

    bench = sub.add_parser("bench", help="re-emit a named paper-figure study")
    bench.add_argument("name", nargs="?", help="study name (see --list)")
    bench.add_argument("--list", action="store_true", dest="list_benches",
                       help="list the available named studies")
    add_run_flags(bench)

    study = sub.add_parser("study", help="run a declarative JSON study spec")
    study.add_argument("spec", help="path to the study spec JSON file")
    add_run_flags(study)

    serve = sub.add_parser(
        "serve", help="run a study worker for the remote backend"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0 = OS-assigned; the "
                            "resolved port is printed on stdout)")
    serve.add_argument("--cache-dir", default=None,
                       help="serve a federated cache store from this dir "
                            "(content-addressed, shared across clients)")
    serve.add_argument("--max-entries", type=int, default=None,
                       help="LRU-evict the store past this many entries")
    serve.add_argument("--max-bytes", type=int, default=None,
                       help="LRU-evict the store past this many bytes")
    serve.add_argument("--heartbeat", type=float, default=None,
                       metavar="SECONDS",
                       help="idle heartbeat interval (default 1.0)")
    serve.add_argument("--tag", default=None,
                       help="worker name exported to fault plans "
                            "(REPRO_WORKER_TAG)")

    return parser


def _finish(study: Study, args, title: str) -> int:
    results = study.run()
    failures = results.failures()
    if not args.quiet:
        ok = results.ok()
        if ok:
            print(ok.table(title=title))
        stats = results.cache_stats()
        print(
            f"\n{stats['scenarios']} scenarios "
            f"({stats['disk_hits']} disk hits, "
            f"{stats['evaluator_hits']} evaluator-memo hits)"
        )
    # One line per failure, on stderr, regardless of --quiet: exit code
    # 3 alone tells a CI log *that* something failed but not *what* —
    # the scenario key, error class, and attempt count always surface.
    for failure in failures:
        error = failure.error or {}
        print(
            f"FAILED {failure.label}: {error.get('type', 'SweepError')}: "
            f"{error.get('message', '')} "
            f"[{failure.attempts} attempt(s)]",
            file=sys.stderr,
        )
    if args.metrics:
        report = results.metrics()
        if report is not None:
            payload = json.dumps(report, indent=1, sort_keys=True)
            if args.metrics == "-":
                print(payload, file=sys.stderr)
            else:
                path = Path(args.metrics)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(payload + "\n")
                if not args.quiet:
                    print(f"wrote {path}")
    if args.json:
        payload = results.to_json()
        if args.json == "-":
            print(payload)
        else:
            path = Path(args.json)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(payload + "\n")
            if not args.quiet:
                print(f"wrote {path}")
    if failures:
        # Distinct from the usage/validation exit (2): the run finished
        # but carried failed scenarios the caller must not ignore.
        print(
            f"{len(failures)} of {len(results)} scenario(s) failed",
            file=sys.stderr,
        )
        return 3
    return 0


def _apply_run_flags(study: Study, args) -> Study:
    """Apply the shared execution flags; None means 'flag not given'
    (the study keeps whatever it already has — its own defaults, or a
    spec file's choices)."""
    if args.backend is not None:
        study = study.backend(args.backend)
    if args.endpoints is not None:
        # An explicit worker fleet implies the remote backend; a
        # configured instance (not the zero-arg registry factory) so the
        # flag wins over both --backend and REPRO_REMOTE_WORKERS.
        from repro.distrib.backend import RemoteBackend

        study = study.backend(
            RemoteBackend(
                [e for e in args.endpoints.split(",") if e.strip()]
            )
        )
    if args.workers is not None:
        study = study.workers(args.workers)
    if args.cache_dir is not None:
        study = study.cache(args.cache_dir)
    if args.keep_going:
        study = study.keep_going()
    if args.retries is not None or args.timeout is not None:
        retries = args.retries or 0
        if retries < 0:
            raise ValueError("--retries must be >= 0")
        study = study.retry(
            max_attempts=retries + 1, timeout=args.timeout
        )
    if args.resume:
        study = study.resume()
    if args.metrics is not None or args.trace is not None or args.progress:
        # Any observability flag turns the collectors on; the run-report
        # JSON itself is written by _finish (and, with --cache-dir, also
        # lands beside manifest.json automatically).
        study = study.observe(
            True, trace=args.trace, progress=args.progress
        )
    return study


def _cmd_sweep(args) -> int:
    if args.smoke:
        study = Study.from_spec(SMOKE_SPEC)
        title = "repro sweep --smoke (pinned CI grid)"
    else:
        grid = ScenarioGrid(
            systems=tuple(args.systems),
            specs=tuple(args.specs),
            world_sizes=tuple(args.world_sizes),
            batches=tuple(args.batches),
            ns=tuple(_parse_optional(n, int) for n in args.ns),
            strategies=tuple(_parse_optional(s, str) for s in args.strategies),
            stragglers=tuple(_parse_optional(s, str) for s in args.stragglers),
            severities=tuple(args.severities),
            top_ks=tuple(_parse_optional(k, int) for k in args.top_ks),
            dtypes=tuple(_parse_optional(d, str) for d in args.dtypes),
            imbalances=tuple(args.imbalances),
            placements=tuple(_parse_optional(p, str) for p in args.placements),
        )
        study = Study(grid, objective=args.objective)
        title = f"repro sweep ({len(grid)} scenarios)"
    return _finish(_apply_run_flags(study, args), args, title)


def _cmd_bench(args) -> int:
    if args.list_benches or not args.name:
        for name, spec in sorted(BENCH_SPECS.items()):
            points = sum(len(ScenarioGrid(**axes)) for axes in spec["grids"])
            print(f"{name:8s} {points:4d} scenarios")
        return 0 if args.list_benches else 2
    spec = BENCH_SPECS.get(args.name)
    if spec is None:
        print(
            f"unknown bench {args.name!r}; available: "
            f"{', '.join(sorted(BENCH_SPECS))}",
            file=sys.stderr,
        )
        return 2
    study = _apply_run_flags(Study.from_spec(spec), args)
    return _finish(study, args, f"repro bench {args.name}")


def _cmd_study(args) -> int:
    path = Path(args.spec)
    try:
        spec = json.loads(path.read_text())
    except OSError as exc:
        print(f"cannot read study spec {path}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"study spec {path} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    # Flags given explicitly override the spec's execution options —
    # including back to the defaults (`--backend serial --workers 1`).
    study = _apply_run_flags(Study.from_spec(spec), args)
    return _finish(study, args, f"repro study {path.name}")


def _cmd_serve(args) -> int:
    from repro.distrib.server import HEARTBEAT_INTERVAL, serve

    return serve(
        args.host,
        args.port,
        cache_dir=args.cache_dir,
        max_entries=args.max_entries,
        max_bytes=args.max_bytes,
        heartbeat_interval=(
            args.heartbeat if args.heartbeat is not None else HEARTBEAT_INTERVAL
        ),
        tag=args.tag,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "sweep": _cmd_sweep,
        "bench": _cmd_bench,
        "study": _cmd_study,
        "serve": _cmd_serve,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, TypeError) as exc:
        # Eager API validation (unknown axes/backends/objectives/...)
        # becomes a clean CLI failure instead of a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
