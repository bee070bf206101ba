"""Tests for the benchmark itself (generator, tracer, entry point).

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.  Studies run
on a strided slice of each workload so the whole file stays quick.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import perf_workloads  # noqa: E402
from perf_trace import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402

#: Every k-th scenario of each part: few enough to keep the file quick,
#: spread enough to touch every template group and system.
STRIDE = {"grid-vectorized": 64, "systems-serial": 16}


def _cold():
    from repro.sweep import runner as runner_mod

    with runner_mod._POOL_LOCK:
        runner_mod._CONTEXTS.clear()


def _small(name: str, seed: int = 3) -> list:
    parts = perf_workloads.generate(name, seed)
    if name == "placement-straggler":
        # Two optimizer calls are enough to exercise placeopt here.
        return [(objective, scenarios[:8]) for objective, scenarios in parts]
    return [(objective, scenarios[:: STRIDE[name]]) for objective, scenarios in parts]


def _run(parts) -> tuple[list, str]:
    _cold()
    result_sets = [s.run() for s in perf_workloads.build_studies(parts)]
    return result_sets, "".join(r.to_json() for r in result_sets)


@pytest.mark.parametrize("name", sorted(perf_workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    first = perf_workloads.generate(name, 11)
    again = perf_workloads.generate(name, 11)
    other = perf_workloads.generate(name, 12)
    assert perf_workloads.digest(first) == perf_workloads.digest(again)
    assert perf_workloads.digest(first) != perf_workloads.digest(other)


def test_full_scale_sizes_do_not_depend_on_the_seed():
    for name in perf_workloads.WORKLOADS:
        sizes = {
            tuple(len(s) for _, s in perf_workloads.generate(name, seed))
            for seed in (1, 2, 3)
        }
        assert len(sizes) == 1, name


@pytest.mark.parametrize("name", sorted(perf_workloads.WORKLOADS))
def test_traced_and_untraced_json_are_byte_identical(name):
    parts = _small(name)
    _, plain = _run(parts)
    with Tracer() as tracer:
        _, traced = _run(parts)
    assert traced == plain
    assert tracer.spans, "the traced run recorded no spans"


def test_tracing_keeps_the_array_path_on_grid_vectorized():
    parts = _small("grid-vectorized")
    with Tracer() as tracer:
        result_sets, _ = _run(parts)
    stats = [r.cache_stats() for r in result_sets]
    totals = {k: sum(s[k] for s in stats) for k in stats[0]}
    metrics = layer_metrics(tracer, totals, run_s=1.0, export_s=1.0)
    assert metrics["batcheval.vectorized_share"] == 1.0
    assert metrics["batcheval.timeline_s"] > 0
    assert metrics["batcheval.eq10_s"] > 0
    assert metrics["engine.run_compiled.calls"] == 0
    assert set(metrics) | {"setup.import_s", "setup.grid_s", "trace.overhead_ratio"} == set(
        LAYER_METRICS
    )


def test_placement_layers_are_traced():
    parts = _small("placement-straggler")
    with Tracer() as tracer:
        result_sets, _ = _run(parts)
    stats = result_sets[0].cache_stats()
    metrics = layer_metrics(tracer, stats, run_s=1.0, export_s=1.0)
    assert metrics["placeopt.optimize.calls"] == 2
    assert metrics["placeopt.feasible.calls"] > 0
    assert metrics["granularity.searches"] > 0
    assert metrics["systems.evaluate.p50_ms"] > 0


def test_wrappers_are_removed_afterwards():
    from repro.perfmodel import batcheval
    from repro.sweep import runner

    twins = {
        ev: batcheval.batch_evaluator_for(ev)
        for ev in (runner.evaluate_timeline, runner.evaluate_eq10)
    }
    tracer = Tracer()
    tracer.install()
    try:
        patched = tracer.installed_originals()
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
        for ev, twin in twins.items():
            assert batcheval.batch_evaluator_for(ev) is not twin
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner}.{attr} still wrapped"
    for ev, twin in twins.items():
        assert batcheval.batch_evaluator_for(ev) is twin
    assert tracer.installed_originals() == []


def test_benchmark_json_mirrors_the_code():
    import run

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == perf_workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, (unit, better, *_) in LAYER_METRICS.items()
    ]


def test_entry_point_refuses_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "systems-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
