"""Metrics registry units + run-wide counter determinism.

The contract under test: counter and histogram *counts* are a pure
function of the workload (same scenarios -> same increments) whatever
the backend interleaving; wall-clock histogram *sums* are explicitly
not.  Cross-backend comparisons therefore pin the scenario/attempt/
cache counters and histogram counts, never durations.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import MetricsRegistry, ObsSession
from repro.sweep import Scenario, ScenarioGrid, SweepRunner

GRID = ScenarioGrid(
    systems=("timeline",), specs=("GPT-S",), world_sizes=(8,),
    batches=(1024, 2048, 4096, 8192), ns=(2,),
)

#: ``remote`` runs against one in-process ``repro serve`` worker, whose
#: thread pool evaluates the shard concurrently in this process.
POOL_BACKENDS = ("serial", "process", "remote")


# Module-level so process-pool workers unpickle it by name.
def fake_evaluate(scenario: Scenario) -> dict:
    return {
        "iteration_time": scenario.batch * 1e-6 * (scenario.n or 1),
        "peak_memory_bytes": scenario.batch * 100,
    }


@pytest.fixture(params=POOL_BACKENDS)
def backend(request):
    """A backend name, with a loopback server up when it is ``remote``."""
    if request.param == "remote":
        request.getfixturevalue("loopback_server")
    return request.param


def observed_run(backend: str, workers: int = 2) -> ObsSession:
    session = ObsSession()
    runner = SweepRunner(
        fake_evaluate, backend=backend, workers=workers, obs=session
    )
    results = runner.run(GRID)
    assert all(r.ok for r in results)
    return session


class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        reg.inc("a.count")
        reg.inc("a.count", 2)
        reg.set_gauge("a.gauge", 7)
        reg.observe("a.hist", 1.0)
        reg.observe("a.hist", 3.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"a.count": 3}
        assert snap["gauges"] == {"a.gauge": 7}
        assert snap["histograms"]["a.hist"] == {
            "count": 2, "sum": 4.0, "min": 1.0, "max": 3.0, "mean": 2.0,
        }

    def test_a_name_belongs_to_one_metric_kind(self):
        reg = MetricsRegistry()
        reg.inc("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.histogram("x")

    def test_snapshot_is_sorted_and_json_deterministic(self):
        reg = MetricsRegistry()
        for name in ("z.last", "a.first", "m.mid"):
            reg.inc(name)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a.first", "m.mid", "z.last"]
        assert reg.to_json() == reg.to_json()
        json.loads(reg.to_json())  # valid JSON


class TestRunCounterDeterminism:
    def test_serial_run_twice_is_identical(self):
        first = observed_run("serial").registry.snapshot()
        second = observed_run("serial").registry.snapshot()
        assert first["counters"] == second["counters"]
        assert {
            name: h["count"] for name, h in first["histograms"].items()
        } == {
            name: h["count"] for name, h in second["histograms"].items()
        }

    def test_workload_counters_match_serial(self, backend):
        baseline = observed_run("serial").registry.snapshot()["counters"]
        counters = observed_run(backend).registry.snapshot()["counters"]
        # Scenario, attempt and disk-cache accounting is workload-shaped
        # and must agree across every execution backend.  (Evaluator-memo
        # counters are excluded by design: fork workers inherit warm
        # memos, spawn workers start cold.)
        for name in (
            "sweep.scenarios.computed",
            "sweep.attempts",
            "sweep.failures",
            "sweep.cache.disk_hits",
            "sweep.cache.disk_misses",
            "sweep.cache.quarantined",
        ):
            assert counters.get(name, 0) == baseline.get(name, 0), name

    def test_every_scenario_lands_in_the_wall_histogram(self, backend):
        snap = observed_run(backend).registry.snapshot()
        assert snap["counters"]["sweep.scenarios.computed"] == len(GRID)
        assert snap["histograms"]["sweep.scenario.wall_s"]["count"] == len(GRID)
        assert (
            snap["histograms"]["sweep.scenario.queue_latency_s"]["count"]
            == len(GRID)
        )

    def test_disk_hits_count_on_the_second_cached_run(self, tmp_path):
        runner_kwargs = dict(backend="serial", cache_dir=tmp_path / "cache")
        SweepRunner(fake_evaluate, **runner_kwargs).run(GRID)
        session = ObsSession()
        SweepRunner(fake_evaluate, obs=session, **runner_kwargs).run(GRID)
        counters = session.registry.snapshot()["counters"]
        assert counters["sweep.cache.disk_hits"] == len(GRID)
        assert counters["sweep.cache.disk_misses"] == 0
        assert counters.get("sweep.scenarios.computed", 0) == 0


class TestRunReport:
    def test_report_shape_and_run_summary(self):
        session = observed_run("serial")
        report = session.report()
        assert report["version"] == 1
        run = report["run"]
        assert run["points"] == len(GRID)
        assert run["backend"] == "serial"
        assert run["cached"] == 0 and run["failures"] == 0
        assert run["wall_s"] > 0
        assert set(report["metrics"]) == {"counters", "gauges", "histograms"}
        json.dumps(report)  # JSON-able end to end

    def test_report_lands_next_to_the_cache_manifest(self, tmp_path):
        cache = tmp_path / "cache"
        session = ObsSession()
        SweepRunner(
            fake_evaluate, backend="serial", cache_dir=cache, obs=session
        ).run(GRID)
        on_disk = json.loads((cache / "run_report.json").read_text())
        assert on_disk == session.report()
