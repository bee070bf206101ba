"""Execution tracing: Chrome-trace validity, retries, worker kills.

Fault-injected runs must yield a loadable Chrome-trace JSON with one
span per evaluation attempt, backoff spans for every retry sleep, and
instants for injected faults / pool respawns — while the run itself
still converges to the uninjected values.
"""

from __future__ import annotations

import json

from repro.obs import ObsSession, Tracer
from repro.sweep import RetryPolicy, Scenario, ScenarioGrid, SweepRunner
from repro.testing.faults import Fault, FaultPlan

GRID = ScenarioGrid(
    systems=("timeline",), specs=("GPT-S",), world_sizes=(8,),
    batches=(1024, 2048, 4096, 8192), ns=(2,),
)


# Module-level so process-pool workers unpickle it by name.
def fake_evaluate(scenario: Scenario) -> dict:
    return {
        "iteration_time": scenario.batch * 1e-6 * (scenario.n or 1),
        "peak_memory_bytes": scenario.batch * 100,
    }


def load_trace(tracer: Tracer) -> list[dict]:
    payload = json.loads(tracer.to_chrome_trace())
    assert set(payload) == {"traceEvents"}
    return payload["traceEvents"]


def assert_valid_chrome_trace(events: list[dict]) -> None:
    """Structural validity: what chrome://tracing/perfetto require."""
    assert events
    for e in events:
        assert e["ph"] in ("X", "i", "M")
        if e["ph"] == "M":
            assert e["name"] == "process_name"
            assert "name" in e["args"]
            continue
        assert isinstance(e["name"], str) and e["name"]
        assert e["ts"] >= 0.0  # normalized: traces start at t=0
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        if e["ph"] == "X":
            assert e["dur"] >= 0.0


class TestTracer:
    def test_spans_and_instants_normalize_to_microseconds(self):
        tracer = Tracer()
        tracer.span("work", ts=100.0, dur=0.5, cat="x")
        tracer.instant("blip", ts=100.25)
        events = load_trace(tracer)
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert spans[0]["ts"] == 0.0 and spans[0]["dur"] == 0.5e6
        assert instants[0]["ts"] == 0.25e6 and instants[0]["s"] == "t"

    def test_lane_metadata_names_driver_and_workers(self):
        tracer = Tracer()
        tracer.span("local", ts=1.0, dur=0.1)
        tracer.span("remote", ts=1.0, dur=0.1, pid=99999999, tid=1)
        lanes = {
            e["pid"]: e["args"]["name"]
            for e in load_trace(tracer)
            if e["ph"] == "M"
        }
        assert "sweep driver" in lanes.values()
        assert lanes[99999999] == "worker 99999999"

    def test_save_writes_loadable_json(self, tmp_path):
        tracer = Tracer()
        tracer.span("work", ts=1.0, dur=0.1)
        out = tmp_path / "deep" / "trace.json"
        tracer.save(out)
        assert json.loads(out.read_text())["traceEvents"]

    def test_save_writes_exactly_the_chrome_trace(self, tmp_path):
        tracer = Tracer()
        tracer.span("work", ts=1.0, dur=0.1)
        tracer.instant("blip", ts=1.05)
        out = tmp_path / "trace.json"
        assert tracer.save(out) == str(out)
        assert out.read_text() == tracer.to_chrome_trace()

    def test_negative_durations_are_clamped(self):
        tracer = Tracer()
        tracer.span("clock went backwards", ts=5.0, dur=-1.0)
        (span,) = [e for e in load_trace(tracer) if e["ph"] == "X"]
        assert span["dur"] == 0.0


class TestRetryTrace:
    def test_flaky_scenario_traces_every_attempt(self, tmp_path):
        plan = FaultPlan(
            [Fault(kind="fail", match={"batch": 2048}, attempts_below=3)],
            tmp_path / "faults",
        )
        session = ObsSession(trace=True)
        with plan.active():
            results = SweepRunner(
                fake_evaluate, backend="serial",
                retry=RetryPolicy(max_attempts=3, backoff=0.0),
                obs=session,
            ).run(GRID)
        assert all(r.ok for r in results)

        counters = session.registry.snapshot()["counters"]
        assert counters["sweep.retries"] == 2
        assert counters["sweep.attempts.failed"] == 2
        assert counters["sweep.faults_injected"] == 2
        assert counters["sweep.attempts"] == len(GRID) + 2
        assert counters.get("sweep.failures", 0) == 0

        events = load_trace(session.tracer)
        assert_valid_chrome_trace(events)
        attempts = [e for e in events if e.get("cat") == "attempt"]
        assert len(attempts) == len(GRID) + 2  # one span per attempt
        flaky = [e for e in attempts if "B=2048" in e["name"]]
        assert {e["name"].split("[attempt ")[1][0] for e in flaky} == {
            "1", "2", "3"
        }
        assert [e["args"]["ok"] for e in sorted(flaky, key=lambda e: e["ts"])] \
            == [False, False, True]
        backoffs = [e for e in events if e.get("cat") == "backoff"]
        assert len(backoffs) == 2
        faults = [e for e in events if e.get("cat") == "fault"]
        assert len(faults) == 2 and all(e["ph"] == "i" for e in faults)

    def test_kept_failures_mark_the_trace(self, tmp_path):
        plan = FaultPlan(
            [Fault(kind="fail", match={"batch": 4096})], tmp_path / "faults"
        )
        session = ObsSession(trace=True)
        with plan.active():
            results = SweepRunner(
                fake_evaluate, backend="serial", on_error="keep", obs=session,
            ).run(GRID)
        assert [r.scenario.batch for r in results if not r.ok] == [4096]
        counters = session.registry.snapshot()["counters"]
        assert counters["sweep.failures"] == 1
        failures = [
            e for e in load_trace(session.tracer) if e.get("cat") == "failure"
        ]
        assert len(failures) == 1
        assert "B=4096" in failures[0]["name"]


class TestWorkerKillTrace:
    def test_pool_respawn_is_counted_and_traced(self, tmp_path):
        plan = FaultPlan(
            [Fault(kind="kill", match={"batch": 2048}, attempts_below=2)],
            tmp_path / "faults",
        )
        plan.install()
        session = ObsSession(trace=tmp_path / "trace.json")
        try:
            results = SweepRunner(
                fake_evaluate, backend="process", workers=2,
                retry=RetryPolicy(max_attempts=3, backoff=0.0),
                obs=session,
            ).run(GRID)
        finally:
            plan.uninstall()
        assert all(r.ok for r in results)

        counters = session.registry.snapshot()["counters"]
        assert counters["sweep.pool_respawns"] >= 1
        assert counters["sweep.shards"] >= 1
        assert counters["sweep.scenarios.computed"] == len(GRID)

        events = json.loads((tmp_path / "trace.json").read_text())[
            "traceEvents"
        ]
        assert_valid_chrome_trace(events)
        lanes = [
            e["args"]["name"] for e in events if e["ph"] == "M"
        ]
        assert "sweep driver" in lanes
        assert any(name.startswith("worker ") for name in lanes)
        respawns = [e for e in events if "pool respawn" in e["name"]]
        assert respawns and all(e["ph"] == "i" for e in respawns)
        # Worker-side scenario spans made it home through the sidecar.
        scenario_spans = [e for e in events if e.get("cat") == "scenario"]
        assert len(scenario_spans) == len(GRID)
