"""Pay-for-what-you-use: obs-off output is byte-identical, obs-on adds
only sidecar files — plus the ``on_event`` hook contract, the logging
bridge, and the live progress line.
"""

from __future__ import annotations

import io
import json
import logging

import pytest

from repro.api import ResultSet, Study
from repro.obs import RUN_REPORT_NAME, ObsSession, ProgressLine, bus
from repro.obs.log import _bridge
from repro.sweep import Scenario, ScenarioGrid, SweepRunner, evaluate_timeline
from repro.sweep import runner as runner_mod

GRID = ScenarioGrid(
    systems=("timeline",), specs=("GPT-S",), world_sizes=(8,),
    batches=(1024, 2048, 4096), ns=(2, 4),
)


def fake_evaluate(scenario: Scenario) -> dict:
    return {"iteration_time": scenario.batch * 1e-6}


def fresh_contexts() -> None:
    """Cold evaluator memos: cache-file stats become run-independent."""
    with runner_mod._POOL_LOCK:
        runner_mod._CONTEXTS.clear()


def cache_files(cache_dir) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes() for p in sorted(cache_dir.iterdir())
        if p.is_file()
    }


def run_grid(cache_dir, obs: ObsSession | None, **kwargs):
    fresh_contexts()
    runner = SweepRunner(
        evaluate_timeline, backend="serial", cache_dir=cache_dir, obs=obs,
        **kwargs,
    )
    return ResultSet(runner.run(GRID))


class TestByteIdentity:
    def test_observed_run_changes_no_result_or_cache_bytes(self, tmp_path):
        plain = run_grid(tmp_path / "plain", None)
        observed = run_grid(
            tmp_path / "obs",
            ObsSession(trace=tmp_path / "trace.json", progress=False),
        )
        assert observed.to_json() == plain.to_json()

        plain_files = cache_files(tmp_path / "plain")
        obs_files = cache_files(tmp_path / "obs")
        # The only on-disk difference: the run report sidecar.
        assert set(obs_files) - set(plain_files) == {"run_report.json"}
        for name, blob in plain_files.items():
            assert obs_files[name] == blob, name

    def test_vectorized_cache_entries_stay_identical(self, tmp_path):
        plain = run_grid(tmp_path / "plain", None, vectorize=True)
        observed = run_grid(
            tmp_path / "obs", ObsSession(trace=True), vectorize=True
        )
        assert observed.to_json() == plain.to_json()
        plain_files = cache_files(tmp_path / "plain")
        obs_files = cache_files(tmp_path / "obs")
        assert set(obs_files) - set(plain_files) == {"run_report.json"}
        for name, blob in plain_files.items():
            assert obs_files[name] == blob, name
            # Group-level batch stats never reach the cache files.
            assert b"batch_group" not in blob

    def test_off_is_off(self, tmp_path):
        """No session, no subscribers: the bus reports inactive during
        the run and nothing obs-shaped lands anywhere."""
        seen = []
        original = bus.active

        def probe(sc):
            seen.append(original())
            return fake_evaluate(sc)

        SweepRunner(probe, backend="serial").run(GRID)
        assert seen and not any(seen)


    def test_run_report_is_indented_sorted_json_with_a_newline(
        self, tmp_path
    ):
        obs = ObsSession(report_path=tmp_path / "report.json")
        run_grid(tmp_path / "cache", obs)
        expected = json.dumps(obs.report(), indent=1, sort_keys=True) + "\n"
        assert (tmp_path / "report.json").read_text() == expected
        assert (tmp_path / "cache" / RUN_REPORT_NAME).read_text() == expected


class TestCacheStatsAccounting:
    def test_uninstrumented_rows_are_counted_not_dropped(self):
        results = ResultSet(SweepRunner(fake_evaluate).run(GRID))
        stats = results.cache_stats()
        # fake_evaluate never touches the memoized evaluator layer.
        assert stats["uninstrumented"] == len(GRID)
        assert stats["reported"] == stats["vectorized"] == 0
        assert (
            stats["reported"] + stats["vectorized"] + stats["uninstrumented"]
            == stats["scenarios"]
        )

    def test_vectorized_rows_are_classified(self):
        results = ResultSet(
            SweepRunner(evaluate_timeline, vectorize=True).run(GRID)
        )
        stats = results.cache_stats()
        assert stats["vectorized"] == len(GRID)
        assert stats["evaluator_hits"] == stats["evaluator_misses"] == 0

    def test_memoized_rows_still_report(self):
        fresh_contexts()
        results = ResultSet(
            SweepRunner(evaluate_timeline, vectorize=False).run(GRID)
        )
        stats = results.cache_stats()
        assert stats["reported"] == len(GRID)
        assert stats["uninstrumented"] == stats["vectorized"] == 0


class TestOnEventHook:
    def test_subscriber_sees_the_run_lifecycle(self):
        events = []
        hook = bus.subscribe(lambda name, fields: events.append((name, fields)))
        try:
            SweepRunner(fake_evaluate, obs=ObsSession()).run(GRID)
        finally:
            bus.unsubscribe(hook)
        names = [name for name, _ in events]
        assert names[0] == "run.start" and names[-1] == "run.end"
        assert names.count("scenario.span") == len(GRID)
        assert "cache.resolved" in names and "run.evaluator" in names
        for name, fields in events:
            assert isinstance(fields["pid"], int)  # stamped by emit()
            assert isinstance(fields["tid"], int)
        spans = [f for name, f in events if name == "scenario.span"]
        assert all(
            f["ok"] and f["attempts"] == 1 and "dur" in f and "ts" in f
            for f in spans
        )

    def test_unsubscribe_is_idempotent_and_deactivates(self):
        hook = bus.subscribe(lambda name, fields: None)
        assert bus.active()
        bus.unsubscribe(hook)
        bus.unsubscribe(hook)  # unknown hook: ignored
        assert not bus.active()

    def test_study_metrics_accessor(self):
        study = Study(GRID, objective="timeline")
        assert study.run().metrics() is None  # plain runs pay nothing
        report = study.observe().run().metrics()
        assert report["version"] == 1
        assert report["run"]["points"] == len(GRID)
        assert report["metrics"]["counters"]

    def test_observe_spec_round_trips(self):
        study = Study(GRID, objective="timeline").observe(
            True, trace="trace.json", progress=True
        )
        described = study.describe()["observe"]
        assert described == {"trace": "trace.json", "progress": True}
        clone = Study.from_spec(study.describe())
        assert clone.describe()["observe"] == described


class TestLogBridge:
    def test_events_become_log_records(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.obs.events"):
            _bridge("scenario.retry", {"label": "x", "attempt": 2, "pid": 1,
                                       "tid": 1, "dur": 0.5})
            _bridge("scenario.span", {"label": "x", "pid": 1, "tid": 1})
        levels = [r.levelno for r in caplog.records]
        assert levels == [logging.INFO, logging.DEBUG]
        assert "scenario.retry" in caplog.records[0].message
        assert "attempt=2" in caplog.records[0].getMessage()
        assert "pid=" not in caplog.records[0].getMessage()

    def test_replayed_events_are_not_logged_twice(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.obs.events"):
            _bridge("scenario.span", {"label": "x", "_replayed": True,
                                      "pid": 1, "tid": 1})
        assert not caplog.records


class TestProgressLine:
    def test_renders_count_and_completion(self):
        stream = io.StringIO()
        line = ProgressLine(stream)
        line.begin(4)
        for _ in range(4):
            line.tick()
        line.end()
        out = stream.getvalue()
        assert "4/4" in out and "100%" in out
        assert out.endswith("\n")

    def test_session_progress_ticks_from_backend_items(self):
        stream = io.StringIO()
        session = ObsSession(progress=True, stream=stream)
        SweepRunner(fake_evaluate, obs=session).run(GRID)
        assert f"{len(GRID)}/{len(GRID)}" in stream.getvalue()

    def test_broken_stream_is_harmless(self):
        class Broken(io.StringIO):
            def write(self, *a):
                raise OSError("gone")

        line = ProgressLine(Broken())
        line.begin(2)
        line.tick()
        line.end()  # no exception


class TestObsValidation:
    def test_runner_rejects_a_non_session(self):
        with pytest.raises(TypeError):
            SweepRunner(fake_evaluate, obs=object())
