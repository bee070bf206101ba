"""Fault-tolerant sweep execution: retry/timeout, keep-going, resume.

Driven end to end through the deterministic fault-injection harness
(:mod:`repro.testing.faults`): scripted scenario failures, hangs, and
worker kills hit the real execution stack on every backend, and the
assertions pin the acceptance contract — injected-transient faults
converge to a complete, byte-identical ResultSet; injected-fatal faults
surface as exactly the scripted failures; resumed runs re-execute only
the failed-or-missing points.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.api import Study
from repro.api.backends import ProcessBackend
from repro.obs import pop_collector, push_collector
from repro.sweep import (
    RetryPolicy,
    Scenario,
    ScenarioError,
    ScenarioGrid,
    SweepError,
    SweepRunner,
    SweepTimeoutError,
    WorkerCrashError,
)
from repro.sweep.resilience import (
    ATTEMPTS_KEY,
    ERROR_KEY,
    MANIFEST_NAME,
    RunManifest,
    error_payload,
    run_with_policy,
)
from repro.testing.faults import Fault, FaultInjected, FaultPlan
from tests.conftest import run_python

GRID = ScenarioGrid(
    systems=("timeline",), specs=("GPT-S",), world_sizes=(8,),
    batches=(1024, 2048, 4096, 8192), ns=(2,),
)

#: Every local execution path: each backend's per-scenario map, and the
#: whole-grid switch on each in-line backend (a resilient run keeps the
#: per-scenario path even then).
RUN_PATHS = {
    "serial": {"backend": "serial", "workers": 2},  # serial ignores workers
    "process": {"backend": "process", "workers": 2},
    "vectorize-serial": {"backend": "serial", "vectorize": True},
    "vectorize-process": {"backend": "process", "workers": 1, "vectorize": True},
}


# Module-level so process-backend workers unpickle them by name.
def fake_evaluate(scenario: Scenario) -> dict:
    values = {
        "iteration_time": scenario.batch * 1e-6 * (scenario.n or 1),
        "peak_memory_bytes": scenario.batch * 100,
    }
    counter = os.environ.get("RESILIENCE_TEST_COUNTER")
    if counter:
        with open(counter, "a") as fh:
            fh.write(scenario.key() + "\n")
    return values


#: The manifest a keep-going run over GRID leaves (batch 4096 failing).
PINNED_MANIFEST = """\
{
 "grid": "e8577238fe2f214a9ec5",
 "slots": {
  "1f5d2e34ebae3be0540e": {
   "attempts": 1,
   "status": "ok"
  },
  "3a891eb5d3490da132d4": {
   "attempts": 1,
   "status": "ok"
  },
  "3d81dde36ed75a53f427": {
   "attempts": 1,
   "status": "ok"
  },
  "6d128da0354c2402bddc": {
   "attempts": 2,
   "error": {
    "attempts": 2,
    "cause": "FaultInjected",
    "message": "timeline/GPT-S/N=8/B=4096/n=2 failed after 2 attempt(s): \
FaultInjected('injected fault')",
    "type": "ScenarioError"
   },
   "status": "failed"
  }
 },
 "version": 1
}"""


def plan_of(tmp_path, *faults) -> FaultPlan:
    return FaultPlan(faults, tmp_path / "faults")


def completed(manifest: RunManifest) -> int:
    """How many of the manifest's slots finished ``ok``."""
    return sum(entry["status"] == "ok" for entry in manifest.slots.values())


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff": -1.0},
            {"backoff_factor": 0.5},
            {"jitter": -0.1},
            {"timeout": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_backoff_schedule_is_exponential(self):
        policy = RetryPolicy(max_attempts=4, backoff=0.5, backoff_factor=3.0)
        assert [policy.delay(r) for r in (1, 2, 3)] == [0.5, 1.5, 4.5]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=3, backoff=1.0, jitter=0.25, seed=7)
        delays = [policy.delay(1, key="abc") for _ in range(3)]
        assert delays[0] == delays[1] == delays[2]
        assert 1.0 <= delays[0] < 1.25
        # Different seeds / scenarios decorrelate the schedules.
        assert policy.delay(1, "abc") != RetryPolicy(
            max_attempts=3, backoff=1.0, jitter=0.25, seed=8
        ).delay(1, "abc")
        assert policy.delay(1, "abc") != policy.delay(1, "xyz")

    def test_round_trips_through_to_dict(self):
        policy = RetryPolicy(max_attempts=3, backoff=0.1, timeout=5.0)
        assert RetryPolicy(**policy.to_dict()) == policy


class TestTaxonomy:
    def test_scenario_error_carries_scenario_and_cause(self):
        sc = Scenario(system="timeline", n=2)
        cause = RuntimeError("boom")
        err = ScenarioError(scenario=sc, attempts=3, cause=cause)
        assert err.scenario is sc and err.attempts == 3 and err.cause is cause
        assert isinstance(err, SweepError)
        assert "3 attempt(s)" in str(err)

    def test_timeout_error_names_the_budget(self):
        err = SweepTimeoutError(
            scenario=Scenario(system="timeline"), timeout=2.5
        )
        assert err.timeout == 2.5 and "2.5s" in str(err)

    def test_worker_crash_lists_the_pending_shard(self):
        pending = (Scenario(system="timeline"), Scenario(system="fastmoe"))
        err = WorkerCrashError(scenario=pending[0], pending=pending)
        assert err.pending == pending and "2 scenario(s)" in str(err)

    def test_error_payload_is_json_able(self):
        err = ScenarioError(
            scenario=Scenario(system="timeline"), attempts=2,
            cause=ValueError("nope"),
        )
        payload = error_payload(err)
        assert payload["type"] == "ScenarioError"
        assert payload["cause"] == "ValueError"
        assert payload["attempts"] == 2
        json.dumps(payload)  # must serialize


class TestRetryLoop:
    def test_attempts_ride_the_values_dict(self):
        values = run_with_policy(
            fake_evaluate, Scenario(system="timeline", n=2),
            RetryPolicy(max_attempts=3),
        )
        assert values[ATTEMPTS_KEY] == 1

    def test_keep_returns_an_error_marker(self, tmp_path):
        plan = plan_of(tmp_path, Fault(kind="fail"))
        with plan.active():
            values = run_with_policy(
                fake_evaluate, Scenario(system="timeline", n=2),
                RetryPolicy(max_attempts=2), on_error="keep",
            )
        assert values[ATTEMPTS_KEY] == 2
        assert values[ERROR_KEY]["type"] == "ScenarioError"
        assert values[ERROR_KEY]["cause"] == "FaultInjected"

    def test_backoff_sleeps_between_attempts_only(self, monkeypatch, tmp_path):
        slept = []
        monkeypatch.setattr(
            "repro.sweep.resilience._sleep", lambda s: slept.append(s)
        )
        plan = plan_of(tmp_path, Fault(kind="fail", attempts_below=3))
        with plan.active():
            values = run_with_policy(
                fake_evaluate, Scenario(system="timeline", n=2),
                RetryPolicy(max_attempts=3, backoff=0.5),
            )
        assert values[ATTEMPTS_KEY] == 3
        assert slept == [0.5, 1.0]  # before attempts 2 and 3, never first


class TestFlakyObjectiveConverges:
    @pytest.mark.parametrize("path", RUN_PATHS)
    def test_values_match_the_uninjected_run(self, path, tmp_path):
        baseline = SweepRunner(fake_evaluate, backend="serial").run(GRID)
        plan = plan_of(
            tmp_path,
            Fault(kind="fail", match={"batch": 2048}, attempts_below=3),
        )
        plan.install()
        try:
            results = SweepRunner(
                fake_evaluate, retry=RetryPolicy(max_attempts=3),
                **RUN_PATHS[path],
            ).run(GRID)
        finally:
            plan.uninstall()
        assert all(r.ok for r in results)
        assert [r.values for r in results] == [r.values for r in baseline]
        by_batch = {r.scenario.batch: r for r in results}
        assert by_batch[2048].attempts == 3  # failed twice, then recovered
        assert all(
            by_batch[b].attempts == 1 for b in (1024, 4096, 8192)
        )

    def test_exhausted_retries_raise_with_the_scenario(self, tmp_path):
        plan = plan_of(
            tmp_path, Fault(kind="fail", match={"batch": 2048})
        )
        with plan.active():
            with pytest.raises(ScenarioError) as info:
                SweepRunner(
                    fake_evaluate, backend="serial",
                    retry=RetryPolicy(max_attempts=2),
                ).run(GRID)
        assert info.value.scenario.batch == 2048
        assert info.value.attempts == 2
        assert isinstance(info.value.cause, FaultInjected)


class TestKeepGoing:
    @pytest.mark.parametrize("path", RUN_PATHS)
    def test_failures_surface_exactly_the_injected_scenarios(
        self, path, tmp_path
    ):
        baseline = SweepRunner(fake_evaluate, backend="serial").run(GRID)
        plan = plan_of(
            tmp_path, Fault(kind="fail", match={"batch": 4096})
        )
        plan.install()
        try:
            results = SweepRunner(
                fake_evaluate, on_error="keep", **RUN_PATHS[path]
            ).run(GRID)
        finally:
            plan.uninstall()
        failed = [r for r in results if not r.ok]
        assert [r.scenario.batch for r in failed] == [4096]
        assert failed[0].values == {}
        assert failed[0].error["type"] == "ScenarioError"
        for got, want in zip(results, baseline):
            if got.ok:
                assert got.values == want.values  # byte-identical healthy rows

    def test_resultset_partitions_and_serializes_failures(self, tmp_path):
        plan = plan_of(
            tmp_path, Fault(kind="fail", match={"batch": 1024})
        )
        with plan.active():
            results = Study(
                GRID, objective=fake_evaluate, on_error="keep"
            ).run()
        assert len(results.failures()) == 1
        assert len(results.ok()) == len(GRID) - 1
        assert results.cache_stats()["failures"] == 1
        payload = json.loads(results.to_json())
        failed = [p for p in payload if not p.get("ok", True)]
        assert len(failed) == 1
        assert failed[0]["error"]["cause"] == "FaultInjected"
        assert failed[0]["attempts"] == 1
        # Healthy rows carry no failure fields: byte-compatible exports.
        assert all("ok" not in p and "error" not in p
                   for p in payload if p not in failed)


class TestTimeouts:
    def test_hung_objective_trips_the_scenario_timeout(self, tmp_path):
        plan = plan_of(
            tmp_path,
            Fault(kind="hang", match={"batch": 2048}, seconds=5.0),
        )
        with plan.active():
            with pytest.raises(SweepTimeoutError) as info:
                SweepRunner(
                    fake_evaluate, backend="serial",
                    retry=RetryPolicy(max_attempts=1, timeout=0.2),
                ).run(GRID)
        assert info.value.scenario.batch == 2048
        assert info.value.timeout == 0.2

    def test_timed_out_attempt_does_not_poison_its_context(
        self, monkeypatch
    ):
        """The abandoned attempt keeps evaluating while it holds its
        context's lock; the retry and every later scenario on the same
        cluster must not queue behind it."""
        from repro.systems import MPipeMoEModel

        real_evaluate = MPipeMoEModel.evaluate
        calls = []

        def stall_first_call(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                time.sleep(3.0)  # 6x the attempt timeout
                # Abandoned by now: end without pricing anything, so the
                # orphan cannot race a later test's call counters.
                raise RuntimeError("abandoned attempt")
            return real_evaluate(self, *args, **kwargs)

        monkeypatch.setattr(MPipeMoEModel, "evaluate", stall_first_call)
        grid = [
            Scenario(system="mpipemoe", spec="GPT-S", world_size=8, batch=b)
            for b in (4096, 8192)
        ]
        results = (
            Study(grid).retry(max_attempts=3, timeout=0.5).keep_going().run()
        )
        assert [r.ok for r in results] == [True, True]
        assert [r.attempts for r in results] == [2, 1]

    def test_timeout_counts_as_a_failed_attempt_and_retries(self, tmp_path):
        plan = plan_of(
            tmp_path,
            Fault(kind="hang", match={"batch": 2048}, seconds=5.0,
                  attempts_below=2),
        )
        with plan.active():
            results = SweepRunner(
                fake_evaluate, backend="serial",
                retry=RetryPolicy(max_attempts=2, timeout=0.2),
            ).run(GRID)
        by_batch = {r.scenario.batch: r for r in results}
        assert by_batch[2048].ok and by_batch[2048].attempts == 2

    def test_async_objectives_are_rejected_before_any_attempt(self):
        """The retry and timeout loop runs plain callables only; a
        coroutine function fails when the runner is built, not as a
        timed-out or retried attempt."""
        async def slow_evaluate(scenario):
            return {"iteration_time": scenario.batch * 1e-6}

        for kwargs in (
            dict(retry=RetryPolicy(max_attempts=2, timeout=0.2)),
            dict(on_error="keep"),
        ):
            with pytest.raises(TypeError, match="coroutine function"):
                SweepRunner(slow_evaluate, backend="serial", **kwargs)


class TestWorkerDeath:
    def test_killed_worker_converges_after_pool_respawn(self, tmp_path):
        baseline = SweepRunner(fake_evaluate, backend="serial").run(GRID)
        plan = plan_of(
            tmp_path,
            Fault(kind="kill", match={"batch": 2048}, attempts_below=2),
        )
        plan.install()
        try:
            results = SweepRunner(
                fake_evaluate, backend="process", workers=2,
                retry=RetryPolicy(max_attempts=3),
            ).run(GRID)
        finally:
            plan.uninstall()
        assert all(r.ok for r in results)
        assert [r.values for r in results] == [r.values for r in baseline]
        # The kill fired exactly once (durable counters survive SIGKILL).
        assert plan.attempts(0, next(
            sc for sc in GRID if sc.batch == 2048
        )) == 2

    def test_unrecoverable_crash_raises_worker_crash_error(self, tmp_path):
        plan = plan_of(tmp_path, Fault(kind="kill", match={"batch": 2048}))
        plan.install()
        try:
            with pytest.raises(WorkerCrashError) as info:
                SweepRunner(
                    fake_evaluate,
                    backend=ProcessBackend(max_pool_respawns=1),
                    workers=2,
                    retry=RetryPolicy(max_attempts=1),
                ).run(GRID)
        finally:
            plan.uninstall()
        assert any(sc.batch == 2048 for sc in info.value.pending)

    def test_unrecoverable_crash_keeps_the_salvaged_shard(self, tmp_path):
        plan = plan_of(tmp_path, Fault(kind="kill", match={"batch": 2048}))
        plan.install()
        try:
            results = SweepRunner(
                fake_evaluate,
                backend=ProcessBackend(max_pool_respawns=1),
                workers=2,
                on_error="keep",
            ).run(GRID)
        finally:
            plan.uninstall()
        by_batch = {r.scenario.batch: r for r in results}
        assert not by_batch[2048].ok
        assert by_batch[2048].error["type"] == "WorkerCrashError"
        baseline = SweepRunner(fake_evaluate, backend="serial").run(GRID)
        for got, want in zip(results, baseline):
            if got.ok:
                assert got.values == want.values

    def test_a_lost_pools_kept_rows_are_pinned(self, tmp_path):
        """The runner settles a lost pool's unfinished points: each kept
        row carries the backend's message and its BrokenProcessPool."""
        plan = plan_of(tmp_path, Fault(kind="kill", match={"batch": 2048}))
        plan.install()
        try:
            results = SweepRunner(
                fake_evaluate,
                backend=ProcessBackend(max_pool_respawns=1),
                workers=2,
                on_error="keep",
            ).run(GRID)
        finally:
            plan.uninstall()
        lost = [r for r in results if not r.ok]
        assert any(r.scenario.batch == 2048 for r in lost)
        for row in lost:
            assert row.error == {
                "attempts": 1,
                "cause": "BrokenProcessPool",
                "message": (
                    f"worker process died; {len(lost)} scenario(s) "
                    f"unfinished after exhausting pool respawns"
                ),
                "type": "WorkerCrashError",
            }
            assert row.attempts == 1


class TestResume:
    def test_resume_reexecutes_only_the_failed_points(
        self, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        counter = tmp_path / "evals.log"
        monkeypatch.setenv("RESILIENCE_TEST_COUNTER", str(counter))
        plan = plan_of(tmp_path, Fault(kind="fail", match={"batch": 4096}))
        with plan.active():
            first = SweepRunner(
                fake_evaluate, cache_dir=cache, backend="serial",
                retry=RetryPolicy(max_attempts=2), on_error="keep",
            ).run(GRID)
        assert [r.scenario.batch for r in first if not r.ok] == [4096]
        manifest = RunManifest.load(cache)
        assert manifest is not None
        assert completed(manifest) == len(GRID) - 1
        assert len(manifest.failed()) == 1

        counter.write_text("")  # reset: count only the resumed run's work
        resumed = SweepRunner(
            fake_evaluate, cache_dir=cache, backend="serial",
            retry=RetryPolicy(max_attempts=2), on_error="keep", resume=True,
        ).run(GRID)
        assert all(r.ok for r in resumed)
        evaluated = [line for line in counter.read_text().splitlines() if line]
        assert len(evaluated) == 1  # only the failed point re-ran
        by_batch = {r.scenario.batch: r for r in resumed}
        # 2 failed attempts in run one + 1 successful attempt now.
        assert by_batch[4096].attempts == 3
        assert all(by_batch[b].cached for b in (1024, 2048, 8192))
        assert not RunManifest.load(cache).failed()

    def test_keep_going_manifest_bytes_are_pinned(self, tmp_path):
        """The exact manifest a keep-going run leaves: grid digest, slot
        keys, statuses, attempt counts and the kept error payload."""
        cache = tmp_path / "cache"
        plan = plan_of(tmp_path, Fault(kind="fail", match={"batch": 4096}))
        with plan.active():
            SweepRunner(
                fake_evaluate, cache_dir=cache, backend="serial",
                retry=RetryPolicy(max_attempts=2), on_error="keep",
            ).run(GRID)
        assert (cache / MANIFEST_NAME).read_text() == PINNED_MANIFEST

    def test_resume_rejects_a_different_grid(self, tmp_path):
        cache = tmp_path / "cache"
        SweepRunner(
            fake_evaluate, cache_dir=cache, backend="serial",
            on_error="keep",
        ).run(GRID)
        other = ScenarioGrid(
            systems=("timeline",), specs=("GPT-S",), world_sizes=(8,),
            batches=(512,), ns=(2,),
        )
        with pytest.raises(ValueError, match="different grid"):
            SweepRunner(
                fake_evaluate, cache_dir=cache, backend="serial",
                resume=True,
            ).run(other)

    def test_resume_needs_a_cache_dir(self):
        with pytest.raises(ValueError, match="cache_dir"):
            SweepRunner(fake_evaluate, resume=True)

    def test_plain_runs_write_no_manifest(self, tmp_path):
        cache = tmp_path / "cache"
        SweepRunner(fake_evaluate, cache_dir=cache, backend="serial").run(GRID)
        assert not (cache / MANIFEST_NAME).exists()

    def test_raise_mode_still_records_completed_hits(self, tmp_path):
        cache = tmp_path / "cache"
        SweepRunner(fake_evaluate, cache_dir=cache, backend="serial").run(
            [sc for sc in GRID if sc.batch != 4096]
        )
        plan = plan_of(tmp_path, Fault(kind="fail", match={"batch": 4096}))
        with plan.active():
            with pytest.raises(ScenarioError):
                SweepRunner(
                    fake_evaluate, cache_dir=cache, backend="serial",
                    retry=RetryPolicy(max_attempts=2),
                ).run(GRID)
        manifest = RunManifest.load(cache)
        assert manifest is not None
        assert completed(manifest) == len(GRID) - 1


#: Eight points, so that a run stopped at its 6th point has 5 landed.
EIGHT_POINTS = ScenarioGrid(
    systems=("timeline",), specs=("GPT-S",), world_sizes=(8,),
    batches=(1024, 2048), ns=(1, 2), strategies=("none", "S1"),
)

#: A cached retry(1) study over EIGHT_POINTS, run in a fresh interpreter:
#: ``argv[1]`` is the cache, ``argv[2]`` is "resume" or "fresh", and the
#: objective calls ``os._exit(9)`` at call ``KILL_AT_CALL`` (if set).
KILLED_STUDY = """
import json, os, sys
from repro.api import ScenarioGrid, Study
from repro.sweep.runner import evaluate_timeline

calls = 0

def objective(scenario):
    global calls
    calls += 1
    if calls == int(os.environ.get("KILL_AT_CALL", "0")):
        os._exit(9)
    return evaluate_timeline(scenario)

grid = ScenarioGrid(
    systems=("timeline",), specs=("GPT-S",), world_sizes=(8,),
    batches=(1024, 2048), ns=(1, 2), strategies=("none", "S1"),
)
study = Study(grid, objective=objective).cache(sys.argv[1]).retry(1)
results = study.resume(sys.argv[2] == "resume").observe().run()
print(json.dumps({
    "values": [r.values for r in results],
    "counters": results.metrics()["metrics"]["counters"],
}))
"""


def cache_entries(cache) -> list:
    return [p for p in cache.glob("*.json") if p.name != MANIFEST_NAME]


class TestLandedWorkSurvives:
    """Each result is cached as it lands, so a run that raises or is
    killed keeps every point it finished, and a resume computes only
    the rest."""

    def test_a_raising_run_keeps_every_point_that_landed(
        self, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        counter = tmp_path / "evals.log"
        monkeypatch.setenv("RESILIENCE_TEST_COUNTER", str(counter))
        sixth = list(EIGHT_POINTS)[5]
        plan = plan_of(tmp_path, Fault(kind="fail", match={
            "batch": sixth.batch, "n": sixth.n, "strategy": sixth.strategy,
        }))
        options = dict(
            cache_dir=cache, backend="serial", retry=RetryPolicy(max_attempts=1)
        )
        with plan.active():
            with pytest.raises(ScenarioError):
                SweepRunner(fake_evaluate, **options).run(EIGHT_POINTS)
        assert len(cache_entries(cache)) == 5
        manifest = RunManifest.load(cache)
        assert completed(manifest) == len(manifest.slots) == 5

        counter.write_text("")  # count only the resumed run's work
        resumed = SweepRunner(fake_evaluate, resume=True, **options).run(
            EIGHT_POINTS
        )
        assert len(counter.read_text().splitlines()) == 3
        assert [r.cached for r in resumed] == [True] * 5 + [False] * 3
        baseline = SweepRunner(fake_evaluate, backend="serial").run(EIGHT_POINTS)
        assert [r.values for r in resumed] == [r.values for r in baseline]

    def test_a_killed_run_keeps_every_point_that_landed(self, tmp_path):
        cache = tmp_path / "cache"
        killed = run_python(
            "-c", KILLED_STUDY, str(cache), "fresh", KILL_AT_CALL="6"
        )
        assert killed.returncode == 9, killed.stderr
        assert len(cache_entries(cache)) == 5
        assert not (cache / MANIFEST_NAME).exists()

        resumed = run_python("-c", KILLED_STUDY, str(cache), "resume")
        assert resumed.returncode == 0, resumed.stderr
        report = json.loads(resumed.stdout)
        assert report["counters"]["sweep.scenarios.computed"] == 3
        assert report["counters"]["sweep.cache.disk_hits"] == 5
        uninterrupted = Study(EIGHT_POINTS, objective="timeline").run()
        assert report["values"] == [r.values for r in uninterrupted]


class TestObjectiveTaxonomy:
    def test_eq10_wraps_non_memory_errors(self, monkeypatch):
        class BoomSelector:
            def select(self, batch, n):
                raise RuntimeError("selector bug")

        from repro.perfmodel import evalcache
        from repro.sweep.runner import evaluate_eq10

        monkeypatch.setattr(
            evalcache.Evaluator, "selector",
            lambda self, spec, workload=None: BoomSelector(),
        )
        sc = Scenario(
            system="mpipemoe", spec="GPT-S", world_size=8, batch=1024, n=2
        )
        with pytest.raises(ScenarioError) as info:
            evaluate_eq10(sc)
        assert info.value.scenario is sc
        assert isinstance(info.value.cause, RuntimeError)

    def test_eq10_memory_error_stays_infeasible_data(self, monkeypatch):
        class OOMSelector:
            def select(self, batch, n):
                raise MemoryError()

        from repro.perfmodel import evalcache
        from repro.sweep.runner import evaluate_eq10

        monkeypatch.setattr(
            evalcache.Evaluator, "selector",
            lambda self, spec, workload=None: OOMSelector(),
        )
        values = evaluate_eq10(
            Scenario(
                system="mpipemoe", spec="GPT-S", world_size=8,
                batch=1024, n=2,
            )
        )
        assert values["feasible"] is False and values["strategy"] is None


class TestBatchedFallback:
    def test_broken_group_pass_degrades_to_the_scalar_evaluator(
        self, monkeypatch
    ):
        from repro.perfmodel import batcheval
        from repro.sweep.runner import evaluate_timeline

        baseline = [dict(evaluate_timeline(sc)) for sc in GRID]
        for values in baseline:
            values.pop("_evaluator_cache", None)

        def boom(np, group):
            raise RuntimeError("batched pricing bug")

        monkeypatch.setattr(batcheval, "_price_timeline_group", boom)
        events: list = []
        token = push_collector(events)
        try:
            out = batcheval.batch_evaluate_timeline(list(GRID))
        finally:
            pop_collector(token)
        # The stub's own error triggers the fallback, not a call that
        # does not fit its signature.
        fallbacks = [fields for event, fields in events if event == "batch.fallback"]
        assert fallbacks
        assert {fields["error"] for fields in fallbacks} == {"RuntimeError"}
        stats = [values.pop("_evaluator_cache") for values in out]
        assert out == baseline
        # The degraded rows stay attributable: each keeps its scalar memo
        # delta plus the group's fallback marker.
        assert all(s["batch_group"]["fallback"] is True for s in stats)
