"""The remote backend end to end: equivalence, federation, recovery.

The acceptance contract of the distributed-sweep PR: a >= 50-scenario
study run over loopback ``repro serve`` workers yields byte-identical
ResultSet JSON and byte-identical cache files to the serial reference;
a worker killed mid-shard is recovered by the survivors with correct
attempt accounting; and repeats answered from a server's federated
store surface as the ``federated`` hit class everywhere stats flow.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.api import Study
from repro.api.backends import available_backends, get_backend
from repro.distrib.backend import (
    ENDPOINTS_ENV,
    RemoteBackend,
    WorkerEndpoint,
    _split,
)
from repro.distrib.protocol import HandshakeRejected
from repro.distrib.server import StudyServer
from repro.distrib.store import CacheStore
from repro.obs import ObsSession, bus
from repro.sweep.grid import Scenario, ScenarioGrid
from repro.sweep.resilience import (
    RetryPolicy,
    ScenarioError,
    WorkerCrashError,
)
from repro.sweep.runner import SweepRunner
from repro.testing.faults import Fault, FaultPlan
from tests.api.test_backends import EQUIVALENCE_GRID, pure_makespan

#: A small timeline grid for the cheaper behavioural tests.
SMALL_GRID = ScenarioGrid(
    systems=("timeline",),
    specs=("GPT-S",),
    world_sizes=(8,),
    batches=(1024, 2048),
    ns=(1, 2),
)


# Module-level (the server imports it by qualified name) and free of
# shared contexts, so a memo bound set here leaks into no other test.
def batch_echo(scenario: Scenario) -> dict:
    return {"batch": scenario.batch}


#: Set by the test's hook at the run's first ``backend.item`` tick.
FIRST_TICK = threading.Event()


def waits_for_the_first_tick(scenario: Scenario) -> dict:
    """The first point returns at once; each later one waits for the
    first tick, which only a result streamed before the shard ends gives."""
    if (scenario.batch, scenario.n) == (1024, 1):
        return {"ticked": True}
    return {"ticked": FIRST_TICK.wait(timeout=10)}


POLICY = RetryPolicy(max_attempts=2, backoff=0.25, seed=3)
POLICY_WIRE = {
    "max_attempts": 2, "backoff": 0.25, "backoff_factor": 2.0,
    "jitter": 0.0, "seed": 3, "timeout": None,
}
#: The policy a keep-going run without ``retry`` runs under.
DEFAULT_WIRE = {
    "max_attempts": 1, "backoff": 0.0, "backoff_factor": 2.0,
    "jitter": 0.0, "seed": 0, "timeout": None,
}

#: (memo bound, retry, on_error, observed) -> the submit frame's
#: execution fields (``run_t0`` is checked against the session).
SUBMIT_TABLE = [
    (None, None, "raise", False,
     {"retry": None, "on_error": "raise", "max_entries": None,
      "observed": False}),
    (None, None, "raise", True,
     {"retry": None, "on_error": "raise", "max_entries": None,
      "observed": True}),
    (None, None, "keep", False,
     {"retry": DEFAULT_WIRE, "on_error": "keep", "max_entries": None,
      "observed": False}),
    (None, None, "keep", True,
     {"retry": DEFAULT_WIRE, "on_error": "keep", "max_entries": None,
      "observed": True}),
    (None, POLICY, "raise", False,
     {"retry": POLICY_WIRE, "on_error": "raise", "max_entries": None,
      "observed": False}),
    (None, POLICY, "raise", True,
     {"retry": POLICY_WIRE, "on_error": "raise", "max_entries": None,
      "observed": True}),
    (None, POLICY, "keep", False,
     {"retry": POLICY_WIRE, "on_error": "keep", "max_entries": None,
      "observed": False}),
    (None, POLICY, "keep", True,
     {"retry": POLICY_WIRE, "on_error": "keep", "max_entries": None,
      "observed": True}),
    (7, None, "raise", False,
     {"retry": None, "on_error": "raise", "max_entries": 7,
      "observed": False}),
    (7, None, "raise", True,
     {"retry": None, "on_error": "raise", "max_entries": 7,
      "observed": True}),
    (7, None, "keep", False,
     {"retry": DEFAULT_WIRE, "on_error": "keep", "max_entries": 7,
      "observed": False}),
    (7, None, "keep", True,
     {"retry": DEFAULT_WIRE, "on_error": "keep", "max_entries": 7,
      "observed": True}),
    (7, POLICY, "raise", False,
     {"retry": POLICY_WIRE, "on_error": "raise", "max_entries": 7,
      "observed": False}),
    (7, POLICY, "raise", True,
     {"retry": POLICY_WIRE, "on_error": "raise", "max_entries": 7,
      "observed": True}),
    (7, POLICY, "keep", False,
     {"retry": POLICY_WIRE, "on_error": "keep", "max_entries": 7,
      "observed": False}),
    (7, POLICY, "keep", True,
     {"retry": POLICY_WIRE, "on_error": "keep", "max_entries": 7,
      "observed": True}),
]


@pytest.fixture
def fleet():
    """Two in-process loopback servers, no store."""
    with StudyServer() as a, StudyServer() as b:
        yield RemoteBackend([f"{a.host}:{a.port}", f"{b.host}:{b.port}"])


class TestConfiguration:
    def test_remote_is_registered(self):
        assert "remote" in available_backends()
        assert isinstance(get_backend("remote"), RemoteBackend)

    @pytest.mark.parametrize("text", ["host", ":80", "host:", "host:abc"])
    def test_bad_endpoint_rejected(self, text):
        with pytest.raises(ValueError, match="host:port"):
            WorkerEndpoint.parse(text)

    def test_endpoint_parse(self):
        ep = WorkerEndpoint.parse(" node7:4242 ")
        assert (ep.host, ep.port) == ("node7", 4242)
        assert WorkerEndpoint.parse(ep) is ep

    def test_endpoints_env_fallback(self, monkeypatch):
        monkeypatch.setenv(ENDPOINTS_ENV, "alpha:1001, beta:1002,")
        eps = RemoteBackend().endpoints()
        assert [str(e) for e in eps] == ["alpha:1001", "beta:1002"]

    def test_missing_endpoints_explains_setup(self, monkeypatch):
        monkeypatch.delenv(ENDPOINTS_ENV, raising=False)
        with pytest.raises(ValueError, match="repro serve"):
            RemoteBackend().endpoints()

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            RemoteBackend(connect_timeout=0)

    def test_split_is_contiguous_and_near_equal(self):
        assert _split(list(range(7)), 3) == [[0, 1, 2], [3, 4], [5, 6]]
        assert _split([4, 9], 5) == [[4], [9]]
        assert _split(list(range(4)), 1) == [[0, 1, 2, 3]]

    def test_local_objective_rejected(self, fleet):
        def closure(scenario):
            return {"m": 1.0}

        with pytest.raises(TypeError, match="module-level"):
            Study(SMALL_GRID).objective(closure).backend(fleet).run()


class TestSubmitFrame:
    @pytest.mark.parametrize(
        "bound, retry, on_error, observed, expected", SUBMIT_TABLE
    )
    def test_execution_fields_on_the_wire(
        self, loopback_server, monkeypatch, bound, retry, on_error,
        observed, expected,
    ):
        from repro.distrib import backend as backend_mod

        real_send = backend_mod.send_frame
        submits = []

        def spy(sock, payload):
            if payload["type"] == "submit":
                submits.append(payload)
            real_send(sock, payload)

        monkeypatch.setattr(backend_mod, "send_frame", spy)
        obs = ObsSession() if observed else None
        (row,) = SweepRunner(
            batch_echo, backend="remote", evaluator_max_entries=bound,
            retry=retry, on_error=on_error, obs=obs,
        ).run(SMALL_GRID.scenarios()[:1])
        assert row.ok and row.values == {"batch": 1024}
        (frame,) = submits
        assert list(frame) == [
            "type", "objective", "retry", "on_error", "max_entries",
            "observed", "run_t0", "scenarios",
        ]
        assert frame["objective"] == {
            "module": "tests.distrib.test_remote", "qualname": "batch_echo",
        }
        assert {key: frame[key] for key in expected} == expected
        if frame["retry"] is not None:
            assert list(frame["retry"]) == list(POLICY_WIRE)
        assert frame["run_t0"] == (obs.run_t0 if observed else 0.0)


class TestEquivalence:
    """Byte-identity against the serial reference, the tentpole claim."""

    def test_resultset_json_byte_identical_to_serial(self, fleet):
        assert len(EQUIVALENCE_GRID) >= 50
        study = Study(EQUIVALENCE_GRID, objective="timeline")
        serial = study.run().to_json()
        remote = study.backend(fleet).run().to_json()
        assert remote == serial

    def test_cache_files_byte_identical_to_serial(self, fleet, tmp_path):
        study = Study(EQUIVALENCE_GRID).objective(pure_makespan)
        study.cache(tmp_path / "serial").run()
        study.backend(fleet).cache(tmp_path / "remote").run()
        serial = {
            p.name: p.read_bytes()
            for p in sorted((tmp_path / "serial").glob("*.json"))
        }
        remote = {
            p.name: p.read_bytes()
            for p in sorted((tmp_path / "remote").glob("*.json"))
        }
        assert len(serial) == len(EQUIVALENCE_GRID)
        assert remote == serial

    def test_empty_grid(self, fleet):
        assert list(fleet.imap(lambda x: x, [])) == []

    def test_each_result_ticks_as_its_frame_arrives(self, loopback_server):
        FIRST_TICK.clear()

        def hook(event, fields):
            if event == "backend.item":
                FIRST_TICK.set()

        bus.subscribe(hook)
        try:
            results = SweepRunner(
                waits_for_the_first_tick, backend="remote"
            ).run(SMALL_GRID)
        finally:
            bus.unsubscribe(hook)
        assert [r["ticked"] for r in results] == [True] * len(SMALL_GRID)


class TestFederatedStore:
    def test_warm_run_answers_from_the_fleet_store(self, tmp_path):
        store = CacheStore(tmp_path / "store")
        with StudyServer(store=store) as server:
            backend = RemoteBackend([f"{server.host}:{server.port}"])
            study = Study(SMALL_GRID, objective="timeline").backend(backend)
            cold = study.run()
            assert cold.cache_stats()["federated"] == 0
            assert len(store) == len(SMALL_GRID)
            warm = study.run()
            assert warm.to_json() == cold.to_json()
            stats = warm.cache_stats()
            assert stats["federated"] == len(SMALL_GRID)
            # The PR 8 accounting invariant survives the new hit class.
            assert (
                stats["reported"] + stats["vectorized"] + stats["uninstrumented"]
                == stats["scenarios"]
            )
            assert backend.store_stats["hits"] == len(SMALL_GRID)

    def test_federated_hits_reach_metrics_and_run_report(self, tmp_path):
        store = CacheStore(tmp_path / "store")
        with StudyServer(store=store) as server:
            backend = RemoteBackend([f"{server.host}:{server.port}"])
            study = (
                Study(SMALL_GRID, objective="timeline")
                .backend(backend)
                .observe(True)
            )
            cold = study.run()
            counters = cold.metrics()["metrics"]["counters"]
            assert "sweep.cache.federated_hits" not in counters
            assert counters["sweep.remote.shards"] >= 1
            assert counters["sweep.store.misses"] == len(SMALL_GRID)
            warm = study.run()
            counters = warm.metrics()["metrics"]["counters"]
            assert counters["sweep.cache.federated_hits"] == len(SMALL_GRID)
            assert counters["sweep.store.hits"] == len(SMALL_GRID)

    def test_local_cache_files_unmarked_by_federation(self, tmp_path):
        """Rows answered federated must write the same local cache bytes
        a serial run writes — the marker never reaches disk."""
        study = Study(SMALL_GRID).objective(pure_makespan)
        study.cache(tmp_path / "serial").run()
        store = CacheStore(tmp_path / "store")
        with StudyServer(store=store) as server:
            backend = RemoteBackend([f"{server.host}:{server.port}"])
            remote = study.backend(backend)
            remote.cache(tmp_path / "cold").run()
            remote.cache(tmp_path / "warm").run()  # all federated hits
        serial = {
            p.name: p.read_bytes()
            for p in sorted((tmp_path / "serial").glob("*.json"))
        }
        for flavor in ("cold", "warm"):
            files = {
                p.name: p.read_bytes()
                for p in sorted((tmp_path / flavor).glob("*.json"))
            }
            assert files == serial, flavor


class TestResilienceOverTheWire:
    def test_retry_policy_round_trips_to_the_server(self, tmp_path):
        """A flaky scenario recovers via the *server-side* retry loop,
        proving the policy rode the submit frame."""
        plan = FaultPlan(
            [Fault(kind="fail", match={"batch": 2048}, attempts_below=2)],
            tmp_path / "faults",
        )
        with StudyServer() as server:
            backend = RemoteBackend([f"{server.host}:{server.port}"])
            with plan.active():
                results = (
                    Study(SMALL_GRID, objective="timeline")
                    .backend(backend)
                    .retry(max_attempts=2, backoff=0.0)
                    .run()
                )
        flaky = [r for r in results if r.scenario.batch == 2048]
        assert flaky and all(r.ok and r.attempts == 2 for r in flaky)
        assert all(
            r.attempts == 1 for r in results if r.scenario.batch == 1024
        )

    def test_kept_failures_stream_back_as_rows(self, tmp_path):
        plan = FaultPlan(
            [Fault(kind="fail", match={"batch": 2048, "n": 1})],
            tmp_path / "faults",
        )
        with StudyServer() as server:
            backend = RemoteBackend([f"{server.host}:{server.port}"])
            with plan.active():
                results = (
                    Study(SMALL_GRID, objective="timeline")
                    .backend(backend)
                    .keep_going()
                    .run()
                )
        failures = results.failures()
        assert len(failures) == 1
        assert failures[0].error["type"] == "ScenarioError"
        assert failures[0].error["cause"] == "FaultInjected"
        assert len(results.ok()) == len(SMALL_GRID) - 1

    def test_objective_exception_raises_scenario_error(self, tmp_path):
        plan = FaultPlan(
            [Fault(kind="fail", match={"batch": 2048, "n": 1})],
            tmp_path / "faults",
        )
        with StudyServer() as server:
            backend = RemoteBackend([f"{server.host}:{server.port}"])
            with plan.active():
                with pytest.raises(ScenarioError, match="remote evaluation"):
                    (
                        Study(SMALL_GRID, objective="timeline")
                        .backend(backend)
                        .retry(max_attempts=1)
                        .run()
                    )

    def test_all_hosts_down_raises_worker_crash(self):
        backend = RemoteBackend(["127.0.0.1:9"], connect_timeout=0.5)
        with pytest.raises(WorkerCrashError) as info:
            Study(SMALL_GRID, objective="timeline").backend(backend).run()
        assert len(info.value.pending) == len(SMALL_GRID)

    def test_all_hosts_down_keep_going_keeps_rows(self):
        backend = RemoteBackend(["127.0.0.1:9"], connect_timeout=0.5)
        results = (
            Study(SMALL_GRID, objective="timeline")
            .backend(backend)
            .keep_going()
            .run()
        )
        assert len(results.failures()) == len(SMALL_GRID)
        assert all(
            r.error["type"] == "WorkerCrashError" for r in results.failures()
        )

    def test_a_lost_fleets_kept_rows_are_pinned(self):
        """The runner settles a lost fleet's points: each kept row carries
        the backend's message, one attempt and no cause."""
        backend = RemoteBackend(["127.0.0.1:9"], connect_timeout=0.5)
        results = (
            Study(SMALL_GRID, objective="timeline")
            .backend(backend)
            .keep_going()
            .run()
        )
        assert len(SMALL_GRID) == 4
        assert [r.error for r in results] == [{
            "attempts": 1,
            "cause": None,
            "message": "all remote workers failed; 4 scenario(s) unfinished",
            "type": "WorkerCrashError",
        }] * 4
        assert [r.attempts for r in results] == [1] * 4

    def test_kept_rows_of_a_lost_fleet_are_observed(self):
        """Each row kept after every host is gone emits scenario.failed,
        as a lost process pool's rows do; the result bytes stay put."""
        failed = []

        def hook(event, fields):
            if event == "scenario.failed":
                failed.append(fields)

        def run(observe):
            backend = RemoteBackend(["127.0.0.1:9"], connect_timeout=0.5)
            study = (
                Study(SMALL_GRID, objective="timeline")
                .backend(backend)
                .keep_going()
            )
            return (study.observe(True) if observe else study).run()

        plain = run(observe=False)
        bus.subscribe(hook)
        try:
            observed = run(observe=True)
        finally:
            bus.unsubscribe(hook)
        assert observed.to_json() == plain.to_json()
        assert len(failed) == len(SMALL_GRID) == len(observed.failures())
        assert [f["label"] for f in failed] == [
            sc.label() for sc in SMALL_GRID
        ]
        assert {(f["error"], f["attempts"]) for f in failed} == {
            ("WorkerCrashError", 1)
        }

    def test_version_skew_fails_loudly_without_resharding(self, monkeypatch):
        from repro.distrib import backend as mod

        monkeypatch.setattr(mod, "STORE_VERSION", 999)
        with StudyServer() as server:
            backend = RemoteBackend([f"{server.host}:{server.port}"])
            with pytest.raises(HandshakeRejected, match="version skew"):
                Study(SMALL_GRID, objective="timeline").backend(backend).run()


def _spawn_server(tag: str, env: dict) -> tuple[subprocess.Popen, str]:
    """Start ``python -m repro serve`` and parse its endpoint line."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--tag", tag],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    line = proc.stdout.readline().strip()
    assert line.startswith("listening on "), line
    return proc, line[len("listening on "):]


class TestDeadHostRecovery:
    def test_survivor_recovers_a_killed_workers_shard(self, tmp_path):
        """Kill one of two real server processes mid-shard; the survivor
        recomputes its scenarios and attempt counts carry the loss."""
        victim = next(iter(SMALL_GRID))
        plan = FaultPlan(
            [Fault(kind="kill", worker="a",
                   match={"batch": victim.batch, "n": victim.n})],
            tmp_path / "faults",
        )
        plan.install()
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc_a = proc_b = None
        try:
            proc_a, ep_a = _spawn_server("a", env)
            proc_b, ep_b = _spawn_server("b", env)
            backend = RemoteBackend([ep_a, ep_b], heartbeat_timeout=30.0)
            study = (
                Study(SMALL_GRID, objective="timeline")
                .backend(backend)
                .retry(max_attempts=2, backoff=0.0)
            )
            results = study.run()
            reference = Study(SMALL_GRID, objective="timeline").run()
            assert results.to_json() == reference.to_json()
            assert all(r.ok for r in results)
            # One server-side attempt (killed before answering, so the
            # survivor's count starts fresh) plus one dispatch failure.
            recovered = results[0]
            assert recovered.scenario == victim
            assert recovered.attempts == 2
            assert all(r.attempts >= 1 for r in results)
            assert proc_a.wait(timeout=10) is not None  # SIGKILL'd itself
            assert proc_b.poll() is None  # the survivor is still serving
        finally:
            plan.uninstall()
            for proc in (proc_a, proc_b):
                if proc is not None and proc.poll() is None:
                    proc.terminate()
                    proc.wait(timeout=10)
