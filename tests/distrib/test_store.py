"""The federated cache store: keys, validation, LRU bounds, counters."""

from __future__ import annotations

import errno
import json
import os
from pathlib import Path

import pytest

from repro.distrib.backend import RemoteBackend
from repro.distrib.server import StudyServer
from repro.distrib.store import STORE_VERSION, CacheStore, merge_stats
from repro.sweep.grid import Scenario
from repro.sweep.runner import CACHE_STATS_KEY, SweepRunner
from repro.testing.faults import Fault, FaultPlan
from tests.cache_faults import corrupt_cache_entry, skew_cache_entry


def scenario(batch=1024, n=1):
    return Scenario(
        system="timeline", spec="GPT-S", world_size=8, batch=batch, n=n
    )


# Module-level and deterministic: the bytes of its entries are pinned.
def stats_evaluate(scenario: Scenario) -> dict:
    return {
        "makespan": scenario.batch * 1e-6,
        "n": scenario.n,
        CACHE_STATS_KEY: {"hits": 2, "misses": 1},
    }


PINNED_NAMES = ["08941ae29f622c660665.json", "4469cdcaef65eb7c5307.json"]
PINNED_HEALTHY = """\
{
 "evaluator_cache": {
  "hits": 2,
  "misses": 1
 },
 "scenario": {
  "batch": 1024,
  "capacity_factor": null,
  "decomposed_comm": false,
  "dtype": null,
  "imbalance": 1.0,
  "n": 1,
  "num_experts": null,
  "sequential": false,
  "severity": 1.0,
  "spec": "GPT-S",
  "straggler": null,
  "straggler_seed": 0,
  "strategy": null,
  "system": "timeline",
  "top_k": null,
  "world_size": 8
 },
 "values": {
  "makespan": 0.001024,
  "n": 1
 },
 "version": 1
}"""
PINNED_RETRIED = """\
{
 "attempts": 2,
 "evaluator_cache": {
  "hits": 2,
  "misses": 1
 },
 "scenario": {
  "batch": 2048,
  "capacity_factor": null,
  "decomposed_comm": false,
  "dtype": null,
  "imbalance": 1.0,
  "n": 1,
  "num_experts": null,
  "sequential": false,
  "severity": 1.0,
  "spec": "GPT-S",
  "straggler": null,
  "straggler_seed": 0,
  "strategy": null,
  "system": "timeline",
  "top_k": null,
  "world_size": 8
 },
 "values": {
  "makespan": 0.002048,
  "n": 1
 },
 "version": 1
}"""


class TestRoundTrip:
    def test_put_then_get(self, tmp_path):
        store = CacheStore(tmp_path)
        sc = scenario()
        store.put(sc, {"makespan": 1.5}, stats={"hits": 2, "misses": 1})
        entry = store.get(sc)
        assert entry == {
            "values": {"makespan": 1.5},
            "evaluator_cache": {"hits": 2, "misses": 1},
            "attempts": 1,
        }
        assert store.stats()["hits"] == 1
        assert store.stats()["puts"] == 1

    def test_attempts_survive_when_above_one(self, tmp_path):
        store = CacheStore(tmp_path)
        sc = scenario()
        path = store.put(sc, {"makespan": 2.0}, attempts=3)
        assert store.get(sc)["attempts"] == 3
        # attempts == 1 is the default and is not written at all, so
        # first-try entries stay byte-stable across library versions.
        store.put(scenario(batch=2048), {"makespan": 1.0}, attempts=1)
        other = store.path_for(scenario(batch=2048))
        assert "attempts" not in json.loads(other.read_text())
        assert "attempts" in json.loads(path.read_text())

    def test_miss_on_absent_entry(self, tmp_path):
        store = CacheStore(tmp_path)
        assert store.get(scenario()) is None
        assert store.stats()["misses"] == 1

    def test_entries_are_version_stamped(self, tmp_path):
        store = CacheStore(tmp_path)
        path = store.put(scenario(), {"makespan": 1.0})
        assert json.loads(path.read_text())["version"] == STORE_VERSION

    def test_salt_separates_objectives(self, tmp_path):
        store = CacheStore(tmp_path)
        sc = scenario()
        store.put(sc, {"makespan": 1.0}, salt="obj_a")
        assert store.get(sc, salt="obj_b") is None
        assert store.get(sc, salt="obj_a")["values"] == {"makespan": 1.0}


    def test_served_entry_bytes_are_pinned(self, tmp_path):
        """The exact names and bytes a server stores for a healthy and a
        retried point: objective salt, key, version stamp and encoding."""
        store = CacheStore(tmp_path / "store")
        plan = FaultPlan(
            [Fault(kind="fail", match={"batch": 2048}, attempts_below=2)],
            tmp_path / "faults",
        )
        grid = [scenario(batch=1024), scenario(batch=2048)]
        with StudyServer(store=store) as server, plan.active():
            backend = RemoteBackend([f"{server.host}:{server.port}"])
            SweepRunner(stats_evaluate, backend=backend, retry=2).run(grid)
        healthy, retried = (
            store.path_for(sc, "tests.distrib.test_store.stats_evaluate")
            for sc in grid
        )
        assert sorted(p.name for p in store.root.glob("*.json")) == (
            PINNED_NAMES
        )
        assert healthy.read_text() == PINNED_HEALTHY
        assert retried.read_text() == PINNED_RETRIED


class TestValidation:
    def test_version_skew_reads_as_miss_and_is_discarded(self, tmp_path):
        store = CacheStore(tmp_path)
        sc = scenario()
        path = store.put(sc, {"makespan": 1.0})
        payload = json.loads(path.read_text())
        payload["version"] = STORE_VERSION + 1
        path.write_text(json.dumps(payload))
        assert store.get(sc) is None
        assert not path.exists()
        assert store.stats()["skews"] == 1
        assert store.stats()["misses"] == 1

    def test_corrupt_entry_reads_as_miss_and_is_discarded(self, tmp_path):
        store = CacheStore(tmp_path)
        sc = scenario()
        path = store.put(sc, {"makespan": 1.0})
        corrupt_cache_entry(path)
        assert store.get(sc) is None
        assert not path.exists()
        assert store.stats()["skews"] == 1

    def test_scenario_payload_skew_reads_as_miss(self, tmp_path):
        """An entry whose stored scenario no longer round-trips the
        current Scenario dataclass (foreign axis) must never be served."""
        store = CacheStore(tmp_path)
        sc = scenario()
        path = store.put(sc, {"makespan": 1.0})
        skew_cache_entry(path)
        assert store.get(sc) is None
        assert not path.exists()
        assert store.stats()["skews"] == 1

    def test_transient_read_error_is_a_plain_miss(self, tmp_path, monkeypatch):
        """A good entry that cannot be read right now (a busy server out
        of file descriptors) is a miss, never a skew: it stays on disk
        and the next read hits."""
        store = CacheStore(tmp_path)
        sc = scenario()
        path = store.put(sc, {"makespan": 1.0})
        real_read = Path.read_text
        failures = []

        def busy_once(self, *args, **kwargs):
            if self == path and not failures:
                failures.append(self)
                raise OSError(errno.EMFILE, "Too many open files")
            return real_read(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", busy_once)
        assert store.get(sc) is None
        assert failures == [path]
        assert path.exists()
        assert store.stats()["skews"] == 0
        assert store.get(sc)["values"] == {"makespan": 1.0}

    def test_non_object_values_read_as_miss(self, tmp_path):
        store = CacheStore(tmp_path)
        sc = scenario()
        path = store.put(sc, {"makespan": 1.0})
        payload = json.loads(path.read_text())
        payload["values"] = [1, 2, 3]
        path.write_text(json.dumps(payload))
        assert store.get(sc) is None

    @pytest.mark.parametrize("kwargs", [
        {"max_entries": 0}, {"max_entries": -2}, {"max_bytes": 0},
    ])
    def test_bounds_validated(self, tmp_path, kwargs):
        with pytest.raises(ValueError):
            CacheStore(tmp_path, **kwargs)


def _backdate(path, age):
    """Pin an entry's LRU clock `age` seconds into the past (explicit
    utimes: filesystem mtime granularity never decides these tests)."""
    t = os.stat(path).st_mtime - age
    os.utime(path, (t, t))


class TestLRUBounds:
    def test_max_entries_evicts_least_recently_used(self, tmp_path):
        store = CacheStore(tmp_path, max_entries=2)
        old = store.put(scenario(batch=1024), {"m": 1.0})
        young = store.put(scenario(batch=2048), {"m": 2.0})
        _backdate(old, 100)
        _backdate(young, 50)
        fresh = store.put(scenario(batch=4096), {"m": 3.0})
        assert not old.exists()
        assert young.exists() and fresh.exists()
        assert store.stats()["evictions"] == 1
        assert len(store) == 2

    def test_hit_refreshes_the_lru_clock(self, tmp_path):
        store = CacheStore(tmp_path, max_entries=2)
        a = store.put(scenario(batch=1024), {"m": 1.0})
        b = store.put(scenario(batch=2048), {"m": 2.0})
        _backdate(a, 100)
        _backdate(b, 50)
        store.get(scenario(batch=1024))  # a is now the hottest entry
        store.put(scenario(batch=4096), {"m": 3.0})
        assert a.exists()
        assert not b.exists()

    def test_max_bytes_bound(self, tmp_path):
        store = CacheStore(tmp_path)
        probe = store.put(scenario(batch=1024), {"m": 1.0})
        entry_size = probe.stat().st_size
        store = CacheStore(tmp_path, max_bytes=int(entry_size * 2.5))
        _backdate(probe, 100)
        store.put(scenario(batch=2048), {"m": 2.0})
        assert len(store) == 2  # two entries fit under 2.5x
        store.put(scenario(batch=4096), {"m": 3.0})
        assert len(store) == 2  # the third evicted the oldest
        assert not probe.exists()

    def test_fresh_entry_never_evicted(self, tmp_path):
        store = CacheStore(tmp_path, max_entries=1)
        a = store.put(scenario(batch=1024), {"m": 1.0})
        _backdate(a, 100)
        fresh = store.put(scenario(batch=2048), {"m": 2.0})
        assert fresh.exists()
        assert not a.exists()

    def test_unbounded_store_never_evicts(self, tmp_path):
        store = CacheStore(tmp_path)
        for batch in (1024, 2048, 4096, 8192):
            store.put(scenario(batch=batch), {"m": float(batch)})
        assert len(store) == 4
        assert store.stats()["evictions"] == 0


class TestMergeStats:
    def test_sums_counter_keys(self):
        acc = {}
        merge_stats(acc, {"hits": 2, "misses": 1, "entries": 9})
        merge_stats(acc, {"hits": 3, "puts": 4})
        assert acc == {
            "hits": 5, "misses": 1, "puts": 4, "evictions": 0, "skews": 0,
        }
        assert "entries" not in acc  # a gauge, never summed

    def test_none_and_empty_are_no_ops(self):
        acc = {"hits": 1}
        assert merge_stats(acc, None) == {"hits": 1}
        assert merge_stats(acc, {}) == {"hits": 1}
