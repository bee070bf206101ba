"""Scenario-cache hygiene: quarantine of corrupt and version-skewed entries.

A cache entry that cannot be decoded — or whose stored scenario payload
no longer round-trips the current :class:`Scenario` dataclass (version
skew: extra field, renamed axis) — must never be served as a hit.  The
runner moves such entries aside as ``<key>.json.corrupt`` (bytes kept
for post-mortem), recomputes, and reports the count through
``cache_stats``.
"""

from __future__ import annotations

import json

from repro.api import Study
from repro.sweep import Scenario, ScenarioGrid, SweepRunner
from repro.sweep.runner import CACHE_STATS_KEY
from repro.testing.faults import FaultPlan
from tests.cache_faults import corrupt_cache_entry, skew_cache_entry

GRID = ScenarioGrid(
    systems=("timeline",), specs=("GPT-S",), world_sizes=(8,),
    batches=(1024, 2048), ns=(2,),
)


# Module-level for process-backend picklability (convention).
def fake_evaluate(scenario: Scenario) -> dict:
    return {"iteration_time": scenario.batch * 1e-6}


def seeded_runner(cache_dir) -> SweepRunner:
    runner = SweepRunner(fake_evaluate, cache_dir=cache_dir, backend="serial")
    runner.run(GRID)
    return runner


def test_undecodable_entry_is_quarantined_and_recomputed(tmp_path):
    runner = seeded_runner(tmp_path)
    victim = runner.cache_path(GRID.scenarios()[0])
    corrupt_cache_entry(victim)
    fresh = SweepRunner(fake_evaluate, cache_dir=tmp_path, backend="serial")
    results = fresh.run(GRID)
    assert fresh.quarantined == 1
    quarantined = victim.with_name(victim.name + ".corrupt")
    assert quarantined.is_file()
    assert quarantined.read_text().startswith('{"values": garbage')
    # Recomputed: a fresh, valid entry stands in the original spot.
    assert json.loads(victim.read_text())["values"] == results[0].values
    assert not results[0].cached and results[1].cached


def test_foreign_shape_entry_is_quarantined(tmp_path):
    runner = seeded_runner(tmp_path)
    victim = runner.cache_path(GRID.scenarios()[0])
    victim.write_text('["not", "a", "cache", "entry"]')
    fresh = SweepRunner(fake_evaluate, cache_dir=tmp_path, backend="serial")
    fresh.run(GRID)
    assert fresh.quarantined == 1
    assert victim.with_name(victim.name + ".corrupt").is_file()


def test_version_skewed_entry_is_a_quarantined_miss(tmp_path):
    """An entry whose scenario payload carries a field no current
    Scenario has (written by a different library version) must not be
    served under a colliding key — it is quarantined and recomputed."""
    runner = seeded_runner(tmp_path)
    victim = runner.cache_path(GRID.scenarios()[0])
    skew_cache_entry(victim)
    assert "retired_axis" in json.loads(victim.read_text())["scenario"]
    fresh = SweepRunner(fake_evaluate, cache_dir=tmp_path, backend="serial")
    results = fresh.run(GRID)
    assert fresh.quarantined == 1
    assert not results[0].cached
    assert json.loads(victim.read_text())["values"] == results[0].values


def test_mismatched_scenario_payload_is_quarantined(tmp_path):
    """A decodable entry recording a *different* scenario under this key
    (hash collision, hand-edited file) is stale by definition."""
    runner = seeded_runner(tmp_path)
    scenarios = GRID.scenarios()
    victim = runner.cache_path(scenarios[0])
    payload = json.loads(victim.read_text())
    payload["scenario"]["batch"] = 999999  # not the scenario this key names
    victim.write_text(json.dumps(payload))
    fresh = SweepRunner(fake_evaluate, cache_dir=tmp_path, backend="serial")
    results = fresh.run(GRID)
    assert fresh.quarantined == 1
    assert not results[0].cached and results[1].cached


def test_quarantine_count_reaches_the_result_stats(tmp_path):
    runner = seeded_runner(tmp_path)
    for sc in GRID.scenarios():
        corrupt_cache_entry(runner.cache_path(sc))
    results = Study(
        GRID, objective=fake_evaluate, cache_dir=tmp_path
    ).run()
    assert results.cache_stats()["quarantined"] == len(GRID)
    per_point = [
        (r.cache_stats or {}).get("quarantined", 0) for r in results
    ]
    assert per_point == [1] * len(GRID)


def test_quarantine_marker_is_not_persisted_into_the_fresh_entry(tmp_path):
    """The ``quarantined`` stat describes *this* run's recovery, not the
    recomputed entry: a later run must load a clean hit."""
    runner = seeded_runner(tmp_path)
    corrupt_cache_entry(runner.cache_path(GRID.scenarios()[0]))
    SweepRunner(fake_evaluate, cache_dir=tmp_path, backend="serial").run(GRID)
    rerun = Study(GRID, objective=fake_evaluate, cache_dir=tmp_path).run()
    assert rerun.cache_stats()["quarantined"] == 0
    assert all(r.cached for r in rerun)


def test_retried_entries_persist_their_attempt_count(tmp_path):
    from repro.sweep import RetryPolicy
    from repro.testing.faults import Fault

    plan = FaultPlan(
        [Fault(kind="fail", match={"batch": 2048}, attempts_below=2)],
        tmp_path / "faults",
    )
    with plan.active():
        first = SweepRunner(
            fake_evaluate, cache_dir=tmp_path / "cache", backend="serial",
            retry=RetryPolicy(max_attempts=2),
        ).run(GRID)
    by_batch = {r.scenario.batch: r for r in first}
    assert by_batch[2048].attempts == 2
    # The attempt count survives the disk cache on the next run...
    second = SweepRunner(
        fake_evaluate, cache_dir=tmp_path / "cache", backend="serial",
        retry=RetryPolicy(max_attempts=2),
    ).run(GRID)
    by_batch = {r.scenario.batch: r for r in second}
    assert by_batch[2048].cached and by_batch[2048].attempts == 2
    # ...while single-attempt entries stay byte-compatible (no field).
    runner = SweepRunner(fake_evaluate, cache_dir=tmp_path / "cache")
    clean = json.loads(
        runner.cache_path(by_batch[1024].scenario).read_text()
    )
    assert "attempts" not in clean


# Module-level and deterministic: the bytes of its entries are pinned.
def stats_evaluate(scenario: Scenario) -> dict:
    return {
        "iteration_time": scenario.batch * 1e-6,
        "n": scenario.n,
        CACHE_STATS_KEY: {"hits": 3, "misses": 1},
    }


PINNED_NAMES = ["ccc9ea1e7827ac02aa88.json", "0802c40934fa0f472c5c.json"]
PINNED_HEALTHY = """\
{
 "evaluator_cache": {
  "hits": 3,
  "misses": 1
 },
 "scenario": {
  "batch": 1024,
  "capacity_factor": null,
  "decomposed_comm": false,
  "dtype": null,
  "imbalance": 1.0,
  "n": 2,
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
  "iteration_time": 0.001024,
  "n": 2
 }
}"""
PINNED_RETRIED = """\
{
 "attempts": 2,
 "evaluator_cache": {
  "hits": 3,
  "misses": 1
 },
 "scenario": {
  "batch": 2048,
  "capacity_factor": null,
  "decomposed_comm": false,
  "dtype": null,
  "imbalance": 1.0,
  "n": 2,
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
  "iteration_time": 0.002048,
  "n": 2
 }
}"""


def test_cache_entry_bytes_are_pinned(tmp_path):
    """The exact file names and bytes a healthy and a retried point
    write: the objective salt, the key and the entry encoding."""
    from repro.testing.faults import Fault

    plan = FaultPlan(
        [Fault(kind="fail", match={"batch": 2048}, attempts_below=2)],
        tmp_path / "faults",
    )
    resilient = SweepRunner(
        stats_evaluate, cache_dir=tmp_path / "retry", backend="serial",
        retry=2,
    )
    with plan.active():
        resilient.run(GRID)
    plain = SweepRunner(
        stats_evaluate, cache_dir=tmp_path / "plain", backend="serial"
    )
    plain.run(GRID)
    healthy, retried = (resilient.cache_path(sc) for sc in GRID)
    assert [healthy.name, retried.name] == PINNED_NAMES
    assert healthy.read_text() == PINNED_HEALTHY
    assert retried.read_text() == PINNED_RETRIED
    assert plain.cache_path(GRID.scenarios()[0]).read_text() == PINNED_HEALTHY
