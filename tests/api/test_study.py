"""The Study builder and ResultSet accessors."""

from __future__ import annotations

import inspect
import json
from pathlib import Path

import pytest

from repro.api import (
    ResultSet,
    RetryPolicy,
    Scenario,
    ScenarioGrid,
    Study,
    StudyResult,
    pareto_front,
)
from repro.api.study import RUN_OPTIONS
from repro.perfmodel.evalcache import Evaluator
from repro.sweep.runner import SweepResult, SweepRunner
from repro.systems.base import SystemContext


# Module-level so process-backend workers can pickle it.
def fake_objective(scenario: Scenario) -> dict:
    return {
        "iteration_time": scenario.batch * 1e-6 * (scenario.n or 1),
        "peak_memory_bytes": scenario.batch * 100,
    }


GRID = ScenarioGrid(
    systems=("timeline",), specs=("GPT-S",), world_sizes=(8,),
    batches=(1024, 2048), ns=(1, 2),
)


def failing_at_2048(scenario: Scenario) -> dict:
    if scenario.batch == 2048:
        raise RuntimeError("injected failure")
    return fake_objective(scenario)


#: Per run option: a fluent change away from the default, the value
#: ``describe()`` writes for it, and the value the study's runner holds.
FLUENT_CHANGES = {
    "backend": (lambda s: s.backend("process"), "process", "process"),
    "workers": (lambda s: s.workers(3), 3, 3),
    "cache_dir": (
        lambda s: s.cache(Path("elsewhere")), "elsewhere", Path("elsewhere")
    ),
    "vectorize": (lambda s: s.vectorize(), True, True),
    "retry": (
        lambda s: s.retry(max_attempts=3, backoff=0.5),
        RetryPolicy(max_attempts=3, backoff=0.5).to_dict(),
        RetryPolicy(max_attempts=3, backoff=0.5),
    ),
    "on_error": (lambda s: s.keep_going(), "keep", "keep"),
    "resume": (lambda s: s.resume(), True, True),
}


#: Values the run-option check refuses, by option; each is a truthy or
#: falsy stand-in for a real setting, a path of the wrong type, or a
#: worker count that compares like an int but is none.
BAD_RUN_OPTIONS = [
    ("vectorize", "false"),
    ("vectorize", "no"),
    ("vectorize", 1),
    ("resume", "false"),
    ("resume", None),
    ("resume", 0),
    ("cache_dir", 123),
    ("cache_dir", b"cache"),
    ("workers", "2"),
    ("workers", 2.5),
    ("workers", True),
]

#: The fluent method of each option in BAD_RUN_OPTIONS.
FLUENT_SETTERS = {
    "vectorize": Study.vectorize,
    "resume": Study.resume,
    "cache_dir": Study.cache,
    "workers": Study.workers,
}


class TestStudyBuilder:
    def test_fluent_calls_return_new_studies(self):
        base = Study(GRID)
        pooled = base.backend("process").workers(4)
        assert pooled is not base
        assert base.describe()["backend"] == "serial"
        assert base.describe()["workers"] == 1
        assert pooled.describe()["backend"] == "process"
        assert pooled.describe()["workers"] == 4

    def test_eager_validation(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Study(GRID, backend="fiber")
        with pytest.raises(ValueError, match="unknown backend"):
            Study(GRID).backend("fiber")
        with pytest.raises(ValueError, match="objective"):
            Study(GRID, objective="vibes")
        with pytest.raises(ValueError, match="workers"):
            Study(GRID).workers(0)
        with pytest.raises(TypeError, match="unknown run option 'bakend'"):
            Study(GRID, bakend="serial")

    def test_run_options_are_the_runners_keywords(self):
        keywords = set(inspect.signature(SweepRunner).parameters)
        assert set(RUN_OPTIONS) == keywords - {"evaluate", "obs"}

    @pytest.mark.parametrize("name", RUN_OPTIONS)
    def test_each_run_option_reaches_describe_from_spec_and_runner(
        self, name, tmp_path
    ):
        change, described, held = FLUENT_CHANGES[name]
        # The base has a cache directory so that resume() can build a runner.
        base = Study(GRID, objective="timeline").cache(tmp_path)
        spec = change(base).describe()
        assert spec == {**base.describe(), name: described}
        assert described != base.describe()[name]
        rebuilt = Study.from_spec(spec)
        assert rebuilt.describe() == spec
        assert getattr(rebuilt.runner(), name) == held

    @pytest.mark.parametrize("name, value", BAD_RUN_OPTIONS)
    def test_a_bad_run_option_fails_when_the_study_or_runner_is_built(
        self, name, value, tmp_path
    ):
        """Only None/True/False vectorize, True/False resume, a None,
        str or os.PathLike cache_dir and an int workers get past the
        build: a truthy string such as "false" must not resume or force
        the whole-grid pass, and 2.5 workers must not run on 2."""
        with pytest.raises(TypeError, match=name):
            SweepRunner(fake_objective, **{"cache_dir": tmp_path, name: value})
        with pytest.raises(TypeError, match=name):
            Study(GRID, **{name: value})
        with pytest.raises(TypeError, match=name):
            FLUENT_SETTERS[name](Study(GRID), value)
        with pytest.raises(TypeError, match=name):
            Study.from_spec({"scenarios": [{"system": "timeline"}], name: value})

    @pytest.mark.parametrize("value", [0, -3])
    def test_workers_below_one_fail_when_the_study_or_runner_is_built(
        self, value
    ):
        """An int is the right type, so a count below one is a
        ValueError on every path, not a TypeError."""
        with pytest.raises(ValueError, match="workers must be >= 1"):
            SweepRunner(fake_objective, workers=value)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            Study(GRID, workers=value)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            Study(GRID).workers(value)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            Study.from_spec(
                {"scenarios": [{"system": "timeline"}], "workers": value}
            )

    @pytest.mark.parametrize("build", [
        lambda: Study(GRID, evaluator_max_entries=8),
        lambda: SweepRunner(fake_objective, evaluator_max_entries=8),
        lambda: SystemContext(world_size=8, evaluator_max_entries=8),
        lambda: Evaluator(SystemContext(world_size=8), max_entries=8),
    ], ids=["Study", "SweepRunner", "SystemContext", "Evaluator"])
    def test_a_memo_bound_keyword_fails_at_build_time(self, build):
        """The evaluator memo has no bound: code that still passes one
        fails where it builds, rather than running unbounded unawares."""
        with pytest.raises(TypeError, match="max_entries"):
            build()

    def test_grid_accepts_grids_lists_and_scenarios(self):
        single = Scenario(system="timeline", spec="GPT-S", world_size=8,
                          batch=4096, n=1)
        study = Study(GRID).grid([single], GRID)
        assert len(study) == 2 * len(GRID) + 1
        assert study.scenarios()[len(GRID)] == single

    def test_cluster_overlay_applies_at_run_time(self):
        study = Study(GRID).cluster("random-jitter", severity=0.5, seed=3)
        scenarios = study.scenarios()
        assert all(sc.straggler == "random-jitter" for sc in scenarios)
        assert all(sc.severity == 0.5 for sc in scenarios)
        assert all(sc.straggler_seed == 3 for sc in scenarios)
        # The original axes survive underneath the overlay.
        assert sorted({sc.batch for sc in scenarios}) == [1024, 2048]
        # And the base study is untouched.
        assert all(sc.straggler is None for sc in Study(GRID).scenarios())

    def test_cluster_requires_an_explicit_severity(self):
        """cluster("slow-node") must not silently evaluate the healthy
        cluster while labeling (and caching) the results as skewed."""
        with pytest.raises(ValueError, match="explicit severity"):
            Study(GRID).cluster("slow-node")
        with pytest.raises(ValueError, match="no effect"):
            Study(GRID).cluster(None, severity=0.5)
        # Explicit severity=1.0 (the healthy baseline) stays allowed.
        healthy = Study(GRID).cluster("slow-node", severity=1.0)
        assert all(sc.straggler == "slow-node" for sc in healthy.scenarios())
        # And cluster(None) restores the homogeneous cluster.
        plain = healthy.cluster(None)
        assert all(sc.straggler is None for sc in plain.scenarios())

    def test_from_spec_cluster_requires_severity_too(self):
        with pytest.raises(ValueError, match="explicit severity"):
            Study.from_spec(
                {"scenarios": [], "cluster": {"straggler": "slow-node"}}
            )

    def test_where_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario field"):
            Study(GRID).where(granularity=4)

    def test_where_rejects_values_that_are_not_json_scalars(self):
        """A numpy overlay value used to run, then fail at to_json() with
        "Object of type int64 is not JSON serializable"."""
        import numpy as np

        with pytest.raises(ValueError, match="'batch'.*numpy.int64"):
            Study(GRID, objective="timeline").where(batch=np.int64(4096))
        with pytest.raises(ValueError, match="'severity'.*numpy.float32"):
            Study(GRID).cluster("single-slow-gpu", severity=np.float32(0.5))
        study = Study(GRID, objective="timeline").where(batch=4096, dtype=None)
        rows = json.loads(study.run().to_json())
        assert {row["scenario"]["batch"] for row in rows} == {4096}

    def test_describe_from_spec_round_trip(self):
        study = (
            Study(GRID, objective="timeline")
            .backend("process")
            .workers(2)
            .cluster("slow-node", severity=0.7)
        )
        rebuilt = Study.from_spec(
            {
                "scenarios": study.describe()["scenarios"],
                "objective": "timeline",
                "backend": "process",
                "workers": 2,
            }
        )
        assert rebuilt.scenarios() == study.scenarios()
        assert rebuilt.describe() == study.describe()
        assert list(study.describe()) == [
            "scenarios", "objective", "backend", "workers", "cache_dir",
            "vectorize", "retry", "on_error", "resume", "observe",
        ]

    def test_routing_axes_round_trip_and_overlay(self):
        study = Study(GRID, objective="timeline").where(
            top_k=2, dtype="bf16", imbalance=4.0
        )
        scenarios = study.scenarios()
        assert all(
            (sc.top_k, sc.dtype, sc.imbalance) == (2, "bf16", 4.0)
            for sc in scenarios
        )
        rebuilt = Study.from_spec({
            "scenarios": study.describe()["scenarios"],
            "objective": "timeline",
        })
        assert rebuilt.scenarios() == scenarios

    def test_from_spec_builds_grids(self):
        study = Study.from_spec(
            {
                "grids": [
                    {"systems": ["timeline"], "specs": ["GPT-S"],
                     "world_sizes": [8], "batches": [1024, 2048], "ns": [2]},
                ],
                "objective": "timeline",
            }
        )
        assert len(study) == 2

    def test_from_spec_rejects_unknown_keys_and_axes(self):
        with pytest.raises(ValueError, match="unknown study spec key"):
            Study.from_spec({"grdis": []})
        with pytest.raises(ValueError, match="'evaluator_max_entries'"):
            Study.from_spec({"scenarios": [], "evaluator_max_entries": 8})
        with pytest.raises(ValueError, match="did you mean 'batches'"):
            Study.from_spec({"grids": [{"batch_sizes": [1024]}]})

    def test_run_returns_resultset_in_scenario_order(self):
        results = Study(GRID).objective(fake_objective).run()
        assert isinstance(results, ResultSet)
        assert results.scenarios() == GRID.scenarios()
        assert [r.values for r in results] == [
            fake_objective(sc) for sc in GRID
        ]

    def test_run_with_cache_dir_hits_second_time(self, tmp_path):
        study = Study(GRID).objective(fake_objective).cache(tmp_path / "c")
        first = study.run()
        second = study.run()
        assert not any(r.cached for r in first)
        assert all(r.cached for r in second)
        # The deterministic JSON view is identical either way.
        assert first.to_json() == second.to_json()


class TestResultSet:
    @pytest.fixture()
    def results(self) -> ResultSet:
        return Study(GRID).objective(fake_objective).run()

    def test_sequence_protocol_and_slicing(self, results):
        assert len(results) == len(GRID)
        assert isinstance(results[0], StudyResult)
        head = results[:2]
        assert isinstance(head, ResultSet)
        assert list(head) == list(results)[:2]
        assert results == Study(GRID).objective(fake_objective).run()

    def test_label_and_get(self, results):
        first = results[0]
        assert first.label == first.scenario.label()
        assert first.get("batch") == first.scenario.batch
        assert first.get("iteration_time") == first["iteration_time"]

    def test_table_default_columns(self, results):
        text = results.table(title="t").render()
        assert "label" in text
        assert "iteration_time" in text
        assert "timeline/GPT-S" in text

    def test_group_by_returns_resultsets(self, results):
        groups = results.group_by("batch")
        assert set(groups) == {1024, 2048}
        assert all(isinstance(g, ResultSet) for g in groups.values())
        assert all(len(g) == 2 for g in groups.values())

    def test_pareto_matches_module_level_front(self, results):
        assert list(results.pareto()) == pareto_front(list(results))

    def test_best(self, results):
        assert results.best("iteration_time") is results[0]
        with pytest.raises(ValueError, match="empty"):
            ResultSet().best()

    def test_to_json_is_deterministic_and_parseable(self, results):
        payload = json.loads(results.to_json())
        assert len(payload) == len(GRID)
        assert payload[0]["scenario"]["system"] == "timeline"
        assert "cache_stats" not in payload[0]
        with_stats = json.loads(
            results.to_json(include_cache_stats=True)
        )
        assert "cache_stats" in with_stats[0]

    def test_cache_stats_aggregate(self):
        results = Study(GRID, objective="timeline").run()
        stats = results.cache_stats()
        assert stats["scenarios"] == len(GRID)
        assert stats["reported"] == len(GRID)
        # The process-wide shared context may already be warm from other
        # tests: the memo was touched either way.
        assert stats["evaluator_hits"] + stats["evaluator_misses"] > 0

    def test_holds_the_runners_rows(self):
        rows = SweepRunner(fake_objective, backend="serial").run(GRID + GRID)
        results = ResultSet(rows)
        assert all(kept is row for kept, row in zip(results, rows))
        # A repeated point is one row, returned at each of its positions.
        assert all(
            results[i] is results[i + len(GRID)] for i in range(len(GRID))
        )

    def test_accessors_on_a_keep_going_set_with_a_failed_row(self):
        grid = ScenarioGrid(
            systems=("timeline",), specs=("GPT-S",), world_sizes=(8,),
            batches=(1024, 2048, 4096), ns=(1,),
        )
        results = Study(grid).objective(failing_at_2048).keep_going().run()
        first, failed, last = results
        assert not failed.ok and first.ok and last.ok
        # Ranking skips the failed row ...
        assert results.best() is first
        assert list(results.pareto()) == [first]
        # ... and value columns read None on it.
        assert [r.get("iteration_time") for r in results] == [
            first["iteration_time"], None, last["iteration_time"],
        ]
        assert list(results.group_by("iteration_time")[None]) == [failed]
        text = results.table().render()
        assert "peak_memory_bytes" in text  # columns from the first ok row
        # With no ok row left there is nothing to rank.
        with pytest.raises(ValueError, match="no ok result"):
            results.failures().best()

    def test_wraps_plain_sweep_results(self):
        raw = SweepResult(scenario=Scenario(), values={"iteration_time": 1.0})
        wrapped = ResultSet([raw])[0]
        assert isinstance(wrapped, StudyResult)
        assert wrapped.label == raw.scenario.label()
