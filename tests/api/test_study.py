"""The Study builder and ResultSet accessors."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    ResultSet,
    Scenario,
    ScenarioGrid,
    Study,
    StudyResult,
    pareto_front,
)
from repro.sweep.runner import SweepResult


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

    def test_column(self, results):
        assert results.column("batch") == [sc.batch for sc in GRID]

    def test_to_json_is_deterministic_and_parseable(self, results):
        payload = json.loads(results.to_json())
        assert len(payload) == len(GRID)
        assert payload[0]["scenario"]["system"] == "timeline"
        assert "cache_stats" not in payload[0]
        with_stats = json.loads(
            results.to_json(include_cache_stats=True)
        )
        assert "cache_stats" in with_stats[0]

    def test_save_json(self, results, tmp_path):
        path = tmp_path / "out.json"
        results.save_json(path)
        assert json.loads(path.read_text()) == json.loads(results.to_json())

    def test_cache_stats_aggregate(self):
        results = Study(GRID, objective="timeline").run()
        stats = results.cache_stats()
        assert stats["scenarios"] == len(GRID)
        assert stats["reported"] == len(GRID)
        # The process-wide shared context may already be warm from other
        # tests: the memo was touched either way.
        assert stats["evaluator_hits"] + stats["evaluator_misses"] > 0

    def test_wraps_plain_sweep_results(self):
        raw = SweepResult(scenario=Scenario(), values={"iteration_time": 1.0})
        wrapped = ResultSet([raw])[0]
        assert isinstance(wrapped, StudyResult)
        assert wrapped.label == raw.scenario.label()
