"""The ``placement`` sweep axis: grid expansion, keys, caching, lowering.

The compatibility contract the serialization tests pin: a scenario with
``placement=None`` produces exactly the pre-placement payload (no
``placement`` key), so every digest, on-disk cache entry, and result
row minted before this axis existed keeps verifying.
"""

import json
import sys

import pytest

from repro.api.result import ResultSet
from repro.perfmodel.placeopt import optimize_placement
from repro.sweep import (
    Scenario,
    ScenarioGrid,
    SweepResult,
    SweepRunner,
    evaluate_eq10,
    evaluate_system,
    evaluate_timeline,
    scenario_workload,
)
from repro.sweep import runner as runner_mod
from repro.sweep.grid import scenario_payload
from tests.conftest import on_thread_pool

BASE = dict(system="timeline", spec="GPT-S", world_size=8, batch=1024,
            n=1, strategy="S1")


class TestScenarioPlacementField:
    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError, match="unknown placement"):
            Scenario(**BASE, placement="spiral")
        with pytest.raises(ValueError, match="unknown placement"):
            # 'explicit' needs an assignment tuple: API-only, not an axis.
            Scenario(**BASE, placement="explicit")

    def test_shadowed_needs_a_second_rank(self):
        with pytest.raises(ValueError, match="world_size >= 2"):
            Scenario(system="timeline", spec="GPT-S", world_size=1,
                     batch=1024, n=1, strategy="none", placement="shadowed")

    def test_label_carries_the_placement(self):
        assert "pl=round_robin" in Scenario(
            **BASE, placement="round_robin"
        ).label()
        assert "pl=" not in Scenario(**BASE).label()

    def test_payload_omits_none_and_round_trips(self):
        free = Scenario(**BASE)
        assert "placement" not in scenario_payload(free)
        assert Scenario(**scenario_payload(free)) == free
        placed = Scenario(**BASE, placement="optimized")
        payload = scenario_payload(placed)
        assert payload["placement"] == "optimized"
        assert Scenario(**payload) == placed

    def test_keys_distinguish_placements(self):
        keys = {
            Scenario(**BASE, placement=p).key()
            for p in (None, "contiguous", "round_robin", "shadowed",
                      "optimized")
        }
        assert len(keys) == 5

    def test_result_json_omits_the_field_for_placement_free_rows(self):
        rows = json.loads(
            ResultSet(
                [SweepResult(Scenario(**BASE), {"makespan": 1.0})]
            ).to_json()
        )
        assert "placement" not in rows[0]["scenario"]
        placed_rows = json.loads(
            ResultSet([
                SweepResult(
                    Scenario(**BASE, placement="round_robin"),
                    {"makespan": 1.0},
                )
            ]).to_json()
        )
        assert placed_rows[0]["scenario"]["placement"] == "round_robin"


class TestGridAxis:
    def test_placements_axis_expands(self):
        grid = ScenarioGrid(
            systems=("timeline",), specs=("GPT-S",), world_sizes=(8,),
            batches=(1024,), ns=(1,), strategies=("S1",),
            placements=(None, "round_robin", "shadowed"),
        )
        scenarios = list(grid)
        assert len(scenarios) == 3
        assert {s.placement for s in scenarios} == \
            {None, "round_robin", "shadowed"}

    def test_default_grid_has_no_placement(self):
        grid = ScenarioGrid(
            systems=("timeline",), specs=("GPT-S",), world_sizes=(8,),
            batches=(1024,), ns=(1,), strategies=("S1",),
        )
        assert all(s.placement is None for s in grid)


class TestRunnerIntegration:
    def _grid(self, placements):
        return ScenarioGrid(
            systems=("timeline",), specs=("GPT-S",), world_sizes=(8,),
            batches=(1024,), ns=(1, 2), strategies=("S1",),
            imbalances=(4.0,), placements=placements,
        )

    def test_cache_files_round_trip_placed_scenarios(self, tmp_path):
        grid = self._grid((None, "round_robin"))
        runner = SweepRunner(
            evaluate_timeline, cache_dir=tmp_path, backend="serial"
        )
        first = runner.run(grid)
        second = SweepRunner(
            evaluate_timeline, cache_dir=tmp_path, backend="serial"
        ).run(grid)
        assert [r.values for r in first] == [r.values for r in second]
        assert all(not r.cached for r in first)
        assert all(r.cached for r in second)

    def test_cached_payloads_stay_free_of_none_placement(self, tmp_path):
        grid = self._grid((None,))
        SweepRunner(
            evaluate_timeline, cache_dir=tmp_path, backend="serial"
        ).run(grid)
        payloads = [
            json.loads(p.read_text())["scenario"]
            for p in tmp_path.rglob("*.json")
        ]
        assert payloads and all("placement" not in s for s in payloads)

    def test_optimized_beats_contiguous_under_a_straggler(self):
        base = dict(system="timeline", spec="GPT-S", world_size=8,
                    batch=2048, n=2, strategy="S1", imbalance=4.0,
                    straggler="single-slow-gpu", severity=0.5)
        contiguous = evaluate_timeline(
            Scenario(**base, placement="contiguous")
        )
        optimized = evaluate_timeline(
            Scenario(**base, placement="optimized")
        )
        assert optimized["makespan"] < contiguous["makespan"]


OPTIMIZED = dict(spec="GPT-S", world_size=8, batch=2048, imbalance=4.0,
                 straggler="single-slow-gpu", severity=0.5,
                 placement="optimized")


@pytest.fixture
def optimizer_calls(monkeypatch):
    """A fresh context pool, and every problem the runner optimizes."""
    monkeypatch.setattr(runner_mod, "_CONTEXTS", {})
    calls = []

    def recording(problem):
        calls.append(problem)
        return optimize_placement(problem)

    monkeypatch.setattr(runner_mod, "optimize_placement", recording)
    return calls


class TestOptimizedLoweringMemo:
    def test_systems_on_one_point_optimize_once(self, optimizer_calls):
        for system in ("pipemoe", "mpipemoe"):
            evaluate_system(Scenario(system=system, **OPTIMIZED))
        assert len(optimizer_calls) == 1

    def test_distinct_problems_keep_their_own_assignments(
        self, optimizer_calls
    ):
        variants = ({}, {"severity": 1.0}, {"batch": 4096},
                    {"imbalance": 2.0}, {"straggler": "degraded-link"})
        scenarios = [
            Scenario(system="pipemoe", **{**OPTIMIZED, **v}) for v in variants
        ]
        lowered = [scenario_workload(s).placement for s in scenarios]
        assert len(optimizer_calls) == len(variants)
        assert lowered == [optimize_placement(p) for p in optimizer_calls]
        # Served from the memo, every variant gets its own entry back.
        assert [scenario_workload(s).placement for s in scenarios] == lowered
        assert len(optimizer_calls) == len(variants)
        # A compute straggler moves the cold experts onto the slow rank;
        # a healthy or link-degraded cluster keeps the contiguous map.
        contiguous = tuple(r for r in range(8) for _ in range(8))
        assert lowered[1].assignment == lowered[4].assignment == contiguous
        assert lowered[0].assignment != contiguous

    def test_thread_pool_shares_the_memo(self, optimizer_calls):
        grid = ScenarioGrid(
            systems=("pipemoe", "mpipemoe"), specs=("GPT-S",),
            world_sizes=(8,), batches=(1024, 2048), imbalances=(2.0, 4.0),
            stragglers=("single-slow-gpu",), severities=(0.5,),
            placements=("optimized",),
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = on_thread_pool(evaluate_system, grid, workers=8)
        finally:
            sys.setswitchinterval(interval)
        # Racing threads may optimize one problem twice, never mix two.
        assert len(set(optimizer_calls)) == 4
        (ctx,) = runner_mod._CONTEXTS.values()
        assert ctx.placements == {p: optimize_placement(p)
                                  for p in optimizer_calls}
        runner_mod._CONTEXTS.clear()
        serial = SweepRunner(evaluate_system, backend="serial").run(grid)
        assert [r.values for r in threaded] == [r.values for r in serial]

    def test_server_pool_shares_the_memo(
        self, optimizer_calls, loopback_server
    ):
        """A ``repro serve`` worker prices its shard on a thread pool
        in this process: the placement memo is shared there too."""
        grid = ScenarioGrid(
            systems=("pipemoe", "mpipemoe"), specs=("GPT-S",),
            world_sizes=(8,), batches=(1024, 2048), imbalances=(2.0, 4.0),
            stragglers=("single-slow-gpu",), severities=(0.5,),
            placements=("optimized",),
        )
        served = SweepRunner(evaluate_system, backend="remote").run(grid)
        assert len(set(optimizer_calls)) == 4
        (ctx,) = runner_mod._CONTEXTS.values()
        assert ctx.placements == {p: optimize_placement(p)
                                  for p in optimizer_calls}
        runner_mod._CONTEXTS.clear()
        serial = SweepRunner(evaluate_system, backend="serial").run(grid)
        assert [r.values for r in served] == [r.values for r in serial]

    def test_clearing_the_context_pool_recomputes(self, optimizer_calls):
        scenario = Scenario(system="pipemoe", **OPTIMIZED)
        first = scenario_workload(scenario).placement
        scenario_workload(scenario)
        assert len(optimizer_calls) == 1
        runner_mod._CONTEXTS.clear()
        assert scenario_workload(scenario).placement == first
        assert len(optimizer_calls) == 2

    @pytest.mark.parametrize("evaluate, axes", [
        (evaluate_system, dict(system="mpipemoe")),
        (evaluate_timeline, dict(system="timeline", n=2, strategy="S1")),
        (evaluate_eq10, dict(system="mpipemoe", n=2)),
    ])
    def test_lowering_runs_outside_the_context_lock(
        self, monkeypatch, optimizer_calls, evaluate, axes
    ):
        scenario = Scenario(**axes, **OPTIMIZED)
        ctx = runner_mod.shared_context(
            scenario.world_size, runner_mod.scenario_hetero(scenario)
        )
        held = []

        def probing(problem):
            held.append(ctx.sweep_lock.locked())
            return optimize_placement(problem)

        monkeypatch.setattr(runner_mod, "optimize_placement", probing)
        evaluate(scenario)
        assert held == [False]
