"""Sweep subsystem: grids, runner caching/parallelism, analysis."""

import json
import os

import pytest

from repro.api import Study
from repro.sweep import (
    Scenario,
    ScenarioGrid,
    SweepResult,
    SweepRunner,
    evaluate_timeline,
    group_by,
    pareto_front,
    sweep_table,
)
from tests.conftest import on_thread_pool

# Module-level so worker processes can unpickle it by qualified name.
def fake_evaluate(scenario: Scenario) -> dict:
    values = {
        "iteration_time": scenario.batch * 1e-6 * (scenario.n or 1),
        "peak_memory_bytes": scenario.batch * 100,
        "world_size": scenario.world_size,
    }
    counter = os.environ.get("SWEEP_TEST_COUNTER")
    if counter:
        with open(counter, "a") as fh:
            fh.write(scenario.key() + "\n")
    return values


def result_at(time, mem, **scenario_kwargs) -> SweepResult:
    return SweepResult(
        scenario=Scenario(**scenario_kwargs),
        values={"iteration_time": time, "peak_memory_bytes": mem},
    )


SMALL_GRID = ScenarioGrid(
    systems=("timeline",), specs=("GPT-S",), world_sizes=(8,),
    batches=(1024, 2048), ns=(1, 2),
)


class TestScenario:
    def test_key_is_stable_and_distinct(self):
        a = Scenario(system="pipemoe", batch=4096)
        b = Scenario(system="pipemoe", batch=4096)
        c = Scenario(system="pipemoe", batch=8192)
        assert a.key() == b.key()
        assert a.key() != c.key()
        assert a.key(salt="other-evaluator") != a.key()

    def test_label_mentions_the_set_knobs(self):
        label = Scenario(system="mpipemoe", n=4, strategy="S2").label()
        assert "mpipemoe" in label and "n=4" in label and "S2" in label

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"system": "nope"},
            {"spec": "GPT-M"},
            {"world_size": 0},
            {"batch": 0},
            {"n": 0},
            {"strategy": "S9"},
            {"straggler": "meteor-strike"},
            {"severity": 0.0},
            {"severity": 1.5},
            {"straggler_seed": -1},
            # Silently-ignored knobs must fail loudly: severity without a
            # straggler victim, seeds on non-jitter kinds.
            {"severity": 0.5},
            {"straggler": "uniform", "severity": 0.5},
            {"straggler_seed": 3},
            {"straggler": "single-slow-gpu", "straggler_seed": 3},
            {"num_experts": 0},
            {"capacity_factor": 0.0},
            {"top_k": 0},
            # Over-wide fan-out fails eagerly, against the preset's E or
            # the num_experts override — not deep inside a sweep worker.
            {"top_k": 128},
            {"num_experts": 4, "top_k": 8},
            {"dtype": "fp12"},
            {"imbalance": 0.5},
            {"imbalance": float("nan")},
            {"imbalance": float("inf")},
            # Non-finite capacity factors would fail mid-run in math.ceil.
            {"capacity_factor": float("nan")},
            {"capacity_factor": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            Scenario(**kwargs)

    def test_routing_axes_extend_the_key_and_label(self):
        plain = Scenario(system="mpipemoe", batch=4096)
        for kwargs in ({"top_k": 2}, {"dtype": "fp32"}, {"imbalance": 4.0}):
            routed = Scenario(system="mpipemoe", batch=4096, **kwargs)
            assert routed.key() != plain.key(), kwargs
        label = Scenario(
            system="mpipemoe", top_k=2, dtype="bf16", imbalance=4.0
        ).label()
        assert "k=2" in label and "bf16" in label and "skew=4x" in label
        # Default routing does not clutter homogeneous labels.
        assert "k=" not in plain.label() and "skew" not in plain.label()

    def test_hetero_axes_extend_the_key_and_label(self):
        plain = Scenario(system="mpipemoe", batch=4096)
        skewed = Scenario(
            system="mpipemoe", batch=4096,
            straggler="single-slow-gpu", severity=0.5,
        )
        assert plain.key() != skewed.key()
        label = Scenario(
            system="mpipemoe", straggler="degraded-link", severity=0.5,
            num_experts=128, capacity_factor=1.25,
        ).label()
        assert "degraded-link@0.5x" in label
        assert "E=128" in label and "f=1.25" in label
        # Severity axes do not leak into homogeneous labels.
        assert "@" not in plain.label()


class TestScenarioGrid:
    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_non_finite_capacity_factor_fails_at_build(self, factor):
        """Rejected when the study is built, not inside a running sweep."""
        grid = ScenarioGrid(systems=("mpipemoe",), capacity_factors=(factor,))
        with pytest.raises(ValueError, match="capacity_factor"):
            Study(grid)

    def test_cartesian_product_size_and_order(self):
        grid = ScenarioGrid(
            systems=("fastmoe", "pipemoe"), batches=(1024, 2048), ns=(1, 2)
        )
        scenarios = grid.scenarios()
        assert len(grid) == 8
        assert len(scenarios) == 8
        assert scenarios == grid.scenarios()  # deterministic order
        assert scenarios[0].system == "fastmoe"
        assert [s.batch for s in scenarios[:4]] == [1024, 1024, 2048, 2048]

    def test_grid_concatenation(self):
        combined = ScenarioGrid(systems=("fastmoe",)) + ScenarioGrid(
            systems=("pipemoe",), ns=(4, None)
        )
        assert [s.system for s in combined] == ["fastmoe", "pipemoe", "pipemoe"]

    def test_concatenation_stays_grid_compatible(self):
        """``+`` no longer degrades to a plain list: the result keeps
        ``scenarios()``/``len`` and chains with grids and iterables on
        either side."""
        from repro.sweep import ScenarioList

        a = ScenarioGrid(systems=("fastmoe",))
        b = ScenarioGrid(systems=("pipemoe",), ns=(1, 2))
        combined = a + b
        assert isinstance(combined, ScenarioList)
        assert len(combined) == 3
        assert combined.scenarios() == a.scenarios() + b.scenarios()
        # Chains in both directions, against grids, lists and scenarios.
        chained = combined + a + [Scenario(system="mpipemoe")]
        assert isinstance(chained, ScenarioList)
        assert len(chained) == 5
        led = [Scenario(system="mpipemoe")] + combined
        assert isinstance(led, ScenarioList)
        assert led[0].system == "mpipemoe"
        assert isinstance(led[:2], ScenarioList)
        assert combined == a.scenarios() + b.scenarios()

    def test_concatenation_rejects_non_scenarios(self):
        with pytest.raises(TypeError, match="Scenario"):
            ScenarioGrid() + ["not-a-scenario"]

    def test_unknown_axis_name_fails_eagerly_with_suggestion(self):
        with pytest.raises(ValueError, match="did you mean 'batches'"):
            ScenarioGrid(batch_sizes=(1024,))
        with pytest.raises(ValueError, match="valid axes"):
            ScenarioGrid(granularities=(2,))

    def test_scalar_and_string_axes_fail_eagerly(self):
        """specs="GPT-XL" must not fan out over characters, and
        batches=4096 must not die deep inside itertools.product."""
        with pytest.raises(ValueError, match="specs=\\('GPT-XL',\\)"):
            ScenarioGrid(specs="GPT-XL")
        with pytest.raises(ValueError, match="sequence"):
            ScenarioGrid(batches=4096)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            ScenarioGrid(batches=())

    def test_unknown_spec_fails_before_any_point_runs(self):
        """An unknown preset name used to build fine and then raise
        KeyError mid-run, after other points had been computed."""
        grid = ScenarioGrid(systems=("timeline",), specs=("GPT-S", "GPT-M"))
        with pytest.raises(ValueError, match=r"unknown spec 'GPT-M'.*'GPT-S'"):
            grid.scenarios()
        with pytest.raises(ValueError, match="unknown spec"):
            SweepRunner(fake_evaluate).run(grid)


class TestRunnerCaching:
    def test_miss_then_hit(self, tmp_path):
        runner = SweepRunner(fake_evaluate, cache_dir=tmp_path / "cache")
        first = runner.run(SMALL_GRID)
        assert all(not r.cached for r in first)
        assert len(list((tmp_path / "cache").glob("*.json"))) == len(SMALL_GRID)

        second = runner.run(SMALL_GRID)
        assert all(r.cached for r in second)
        assert [r.values for r in second] == [r.values for r in first]

    def test_cache_hit_skips_evaluation(self, tmp_path, monkeypatch):
        counter = tmp_path / "calls.log"
        monkeypatch.setenv("SWEEP_TEST_COUNTER", str(counter))
        runner = SweepRunner(fake_evaluate, cache_dir=tmp_path / "cache")
        runner.run(SMALL_GRID)
        assert len(counter.read_text().splitlines()) == len(SMALL_GRID)
        runner.run(SMALL_GRID)  # all hits: no new evaluations
        assert len(counter.read_text().splitlines()) == len(SMALL_GRID)

    def test_extending_the_grid_pays_only_new_points(self, tmp_path, monkeypatch):
        counter = tmp_path / "calls.log"
        monkeypatch.setenv("SWEEP_TEST_COUNTER", str(counter))
        runner = SweepRunner(fake_evaluate, cache_dir=tmp_path / "cache")
        runner.run(SMALL_GRID)
        bigger = SMALL_GRID + ScenarioGrid(
            systems=("timeline",), specs=("GPT-S",), world_sizes=(8,),
            batches=(4096,), ns=(1, 2),
        )
        results = runner.run(bigger)
        assert sum(not r.cached for r in results) == 2
        assert len(counter.read_text().splitlines()) == len(SMALL_GRID) + 2

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        runner = SweepRunner(fake_evaluate, cache_dir=tmp_path / "cache")
        scenario = Scenario(system="timeline", batch=512, n=2)
        runner.run([scenario])
        path = runner.cache_path(scenario)
        path.write_text("{not json")
        (result,) = runner.run([scenario])
        assert not result.cached
        assert json.loads(path.read_text())["values"] == result.values

    def test_duplicate_scenarios_evaluated_once(self, tmp_path, monkeypatch):
        counter = tmp_path / "calls.log"
        monkeypatch.setenv("SWEEP_TEST_COUNTER", str(counter))
        scenario = Scenario(system="timeline", batch=512, n=2)
        results = SweepRunner(fake_evaluate).run([scenario, scenario])
        assert len(results) == 2
        assert results[0].values == results[1].values
        assert len(counter.read_text().splitlines()) == 1

    def test_no_cache_dir_means_no_files(self, tmp_path):
        runner = SweepRunner(fake_evaluate)
        assert runner.cache_path(Scenario()) is None
        results = runner.run(SMALL_GRID)
        assert all(not r.cached for r in results)


class TestRunnerParallelism:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepRunner(fake_evaluate, workers=0)

    def test_parallel_matches_serial_on_fake_evaluator(self):
        serial = SweepRunner(fake_evaluate, workers=1).run(SMALL_GRID)
        parallel = SweepRunner(fake_evaluate, workers=4).run(SMALL_GRID)
        assert [r.scenario for r in parallel] == [r.scenario for r in serial]
        assert [r.values for r in parallel] == [r.values for r in serial]

    def test_parallel_matches_serial_on_real_timeline(self):
        grid = ScenarioGrid(
            systems=("timeline",), specs=("GPT-S",), world_sizes=(8,),
            batches=(2048, 4096), ns=(2, 4),
        )
        serial = SweepRunner(evaluate_timeline, workers=1).run(grid)
        parallel = SweepRunner(evaluate_timeline, workers=4).run(grid)
        assert [r.values for r in parallel] == [r.values for r in serial]
        assert all(r["makespan"] > 0 for r in serial)

    def test_backend_validation(self):
        with pytest.raises(ValueError, match="backend"):
            SweepRunner(fake_evaluate, backend="fiber")

    def test_thread_pool_matches_serial_and_process(self):
        grid = ScenarioGrid(
            systems=("timeline",), specs=("GPT-S",), world_sizes=(8,),
            batches=(2048, 4096), ns=(2, 4), strategies=(None, "S1"),
        )
        serial = SweepRunner(evaluate_timeline, workers=1).run(grid)
        threaded = on_thread_pool(evaluate_timeline, grid, workers=4)
        assert [r.scenario for r in threaded] == [r.scenario for r in serial]
        assert [r.values for r in threaded] == [r.values for r in serial]

    def test_thread_pool_shares_the_in_process_memo(self):
        """Threads hit the shared evaluator: across the whole run, at
        least the repeated stage-cost lookups must be cache hits."""
        grid = ScenarioGrid(
            systems=("timeline",), specs=("GPT-S",), world_sizes=(4,),
            batches=(1024,), ns=(2,), strategies=("S1", "S2", "S3", "S4"),
        )
        results = on_thread_pool(evaluate_timeline, grid, workers=2)
        hits = sum(r.cache_stats["hits"] for r in results if r.cache_stats)
        assert hits > 0


class TestEvaluators:
    def test_timeline_requires_explicit_n(self):
        with pytest.raises(ValueError, match="explicit n"):
            evaluate_timeline(Scenario(system="timeline", n=None))

    def test_system_evaluator_reports_expected_fields(self):
        from repro.sweep import evaluate_system

        values = evaluate_system(
            Scenario(system="pipemoe", spec="GPT-S", world_size=8, batch=2048, n=2)
        )
        assert values["system"] == "PipeMoE(n=2)"
        assert values["n"] == 2
        assert values["iteration_time"] > 0
        assert values["peak_memory_bytes"] > 0

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"system": "pipemoe", "strategy": "S1"}, "strategy"),
            ({"system": "fastermoe", "strategy": "S4"}, "strategy"),
            ({"system": "fastmoe", "n": 4}, "pipeline"),
            ({"system": "mpipemoe", "decomposed_comm": True}, "timeline"),
            ({"system": "pipemoe", "sequential": True}, "timeline"),
        ],
    )
    def test_system_evaluator_rejects_inapplicable_knobs(self, kwargs, match):
        """A knob the backend would silently ignore must fail loudly, or a
        grid crossing it would cache identical values under distinct keys."""
        from repro.sweep import evaluate_system

        with pytest.raises(ValueError, match=match):
            evaluate_system(Scenario(spec="GPT-S", world_size=8, batch=2048, **kwargs))


class TestAnalysis:
    def test_pareto_front_on_hand_computed_points(self):
        # (time, memory): A and C are the extremes, B bends the frontier,
        # D is dominated by B, E is dominated by C.
        a = result_at(1.0, 10.0, batch=1)
        b = result_at(2.0, 2.0, batch=2)
        c = result_at(3.0, 1.0, batch=3)
        d = result_at(2.5, 3.0, batch=4)
        e = result_at(3.0, 10.0, batch=5)
        front = pareto_front([e, d, c, b, a])
        assert front == [a, b, c]

    def test_pareto_keeps_duplicate_coordinates(self):
        a = result_at(1.0, 1.0, batch=1)
        b = result_at(1.0, 1.0, batch=2)
        assert set(r.scenario.batch for r in pareto_front([a, b])) == {1, 2}

    def test_pareto_single_point(self):
        a = result_at(5.0, 5.0, batch=1)
        assert pareto_front([a]) == [a]

    def test_sweep_table_resolves_values_scenario_and_label(self):
        results = SweepRunner(fake_evaluate).run(
            ScenarioGrid(systems=("timeline",), batches=(1024,), ns=(2,))
        )
        table = sweep_table(
            results,
            ["label", "batch", ("time", "iteration_time")],
            title="t",
        )
        text = table.render()
        assert "timeline" in text and "1024" in text
        assert "bound method" not in text

    def test_sweep_table_unknown_column(self):
        results = SweepRunner(fake_evaluate).run([Scenario(system="timeline", n=2)])
        with pytest.raises(KeyError, match="neither"):
            sweep_table(results, ["no_such_column"]).render()

    def test_group_by_scenario_field(self):
        results = SweepRunner(fake_evaluate).run(SMALL_GRID)
        groups = group_by(results, "batch")
        assert set(groups) == {1024, 2048}
        assert all(len(v) == 2 for v in groups.values())


class TestHeteroScenarios:
    def test_uniform_straggler_values_match_homogeneous(self):
        """The degenerate-hetero fast path, end to end through the sweep:
        a 'uniform' straggler scenario must price identically to no
        straggler at all."""
        from repro.sweep import evaluate_system

        base = dict(system="mpipemoe", spec="GPT-S", world_size=8, batch=2048)
        plain = evaluate_system(Scenario(**base))
        uniform = evaluate_system(Scenario(**base, straggler="uniform"))
        plain.pop("_evaluator_cache"), uniform.pop("_evaluator_cache")
        assert uniform == plain

    def test_straggler_scenario_slows_and_shifts(self):
        from repro.sweep import evaluate_system

        base = dict(system="mpipemoe", spec="GPT-XL", world_size=64,
                    batch=24576)
        healthy = evaluate_system(Scenario(**base))
        skewed = evaluate_system(Scenario(
            **base, straggler="single-slow-gpu", severity=0.5,
        ))
        assert skewed["iteration_time"] > healthy["iteration_time"]
        assert (healthy["n"], skewed["n"]) == (8, 4)  # the acceptance shift

    def test_num_experts_and_capacity_factor_axes(self):
        from repro.sweep import evaluate_system

        base = dict(system="fastmoe", spec="GPT-S", world_size=8, batch=2048)
        plain = evaluate_system(Scenario(**base))
        more_experts = evaluate_system(Scenario(**base, num_experts=128))
        padded = evaluate_system(Scenario(**base, capacity_factor=1.5))
        # More experts per rank => more model-state memory, same timing.
        assert more_experts["peak_memory_bytes"] > plain["peak_memory_bytes"]
        assert more_experts["iteration_time"] == plain["iteration_time"]
        # Capacity padding grows the processed rows => slower; the
        # reported batch stays the raw token count.
        assert padded["iteration_time"] > plain["iteration_time"]
        assert padded["batch"] == 2048

    def test_capacity_factor_uses_the_per_expert_dispatch_formula(self):
        """Regression for the runner's old ``ceil(B * f)`` semantics.

        Capacity now follows core/dispatch.capacity_for —
        ``C = ceil(f * B * k / E)`` per expert, with every device
        pricing its padded E*C buffer.  The two definitions disagree
        whenever f*B doesn't divide by E: B=2000, f=1.1, E=64 gives
        ceil(B*f) = 2200 but E * ceil(f*B/E) = 64 * 35 = 2240.
        """
        from repro.config import get_preset
        from repro.core.dispatch import capacity_for
        from repro.sweep import scenario_workload

        sc = Scenario(system="fastmoe", spec="GPT-S", world_size=8,
                      batch=2000, capacity_factor=1.1)
        workload = scenario_workload(sc)
        spec = get_preset(sc.spec)
        load = workload.load(spec, sc.batch, sc.world_size)
        assert load.capacity == capacity_for(2000, 64, 1, 1.1) == 35
        assert load.device_rows == 64 * 35 == 2240
        assert load.device_rows != 2200  # the old whole-batch rounding
        # And the priced timing actually reflects the corrected rows:
        # identical to an explicit workload carrying the same factor.
        from repro.sweep import evaluate_system, shared_context

        values = evaluate_system(sc)
        ctx = shared_context(sc.world_size)
        direct = ctx.evaluator.simulate(
            spec, sc.batch, 1, "none", sequential=True, gemm_derate=0.6,
            workload=workload,
        )
        assert values["iteration_time"] == direct.makespan

    def test_routing_axes_reach_the_evaluation(self):
        from repro.sweep import evaluate_system

        base = dict(system="mpipemoe", spec="GPT-XL", world_size=64,
                    batch=8192)
        plain = evaluate_system(Scenario(**base))
        skewed = evaluate_system(Scenario(**base, imbalance=4.0))
        wide = evaluate_system(Scenario(**base, dtype="fp32"))
        k2 = evaluate_system(Scenario(**base, top_k=2))
        # Skew inflates the bottleneck device's rows => slower, and the
        # adaptive granularity coarsens like a bigger batch would.
        assert skewed["iteration_time"] > plain["iteration_time"]
        assert skewed["n"] > plain["n"]
        # Wider activations slow the comm-bound point.
        assert wide["iteration_time"] > plain["iteration_time"]
        # k=2 routes 2x the rows: equivalent to doubling B (uniform).
        doubled = evaluate_system(Scenario(**{**base, "batch": 16384}))
        assert k2["iteration_time"] == doubled["iteration_time"]
        assert k2["n"] == doubled["n"]

    def test_explicit_default_routing_axes_price_identically(self):
        """top_k=1 / fp16 / imbalance=1.0 spell out the defaults: same
        physical values as the unrouted scenario (new hash, same
        numbers — the degenerate-workload contract through the sweep)."""
        from repro.sweep import evaluate_system

        base = dict(system="mpipemoe", spec="GPT-S", world_size=8,
                    batch=2048)
        plain = evaluate_system(Scenario(**base))
        routed = evaluate_system(
            Scenario(**base, top_k=1, dtype="fp16", imbalance=1.0)
        )
        plain.pop("_evaluator_cache"), routed.pop("_evaluator_cache")
        assert routed == plain

    def test_grid_routing_axes(self):
        grid = ScenarioGrid(
            systems=("timeline",), ns=(2,), top_ks=(None, 2),
            dtypes=(None, "fp32"), imbalances=(1.0, 4.0),
        )
        assert len(grid) == 8
        assert {s.top_k for s in grid} == {None, 2}
        assert {s.dtype for s in grid} == {None, "fp32"}
        assert {s.imbalance for s in grid} == {1.0, 4.0}

    def test_jitter_seed_reaches_the_evaluation(self):
        from repro.sweep import scenario_hetero

        a = scenario_hetero(Scenario(straggler="random-jitter", severity=0.5,
                                     straggler_seed=1))
        b = scenario_hetero(Scenario(straggler="random-jitter", severity=0.5,
                                     straggler_seed=2))
        assert a != b
        assert scenario_hetero(Scenario()) is None

    def test_runner_max_entries_reaches_new_contexts(self, monkeypatch):
        from repro.sweep import runner as runner_mod

        # setenv first so monkeypatch restores the variable after run()
        # writes it; fresh pool so the bound applies to a new context.
        monkeypatch.setenv(runner_mod.MAX_MEMO_ENTRIES_ENV, "")
        monkeypatch.setattr(runner_mod, "_CONTEXTS", {})
        runner = SweepRunner(evaluate_timeline, evaluator_max_entries=8)
        runner.run([Scenario(system="timeline", spec="GPT-S", world_size=8,
                             batch=1024, n=2)])
        ctx = runner_mod.shared_context(8)
        assert ctx.evaluator.max_entries == 8

    def test_memo_bound_env_var_does_not_leak_past_the_run(self, monkeypatch):
        """A bounded runner must not silently cap later 'unbounded'
        runners' contexts via a leaked environment variable."""
        from repro.sweep import runner as runner_mod

        monkeypatch.delenv(runner_mod.MAX_MEMO_ENTRIES_ENV, raising=False)
        monkeypatch.setattr(runner_mod, "_CONTEXTS", {})
        runner = SweepRunner(evaluate_timeline, evaluator_max_entries=2)
        runner.run([Scenario(system="timeline", spec="GPT-S", world_size=8,
                             batch=1024, n=2)])
        assert runner_mod.MAX_MEMO_ENTRIES_ENV not in os.environ
        # A context built after the bounded run is genuinely unbounded.
        monkeypatch.setattr(runner_mod, "_CONTEXTS", {})
        ctx = runner_mod.shared_context(8)
        assert ctx.evaluator.max_entries is None

    def test_context_pool_is_bounded(self, monkeypatch):
        from repro.sweep import runner as runner_mod

        monkeypatch.setattr(runner_mod, "_CONTEXTS", {})
        monkeypatch.setattr(runner_mod, "MAX_SHARED_CONTEXTS", 2)
        for world in (2, 4, 8):
            runner_mod.shared_context(world)
        assert len(runner_mod._CONTEXTS) == 2
        assert (8, None) in runner_mod._CONTEXTS  # newest kept

    def test_cache_stats_survive_the_disk_cache(self, tmp_path):
        runner = SweepRunner(evaluate_timeline, cache_dir=tmp_path / "cache")
        scenario = Scenario(system="timeline", spec="GPT-S", world_size=8,
                            batch=1024, n=2)
        (first,) = runner.run([scenario])
        assert first.cache_stats is not None
        assert "hits" in first.cache_stats and "misses" in first.cache_stats
        # Stats live beside the values, in memory and on disk.
        assert "_evaluator_cache" not in first.values
        payload = json.loads(runner.cache_path(scenario).read_text())
        assert payload["evaluator_cache"] == first.cache_stats
        (second,) = runner.run([scenario])
        assert second.cached
        assert second.cache_stats == first.cache_stats


# Module-level so process workers resolve it by qualified name.
def record_bound_evaluate(scenario: Scenario) -> dict:
    import time

    from repro.sweep import runner as runner_mod

    time.sleep(0.002)  # widen the overlap window between concurrent runs
    return {
        "bound": runner_mod._default_max_entries(),
        "env": os.environ.get(runner_mod.MAX_MEMO_ENTRIES_ENV),
    }


class TestConcurrentMemoBounds:
    """Regression: ``SweepRunner.run`` used to export
    ``evaluator_max_entries`` through ``REPRO_SWEEP_MAX_MEMO_ENTRIES``
    for the whole run and restore it afterwards — two concurrent runners
    with different bounds clobbered each other (and a crash could leave
    the variable behind).  The bound now rides a context variable scoped
    to each evaluation."""

    def _scenarios(self, start: int) -> list:
        return [
            Scenario(system="timeline", batch=start + i) for i in range(1, 25)
        ]

    def test_concurrent_runners_keep_their_own_bounds(self, monkeypatch):
        import threading

        monkeypatch.delenv("REPRO_SWEEP_MAX_MEMO_ENTRIES", raising=False)
        bounded = SweepRunner(record_bound_evaluate, backend="serial",
                              evaluator_max_entries=5)
        unbounded = SweepRunner(record_bound_evaluate, backend="serial")
        results: dict = {}

        def run(name, runner, start):
            results[name] = runner.run(self._scenarios(start))

        threads = [
            threading.Thread(target=run, args=("bounded", bounded, 0)),
            threading.Thread(target=run, args=("unbounded", unbounded, 1000)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()

        assert {r.values["bound"] for r in results["bounded"]} == {5}
        assert {r.values["bound"] for r in results["unbounded"]} == {None}
        # The environment was never written, mid-run or after.
        for rs in results.values():
            assert {r.values["env"] for r in rs} == {None}
        assert "REPRO_SWEEP_MAX_MEMO_ENTRIES" not in os.environ

    def test_server_pool_keeps_each_runners_bound(
        self, monkeypatch, loopback_server
    ):
        """The bound rides the submit frame, and the server's pool
        threads scope it per evaluation as the local runner does."""
        import threading

        monkeypatch.delenv("REPRO_SWEEP_MAX_MEMO_ENTRIES", raising=False)
        bounded = SweepRunner(record_bound_evaluate, backend="remote",
                              evaluator_max_entries=5)
        unbounded = SweepRunner(record_bound_evaluate, backend="remote")
        results: dict = {}

        def run(name, runner, start):
            results[name] = runner.run(self._scenarios(start))

        threads = [
            threading.Thread(target=run, args=("bounded", bounded, 0)),
            threading.Thread(target=run, args=("unbounded", unbounded, 1000)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()

        assert {r.values["bound"] for r in results["bounded"]} == {5}
        assert {r.values["bound"] for r in results["unbounded"]} == {None}
        for rs in results.values():
            assert {r.values["env"] for r in rs} == {None}

    def test_env_default_survives_and_is_overridden_per_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_MAX_MEMO_ENTRIES", "11")
        bounded = SweepRunner(record_bound_evaluate, evaluator_max_entries=5)
        plain = SweepRunner(record_bound_evaluate)
        (b,) = bounded.run([Scenario(system="timeline", batch=1)])
        (p,) = plain.run([Scenario(system="timeline", batch=2)])
        assert b.values["bound"] == 5  # explicit bound wins
        assert p.values["bound"] == 11  # env default still honored
        assert b.values["env"] == p.values["env"] == "11"  # never mutated
        assert os.environ["REPRO_SWEEP_MAX_MEMO_ENTRIES"] == "11"

    def test_bound_lands_on_fresh_contexts(self, monkeypatch):
        from repro.sweep import runner as runner_mod

        monkeypatch.delenv("REPRO_SWEEP_MAX_MEMO_ENTRIES", raising=False)
        with runner_mod._POOL_LOCK:
            saved = dict(runner_mod._CONTEXTS)
            runner_mod._CONTEXTS.clear()
        try:
            runner = SweepRunner(evaluate_timeline, evaluator_max_entries=7)
            runner.run([Scenario(system="timeline", spec="GPT-S",
                                 world_size=4, batch=1024, n=2)])
            ctx = runner_mod._CONTEXTS[(4, None)]
            assert ctx.evaluator.max_entries == 7
        finally:
            with runner_mod._POOL_LOCK:
                runner_mod._CONTEXTS.clear()
                runner_mod._CONTEXTS.update(saved)
