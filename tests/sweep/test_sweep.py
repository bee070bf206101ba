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
from tests.conftest import on_thread_pool, run_python

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

    def test_key_table_is_pinned(self):
        """Scenario.key() names every cache entry and store file: these
        digests must not move when the payload code changes."""
        placed = dict(
            system="timeline", spec="GPT-S", world_size=8, batch=2048,
            imbalance=4.0, straggler="single-slow-gpu", severity=0.5,
        )
        assert Scenario().key() == "ed6f203bff1219c979e4"
        assert (
            Scenario().key("repro.sweep.runner.evaluate_system")
            == "42a7934938b74f0f45a7"
        )
        assert (
            Scenario(**placed, n=2, strategy="S1", placement="optimized").key()
            == "612e77386c48c150d9d7"
        )
        every_field = Scenario(
            **{**placed, "straggler": "random-jitter"}, n=4, strategy="S3",
            decomposed_comm=True, sequential=True, straggler_seed=3,
            num_experts=32, capacity_factor=1.25, top_k=2, dtype="bf16",
            placement="shadowed",
        )
        assert every_field.key() == "0a5de2c5a380f65c3aa9"

    def test_hash_survives_pickling_across_hash_seeds(self):
        """A scenario pickled in one interpreter (as spawn and
        forkserver pools ship it) must hash like a fresh copy in another
        whose hash seed differs, or dict lookups on it miss."""
        build = (
            "import pickle, sys; from repro.sweep.grid import Scenario; "
            "sc = Scenario(system='timeline', spec='GPT-S', dtype='bf16'); "
        )
        dumped = run_python(
            "-c", build + "hash(sc); sys.stdout.write(pickle.dumps(sc).hex())",
            PYTHONHASHSEED="0",
        )
        assert dumped.returncode == 0, dumped.stderr
        loaded = run_python(
            "-c",
            build + "back = pickle.loads(bytes.fromhex(sys.stdin.read())); "
            "assert back == sc; print(hash(back) == hash(sc), {sc: 1}.get(back))",
            input=dumped.stdout,
            PYTHONHASHSEED="1",
        )
        assert loaded.returncode == 0, loaded.stderr
        assert loaded.stdout.split() == ["True", "1"]

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


    def test_hand_built_scenarios_reject_non_json_values(self):
        """A numpy scalar in a hand-built scenario used to run, then fail
        at to_json() with "Object of type int64 is not JSON serializable"."""
        import numpy as np

        with pytest.raises(ValueError, match="'batch'.*numpy.int64"):
            Scenario(system="mpipemoe", batch=np.int64(2048))
        with pytest.raises(ValueError, match="'decomposed_comm'.*numpy.bool"):
            Scenario(decomposed_comm=np.bool_(True))
        with pytest.raises(ValueError, match="'straggler'.*tuple"):
            Scenario(straggler=("single-slow-gpu",))
        # Subclasses of the JSON scalars pass, as on grid axes.
        scenario = Scenario(
            system="timeline", spec="GPT-S", world_size=8, batch=1024, n=2,
            straggler="single-slow-gpu", severity=np.float64(0.5),
        )
        (row,) = json.loads(Study([scenario], objective="timeline").run().to_json())
        assert row["scenario"]["severity"] == 0.5


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
        batches=4096 must not die deep inside itertools.product.  A set
        axis would order the scenarios by hash seed, and numpy scalars
        would run, then fail at the first cache key or at to_json()."""
        import numpy as np

        with pytest.raises(ValueError, match="specs=\\('GPT-XL',\\)"):
            ScenarioGrid(specs="GPT-XL")
        with pytest.raises(ValueError, match="sequence"):
            ScenarioGrid(batches=4096)
        with pytest.raises(ValueError, match="'systems'.*ordered sequence"):
            ScenarioGrid(systems={"fastmoe", "pipemoe"})
        with pytest.raises(ValueError, match="'ns'.*frozenset"):
            ScenarioGrid(ns=frozenset({2, 4}))
        with pytest.raises(ValueError, match="'batches'.*numpy.int64"):
            ScenarioGrid(batches=np.arange(1024, 3072, 1024))
        with pytest.raises(ValueError, match="'decomposed'.*numpy.bool"):
            ScenarioGrid(decomposed=(np.bool_(True),))
        # JSON's scalars pass: None, str, int, float and bool.
        grid = ScenarioGrid(ns=(None, 2), severities=(1.0,), sequential=(True,))
        assert len(grid) == 2

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            ScenarioGrid(batches=())

    def test_axis_fields_follow_the_scenario_fields(self):
        """scenarios() builds Scenario(*combo) positionally, and an
        absent axis takes its field's default: both need AXIS_FIELDS to
        name every field once, in declaration order."""
        from dataclasses import fields

        from repro.sweep import AXIS_FIELDS

        assert list(AXIS_FIELDS.values()) == [f.name for f in fields(Scenario)]
        assert ScenarioGrid().scenarios() == [Scenario()]

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

    @pytest.mark.parametrize("objective", ["system", "timeline", "eq10"])
    def test_builtin_cache_delta_keeps_its_thirteen_keys(self, objective):
        """The ``evaluator_cache`` shape every cache file and store entry
        holds: eight counters, their totals, the live entry count, and
        ``evictions``/``max_entries``, constant since the memo has no
        bound."""
        from repro.api.study import OBJECTIVES

        system = "timeline" if objective == "timeline" else "mpipemoe"
        scenario = Scenario(system=system, spec="GPT-S", world_size=8,
                            batch=2048, n=2)
        delta = OBJECTIVES[objective](scenario)["_evaluator_cache"]
        counters = [
            f"{table}_{kind}"
            for table in ("cost", "makespan", "sim", "footprint")
            for kind in ("hits", "misses")
        ]
        assert sorted(delta) == sorted(
            [*counters, "hits", "misses", "entries", "evictions", "max_entries"]
        )
        assert delta["evictions"] == 0
        assert delta["max_entries"] is None
        assert delta["hits"] == sum(delta[c] for c in counters[::2])
        assert delta["misses"] == sum(delta[c] for c in counters[1::2])
        assert delta["entries"] > 0


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
        # "key" is a Scenario method, not a field: no column either.
        for column in ("no_such_column", "key"):
            with pytest.raises(KeyError, match="neither"):
                sweep_table(results, [column]).render()

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

    def test_the_old_memo_bound_variable_changes_nothing(self, monkeypatch):
        """``REPRO_SWEEP_MAX_MEMO_ENTRIES`` left in an environment no
        longer bounds anything: contexts key on (world, hetero) alone and
        the rows report no bound and no evictions."""
        from repro.sweep import runner as runner_mod

        monkeypatch.setenv("REPRO_SWEEP_MAX_MEMO_ENTRIES", "2")
        monkeypatch.setattr(runner_mod, "_CONTEXTS", {})
        grid = [
            Scenario(system="timeline", spec="GPT-S", world_size=8,
                     batch=batch, n=2)
            for batch in (512, 1024, 2048, 4096)
        ]
        rows = SweepRunner(evaluate_timeline, backend="serial").run(grid)
        assert list(runner_mod._CONTEXTS) == [(8, None)]
        assert {r.cache_stats["evictions"] for r in rows} == {0}
        assert {r.cache_stats["max_entries"] for r in rows} == {None}
        assert rows[-1].cache_stats["entries"] > 2

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


class TestConcurrentRuns:
    """Runs on concurrent threads share the process's pooled context
    for their cluster, and each keeps its own serial run's values."""

    BATCHES = ((512, 768, 1024, 1536), (2048, 3072, 4096, 6144))

    def _grid(self, batches) -> list:
        return [
            Scenario(system="timeline", spec="GPT-S", world_size=8,
                     batch=batch, n=n)
            for batch in batches
            for n in (1, 2, 4)
        ]

    def _run_concurrently(self, runners, grids) -> list:
        import sys
        import threading

        rows = [None] * len(grids)

        def run(i):
            rows[i] = runners[i].run(grids[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the runs' evaluations
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        return rows

    def test_concurrent_runners_share_one_context(self, monkeypatch):
        """The per-scenario deltas stay exact under the context's sweep
        lock: their memo misses add up to the entries the shared memo
        holds, with nothing counted twice."""
        from repro.sweep import runner as runner_mod

        monkeypatch.setattr(runner_mod, "_CONTEXTS", {})
        grids = [self._grid(batches) for batches in self.BATCHES]
        runners = [
            SweepRunner(evaluate_timeline, backend="serial") for _ in range(2)
        ]
        rows = self._run_concurrently(runners, grids)
        (ctx,) = runner_mod._CONTEXTS.values()
        assert list(runner_mod._CONTEXTS) == [(8, None)]
        memo = ctx.evaluator
        # The footprint and selector tables count no misses.
        counted = (memo._costs, memo._makespans, memo._sims,
                   memo._footprint_bytes)
        misses = sum(r.cache_stats["misses"] for rs in rows for r in rs)
        assert misses == sum(map(len, counted))
        monkeypatch.setattr(runner_mod, "_CONTEXTS", {})
        for grid, got in zip(grids, rows):
            serial = SweepRunner(evaluate_timeline).run(grid)
            assert [r.values for r in got] == [r.values for r in serial]

    def test_the_server_pool_serves_concurrent_runners(self, loopback_server):
        grids = [self._grid(batches) for batches in self.BATCHES]
        runners = [
            SweepRunner(evaluate_timeline, backend="remote") for _ in range(2)
        ]
        rows = self._run_concurrently(runners, grids)
        for grid, got in zip(grids, rows):
            serial = SweepRunner(evaluate_timeline).run(grid)
            assert [r.ok for r in got] == [True] * len(grid)
            assert [r.values for r in got] == [r.values for r in serial]
