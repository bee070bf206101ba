"""Whole-grid evaluation: byte-identity with the memoized scalar path.

The contract of :mod:`repro.perfmodel.batcheval` is not "close": every
value the batched pass produces must be bit-for-bit what the scalar
evaluator computes for that scenario — neutral and skewed workloads,
homogeneous and straggler clusters, every execution backend.  All
comparisons here go through ``struct.pack``, never a tolerance.
"""

import os
import struct

import numpy as np
import pytest

from repro.api import Study
from repro.perfmodel.batcheval import (
    batch_evaluate_eq10,
    batch_evaluate_timeline,
    batch_evaluator_for,
    batch_map,
    batched_makespans,
    register_batch_evaluator,
)
from repro.sim.engine import replay_schedule
from repro.sweep import (
    Scenario,
    ScenarioGrid,
    SweepRunner,
    VECTORIZE_ENV,
    VECTORIZE_MIN_POINTS,
    evaluate_eq10,
    evaluate_timeline,
)
from repro.sweep.runner import CACHE_STATS_KEY, scenario_hetero, shared_context


def bits(values: dict) -> tuple:
    """A hashable bit-exact image of one values dict."""
    return tuple(
        (k, struct.pack("<d", v) if isinstance(v, float) else v)
        for k, v in sorted(values.items())
    )


def scalar_values(evaluate, scenarios) -> list:
    out = []
    for sc in scenarios:
        values = dict(evaluate(sc))
        values.pop(CACHE_STATS_KEY, None)
        out.append(values)
    return out


def assert_identical(evaluate, batch_evaluate, scenarios) -> None:
    batched = batch_evaluate(list(scenarios))
    scalar = scalar_values(evaluate, scenarios)
    assert len(batched) == len(scalar)
    for sc, b, s in zip(scenarios, batched, scalar):
        b = dict(b)
        stats = b.pop(CACHE_STATS_KEY)
        assert "batch_group" in stats  # group-level attribution, not memo deltas
        assert bits(b) == bits(s), f"diverged at {sc.label()}"


def grid(**axes) -> list:
    defaults = dict(
        systems=("timeline",), specs=("GPT-S",), world_sizes=(8,),
        batches=(4096, 4100, 5000), ns=(4,),
    )
    defaults.update(axes)
    return ScenarioGrid(**defaults).scenarios()


class TestTimelineIdentity:
    def test_neutral_grid(self):
        scenarios = grid(
            batches=tuple(range(8192, 8192 + 64 * 16, 16)),
            ns=(2, 4, 8), strategies=(None, "S1", "S2"),
        )
        assert_identical(evaluate_timeline, batch_evaluate_timeline, scenarios)

    def test_segmented_replay_stress(self):
        # S2@n=16 flips schedule event order many times across a dense
        # batch axis — the replay path must segment and stay exact.
        scenarios = grid(
            batches=tuple(range(32768, 32768 + 96 * 32, 32)),
            ns=(16,), strategies=("S2",),
        )
        assert_identical(evaluate_timeline, batch_evaluate_timeline, scenarios)

    def test_routed_workloads(self):
        scenarios = grid(
            batches=(4096, 4104), num_experts=(8, 16), top_ks=(None, 2),
            dtypes=(None, "fp32"), imbalances=(1.0, 4.0),
            capacity_factors=(None, 1.25), strategies=("S1",),
        )
        assert_identical(evaluate_timeline, batch_evaluate_timeline, scenarios)

    def test_straggler_clusters(self):
        scenarios = grid(batches=(4096, 6144), strategies=("S1", "S3")) + grid(
            batches=(4096, 6144), strategies=("S1", "S3"),
            stragglers=("single-slow-gpu", "slow-node"), severities=(0.5,),
        )
        assert_identical(evaluate_timeline, batch_evaluate_timeline, scenarios)

    def test_decomposed_and_sequential(self):
        scenarios = grid(
            batches=(4096, 4128), strategies=("S2",),
            decomposed=(False, True), sequential=(False, True),
        )
        assert_identical(evaluate_timeline, batch_evaluate_timeline, scenarios)

    def test_missing_n_raises_in_scenario_order(self):
        good = Scenario(system="timeline", spec="GPT-S", batch=4096, n=4)
        bad = Scenario(system="timeline", spec="GPT-S", batch=4096, n=None)
        with pytest.raises(ValueError, match="explicit n"):
            batch_evaluate_timeline([good, bad])


class TestEq10Identity:
    def test_selection_grid(self):
        scenarios = ScenarioGrid(
            systems=("timeline",), specs=("GPT-S",), world_sizes=(8,),
            batches=(4096, 65536, 262144), ns=(1, 2, 4, 8),
            top_ks=(None, 2), imbalances=(1.0, 3.0),
        ).scenarios()
        batched = batch_evaluate_eq10(scenarios)
        scalar = scalar_values(evaluate_eq10, scenarios)
        assert any(not b["feasible"] for b in batched)  # covers MemoryError
        assert any(b["feasible"] for b in batched)
        for sc, b, s in zip(scenarios, batched, scalar):
            b = dict(b)
            s = dict(s)
            assert "batch_group" in b.pop(CACHE_STATS_KEY)
            assert bits(b.pop("costs")) == bits(s.pop("costs"))
            assert bits(b) == bits(s), f"diverged at {sc.label()}"

    def test_strategy_axis_rejected(self):
        sc = Scenario(system="timeline", spec="GPT-S", batch=4096, n=4,
                      strategy="S1")
        with pytest.raises(ValueError, match="selects the strategy itself"):
            batch_evaluate_eq10([sc])
        with pytest.raises(ValueError, match="selects the strategy itself"):
            evaluate_eq10(sc)


class TestBackendsIdentity:
    @pytest.mark.parametrize("backend", ["serial", "process", "remote"])
    def test_backend_matches_vectorized(self, backend, request):
        if backend == "remote":
            request.getfixturevalue("loopback_server")
        scenarios = grid(strategies=(None, "S1"))
        per_point = SweepRunner(
            evaluate_timeline, backend=backend, workers=2, vectorize=False
        ).run(scenarios)
        whole_grid = SweepRunner(evaluate_timeline, backend="vectorized").run(
            scenarios
        )
        for p, v in zip(per_point, whole_grid):
            assert bits(p.values) == bits(v.values)


class TestBatchedMakespans:
    def test_every_row_matches_the_scalar_engine(self):
        from repro.pipeline.schedule import compile_timeline

        sc = Scenario(system="timeline", spec="GPT-S", batch=4096, n=4)
        ctx = shared_context(sc.world_size, scenario_hetero(sc))
        compiled = compile_timeline(4, "S1")
        rng = np.random.default_rng(7)
        base = np.asarray(compiled.dag.works, dtype=np.float64)
        # Scale rows over two decades so several rows force different
        # event orders (replay must segment, never misprice).
        W = base * rng.uniform(0.1, 10.0, size=(40, base.size))
        spans = batched_makespans(ctx.engine, compiled.dag, W)
        for s in range(W.shape[0]):
            expected = ctx.engine.compiled_makespan(compiled.dag, W[s].tolist())
            assert struct.pack("<d", spans[s]) == struct.pack("<d", expected)

    def test_replay_validates_event_order(self):
        from repro.pipeline.schedule import compile_timeline

        sc = Scenario(system="timeline", spec="GPT-S", batch=4096, n=4)
        ctx = shared_context(sc.world_size, scenario_hetero(sc))
        compiled = compile_timeline(4, "S1")
        works = list(compiled.dag.works)
        trace = ctx.engine.record_compiled_schedule(compiled.dag, works)
        spans, valid = replay_schedule(trace, [works])
        assert valid[0]  # a representative always self-validates
        assert struct.pack("<d", float(spans[0])) == struct.pack(
            "<d", ctx.engine.compiled_makespan(compiled.dag, works)
        )
        # A zero-pattern change is detected, not silently mispriced.
        zeroed = list(works)
        zeroed[0] = 0.0
        _, valid = replay_schedule(trace, [zeroed])
        assert not valid[0]


class TestRouting:
    """When the runner takes the whole-grid path vs the memoized loop."""

    def test_registry_knows_the_builtin_twins(self):
        assert batch_evaluator_for(evaluate_timeline) is batch_evaluate_timeline
        assert batch_evaluator_for(evaluate_eq10) is batch_evaluate_eq10
        assert batch_evaluator_for(len) is None

    def test_batch_map_falls_back_to_a_serial_loop(self):
        calls = []

        def probe(sc):
            calls.append(sc)
            return {"x": 1}

        out = batch_map(probe, grid())
        assert len(out) == len(calls) == 3

    def test_register_custom_twin(self):
        def probe(sc):  # pragma: no cover - must not run
            raise AssertionError("scalar path taken")

        register_batch_evaluator(probe, lambda scs: [{"x": 0} for _ in scs])
        try:
            assert [v["x"] for v in batch_map(probe, grid())] == [0, 0, 0]
        finally:
            from repro.perfmodel import batcheval

            batcheval._BATCH_EVALUATORS.pop(probe)

    def test_auto_engages_on_large_serial_grids(self):
        scenarios = grid(batches=tuple(range(4096, 4096 + VECTORIZE_MIN_POINTS)))
        results = SweepRunner(evaluate_timeline).run(scenarios)
        # The batched pass reports group-level stats, not memo deltas.
        assert all("batch_group" in r.cache_stats for r in results)

    def test_auto_stays_memoized_below_the_threshold(self):
        results = SweepRunner(evaluate_timeline).run(grid())
        assert all(r.cache_stats is not None for r in results)

    def test_vectorize_true_forces_small_grids(self):
        results = SweepRunner(evaluate_timeline, vectorize=True).run(grid())
        assert all("batch_group" in r.cache_stats for r in results)

    def test_vectorize_false_pins_the_memoized_path(self):
        scenarios = grid(batches=tuple(range(4096, 4096 + VECTORIZE_MIN_POINTS)))
        results = SweepRunner(evaluate_timeline, vectorize=False).run(scenarios)
        assert all(r.cache_stats is not None for r in results)

    def test_env_kill_switch_disables_auto(self, monkeypatch):
        monkeypatch.setenv(VECTORIZE_ENV, "0")
        scenarios = grid(batches=tuple(range(4096, 4096 + VECTORIZE_MIN_POINTS)))
        results = SweepRunner(evaluate_timeline).run(scenarios)
        assert all(r.cache_stats is not None for r in results)

    def test_explicit_backend_wins_over_vectorize_false(self):
        results = SweepRunner(
            evaluate_timeline, backend="vectorized", vectorize=False
        ).run(grid())
        assert all("batch_group" in r.cache_stats for r in results)

    def test_objective_without_twin_uses_the_backend(self):
        from repro.sweep import evaluate_system

        scenarios = ScenarioGrid(
            systems=("pipemoe",), specs=("GPT-S",), world_sizes=(8,),
            batches=(512,), ns=(2,),
        ).scenarios()
        results = SweepRunner(evaluate_system, vectorize=True).run(scenarios)
        assert results[0].cache_stats is not None  # memoized path ran

    def test_study_plumbs_vectorize(self):
        study = Study(grid(), objective="timeline").vectorize()
        assert study.describe()["vectorize"] is True
        results = study.run()
        assert all("batch_group" in r.cache_stats for r in results)
        spec = study.describe()
        assert Study.from_spec(spec).describe()["vectorize"] is True

    def test_study_eq10_objective(self):
        results = Study(
            grid(ns=(2,), strategies=(None,)), objective="eq10"
        ).vectorize().run()
        assert all(r.values["feasible"] for r in results)
        assert all(r.values["strategy"] in ("S1", "S2", "S3", "S4")
                   for r in results)
