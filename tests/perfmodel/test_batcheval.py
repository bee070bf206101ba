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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Study
from repro.perfmodel.batcheval import (
    batch_evaluate_eq10,
    batch_evaluate_timeline,
    batch_evaluator_for,
    batched_makespans,
    register_batch_evaluator,
)
from repro.sim.engine import replay_schedule
from repro.sweep import (
    Scenario,
    ScenarioGrid,
    SweepRunner,
    VECTORIZE_MIN_POINTS,
    evaluate_eq10,
    evaluate_timeline,
)
from repro.sweep.runner import (
    CACHE_STATS_KEY,
    scenario_hetero,
    shared_context,
)


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


def row_bits(values: dict) -> tuple:
    """``bits`` with the Eq. 10 per-strategy ``costs`` dict unpacked."""
    values = dict(values)
    costs = values.pop("costs", None)
    return bits(values), None if costs is None else bits(costs)


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


#: Straggler kinds and their severity (victimless kinds must stay at 1.0).
STRAGGLERS = (
    (None, 1.0), ("uniform", 1.0), ("single-slow-gpu", 0.5),
    ("slow-node", 0.5), ("degraded-link", 0.5), ("two-slow-gpus", 0.5),
)


@st.composite
def template_group(draw, objective: str) -> list:
    """Scenarios sharing one template: one cluster, spec, E, W and n
    (plus one schedule for ``timeline``), each with its own batch and
    routing axes.  W divides E about half the time; otherwise E % W != 0
    and often W > E (where Eq. 10 raises on both paths)."""
    experts = draw(st.sampled_from((1, 2, 3, 4, 6, 8, 12, 16)))
    worlds = (1, 2, 3, 4, 6, 8, 16, 64)
    even = [w for w in worlds if experts % w == 0]
    straggler, severity = draw(st.sampled_from(STRAGGLERS))
    common = dict(
        system="timeline",
        spec=draw(st.sampled_from(("GPT-S", "BERT-L"))),
        world_size=draw(st.sampled_from(even) | st.sampled_from(worlds)),
        num_experts=experts,
        n=draw(st.sampled_from((1, 2, 3, 4, 8))),
        straggler=straggler,
        severity=severity,
    )
    if objective == "timeline":
        common["strategy"] = draw(st.sampled_from((None, "S1", "S2", "S3", "S4")))
        common["decomposed_comm"] = draw(st.booleans())
    points = st.fixed_dictionaries(dict(
        batch=st.integers(1, 40000),
        top_k=st.one_of(st.none(), st.integers(1, min(experts, 4))),
        dtype=st.sampled_from((None, "fp8", "bf16", "fp32")),
        imbalance=st.one_of(st.just(1.0), st.floats(1.0, 8.0)),
        capacity_factor=st.one_of(st.none(), st.floats(0.05, 2.0)),
    ))
    return [
        Scenario(**common, **point)
        for point in draw(st.lists(points, min_size=1, max_size=6))
    ]


def assert_twin_matches(evaluate, batch_evaluate, scenarios) -> None:
    """Batched values equal the scalar ones bit for bit, or both paths
    raise the same exception type (the first failing scenario's)."""
    try:
        scalar = scalar_values(evaluate, scenarios)
    except Exception as exc:
        with pytest.raises(type(exc)):
            batch_evaluate(scenarios)
        return
    batched = batch_evaluate(scenarios)
    for sc, b, s in zip(scenarios, batched, scalar):
        b = dict(b)
        assert "batch_group" in b.pop(CACHE_STATS_KEY)
        assert row_bits(b) == row_bits(s), f"diverged at {sc.label()}"


class TestGeneratedGroups:
    """Differential: the twins against their scalar evaluators on
    generated template groups."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(template_group("timeline"))
    def test_timeline_twin(self, scenarios):
        assert_twin_matches(evaluate_timeline, batch_evaluate_timeline, scenarios)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(template_group("eq10"))
    def test_eq10_twin(self, scenarios):
        assert_twin_matches(evaluate_eq10, batch_evaluate_eq10, scenarios)


class TestBackendsIdentity:
    @pytest.mark.parametrize("backend", ["serial", "process", "remote"])
    def test_backend_matches_vectorized(self, backend, request):
        if backend == "remote":
            request.getfixturevalue("loopback_server")
        scenarios = grid(strategies=(None, "S1"))
        per_point = SweepRunner(
            evaluate_timeline, backend=backend, workers=2, vectorize=False
        ).run(scenarios)
        for in_line in ({"backend": "serial"}, {"backend": "process", "workers": 1}):
            whole_grid = SweepRunner(
                evaluate_timeline, vectorize=True, **in_line
            ).run(scenarios)
            assert all("batch_group" in v.cache_stats for v in whole_grid)
            for p, v in zip(per_point, whole_grid):
                assert bits(p.values) == bits(v.values)


def scaled_group():
    """An engine, a template's DAG and a 40-row works matrix for it."""
    from repro.pipeline.schedule import compile_timeline

    sc = Scenario(system="timeline", spec="GPT-S", batch=4096, n=4)
    ctx = shared_context(sc.world_size, scenario_hetero(sc))
    compiled = compile_timeline(4, "S1")
    rng = np.random.default_rng(7)
    base = np.asarray(compiled.dag.works, dtype=np.float64)
    # Scale rows over two decades so several rows force different
    # event orders (replay must segment, never misprice).
    W = base * rng.uniform(0.1, 10.0, size=(40, base.size))
    return ctx.engine, compiled.dag, W


def assert_rows_match_the_scalar_engine(engine, dag, W, spans) -> None:
    for s in range(W.shape[0]):
        expected = engine.compiled_makespan(dag, W[s].tolist())
        assert struct.pack("<d", spans[s]) == struct.pack("<d", expected)


def count_scalar_calls(monkeypatch, engine) -> list:
    """Record every ``engine.compiled_makespan`` call until ``undo``."""
    calls = []
    scalar = engine.compiled_makespan

    def counted(dag, works):
        calls.append(works)
        return scalar(dag, works)

    monkeypatch.setattr(engine, "compiled_makespan", counted)
    return calls


class TestBatchedMakespans:
    def test_every_row_matches_the_scalar_engine(self):
        engine, dag, W = scaled_group()
        spans = batched_makespans(engine, dag, W)
        assert_rows_match_the_scalar_engine(engine, dag, W, spans)

    def test_rows_past_max_schedules_take_the_scalar_path(self, monkeypatch):
        engine, dag, W = scaled_group()
        calls = count_scalar_calls(monkeypatch, engine)
        stats: dict = {}
        spans = batched_makespans(engine, dag, W, max_schedules=1, stats=stats)
        monkeypatch.undo()
        assert stats["schedules"] == 1
        # Every row the one recorded schedule could not replay.
        assert 0 < len(calls) < W.shape[0]
        assert_rows_match_the_scalar_engine(engine, dag, W, spans)

    def test_a_representative_failing_its_own_replay_is_priced_scalar(
        self, monkeypatch
    ):
        engine, dag, W = scaled_group()
        W[0, 0] = np.nan  # replay validates nothing against a NaN work
        calls = count_scalar_calls(monkeypatch, engine)
        spans = batched_makespans(engine, dag, W)
        monkeypatch.undo()
        assert len(calls) == 1 and np.isnan(calls[0][0])  # row 0 only
        assert_rows_match_the_scalar_engine(engine, dag, W, spans)

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

    def test_register_custom_twin(self):
        def probe(sc):  # pragma: no cover - must not run
            raise AssertionError("scalar path taken")

        register_batch_evaluator(probe, lambda scs: [{"x": 0} for _ in scs])
        try:
            results = SweepRunner(probe, vectorize=True).run(grid())
            assert [r.values["x"] for r in results] == [0, 0, 0]
        finally:
            from repro.perfmodel import batcheval

            batcheval._BATCH_EVALUATORS.pop(probe)

    def test_auto_engages_on_large_serial_grids(self):
        scenarios = grid(batches=tuple(range(4096, 4096 + VECTORIZE_MIN_POINTS)))
        results = SweepRunner(evaluate_timeline).run(scenarios)
        # The batched pass reports group-level stats, not memo deltas.
        assert all("batch_group" in r.cache_stats for r in results)

    def test_auto_leaves_remote_runs_to_the_server(self, loopback_server):
        # One worker is the remote default; the points must still reach
        # the server instead of a local whole-grid pass.
        scenarios = grid(batches=tuple(range(4096, 4096 + VECTORIZE_MIN_POINTS)))
        remote = SweepRunner(evaluate_timeline, backend="remote").run(scenarios)
        assert loopback_server.shards_served >= 1
        assert not any("batch_group" in r.cache_stats for r in remote)
        serial = SweepRunner(
            evaluate_timeline, backend="serial", vectorize=False
        ).run(scenarios)
        for r, s in zip(remote, serial):
            assert bits(r.values) == bits(s.values)

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
