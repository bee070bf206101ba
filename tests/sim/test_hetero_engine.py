"""Engine rate profiles, and the degenerate-hetero fast path.

Two contracts:

* the *unit* profile (what a ``HeteroClusterSpec`` with all-identical
  devices gives every rank) must be byte-identical to the homogeneous
  engine — same golden traces, same makespans — across all four modes
  (recorded, records-free, compiled, reference);
* any other profile slows exactly the stream kinds it names, in every
  mode, and the fast path still agrees with the reference engine.
"""

import pytest

from repro.hardware.hetero import (
    UNIT_RATES,
    DeviceRates,
    HeteroClusterSpec,
    StragglerModel,
)
from repro.hardware.interference import InterferenceModel, StreamKind
from repro.sim.engine import Op, SimEngine, compile_dag
from tests.oracles import ColdEvaluator, ReferenceSimEngine

from .golden_dags import exact_dag, interference_timeline
from .test_golden_trace import (
    EXACT_GOLDEN,
    EXACT_MAKESPAN,
    INTERFERENCE_GOLDEN,
    INTERFERENCE_MAKESPAN,
    NO_INTERFERENCE,
    trace_of,
)

#: The profile every rank of a HeteroClusterSpec with all-identical
#: devices runs at — what SystemContext would install for a degenerate
#: spec.
DEGENERATE_PROFILE = HeteroClusterSpec().rank_profiles()[0]


class TestDegenerateHeteroFastPath:
    """All-identical devices => byte-identical to the homogeneous engine."""

    def test_degenerate_spec_runs_at_the_unit_profile(self):
        assert set(HeteroClusterSpec().rank_profiles()) == {UNIT_RATES}
        assert DEGENERATE_PROFILE.is_unit
        assert SimEngine().rates == ReferenceSimEngine().rates == UNIT_RATES
        for interference in (NO_INTERFERENCE, None):
            assert (
                SimEngine(interference, DEGENERATE_PROFILE)._flat_rates
                == SimEngine(interference)._flat_rates
            )

    def test_recorded_mode_golden_traces(self):
        res = SimEngine(NO_INTERFERENCE, DEGENERATE_PROFILE).run(exact_dag())
        assert res.makespan == EXACT_MAKESPAN
        assert trace_of(res) == EXACT_GOLDEN
        res = SimEngine(rates=DEGENERATE_PROFILE).run(interference_timeline())
        assert res.makespan == SimEngine().run(interference_timeline()).makespan
        assert trace_of(res) == trace_of(SimEngine().run(interference_timeline()))

    def test_reference_mode_golden_trace(self):
        res = ReferenceSimEngine(NO_INTERFERENCE, DEGENERATE_PROFILE).run(exact_dag())
        assert res.makespan == EXACT_MAKESPAN
        assert trace_of(res) == EXACT_GOLDEN

    def test_all_four_modes_bit_identical_to_homogeneous(self):
        """recorded / records-free / compiled / reference, both DAGs."""
        for build, interference in (
            (exact_dag, NO_INTERFERENCE),
            (interference_timeline, None),
        ):
            plain_fast = SimEngine(interference)
            plain_ref = ReferenceSimEngine(interference)
            hetero_fast = SimEngine(interference, DEGENERATE_PROFILE)
            hetero_ref = ReferenceSimEngine(interference, DEGENERATE_PROFILE)
            assert (
                hetero_fast.run(build()).makespan
                == plain_fast.run(build()).makespan
            )
            assert (
                hetero_fast.run(build(), record=False).makespan
                == plain_fast.run(build(), record=False).makespan
            )
            assert hetero_fast.compiled_makespan(
                compile_dag(build())
            ) == plain_fast.compiled_makespan(compile_dag(build()))
            assert (
                hetero_ref.run(build()).records == plain_ref.run(build()).records
            )
            assert (
                hetero_fast.run(build()).records == plain_fast.run(build()).records
            )


def two_device_chain():
    """One comp op per device, independent — slowdowns isolate cleanly."""
    a = Op("a", 0, StreamKind.COMP, 1.0)
    b = Op("b", 1, StreamKind.COMP, 1.0)
    return [a, b]


class TestPerDeviceRates:
    def test_straggler_device_runs_at_its_multiplier(self):
        """A straggler rank's profile from its spec slows the comp ops it
        runs; a healthy rank's profile leaves them at nominal time."""
        spec = StragglerModel("single-slow-gpu", severity=0.5, target=1).build()
        straggler, healthy = spec.rank_profiles()[1], spec.rank_profiles()[0]
        res = SimEngine(NO_INTERFERENCE, straggler).run(two_device_chain())
        assert trace_of(res)[("b", 1)] == (0.0, 2.0)  # 0.5x comp => twice
        assert res.makespan == 2.0
        res = SimEngine(NO_INTERFERENCE, healthy).run(two_device_chain())
        assert trace_of(res)[("b", 1)] == (0.0, 1.0)
        assert res.makespan == 1.0

    def test_faster_than_nominal_profile_shortens_ops(self):
        fast = DeviceRates(comp=2.0, mem=4.0)
        ops = [
            Op("comp", 0, StreamKind.COMP, 1.0),
            Op("copy", 0, StreamKind.MEM, 1.0),
        ]
        for engine in (SimEngine, ReferenceSimEngine):
            got = trace_of(engine(NO_INTERFERENCE, fast).run(ops))
            assert got[("comp", 0)] == (0.0, 0.5), engine
            assert got[("copy", 0)] == (0.0, 0.25), engine

    def test_kind_selectivity(self):
        """Only the throttled stream kind slows, on every device."""
        ops = [
            Op("comp", 0, StreamKind.COMP, 1.0),
            Op("comm", 0, StreamKind.COMM, 1.0),
            Op("comm1", 1, StreamKind.COMM, 1.0),
        ]
        got = trace_of(SimEngine(NO_INTERFERENCE, DeviceRates(comm=0.25)).run(ops))
        assert got[("comp", 0)] == (0.0, 1.0)
        assert got[("comm", 0)] == (0.0, 4.0)
        assert got[("comm1", 1)] == (0.0, 4.0)

    def test_default_profile_applies_to_every_device(self):
        res = SimEngine(NO_INTERFERENCE, DeviceRates(comp=0.5)).run(two_device_chain())
        assert res.makespan == 2.0
        assert trace_of(res)[("a", 0)] == (0.0, 2.0)
        assert trace_of(res)[("b", 1)] == (0.0, 2.0)

    def test_all_modes_agree_under_hetero_rates(self):
        """recorded == records-free == compiled == reference with skew,
        on the full interference timeline running on a slowed device."""
        profile = DeviceRates(comp=0.5, mem=0.8)
        fast = SimEngine(rates=profile)
        ref = ReferenceSimEngine(rates=profile)
        ops = interference_timeline
        recorded = fast.run(ops()).makespan
        assert fast.run(ops(), record=False).makespan == recorded
        assert fast.compiled_makespan(compile_dag(ops())) == recorded
        assert ref.run(ops()).makespan == pytest.approx(recorded, rel=1e-12)
        # And the skew actually bites: slower than the homogeneous run.
        assert recorded > SimEngine().run(ops()).makespan

    def test_interference_composes_with_device_multiplier(self):
        """Rate = interference slowdown x profile multiplier."""
        interference = InterferenceModel()
        ops = [
            Op("comp", 0, StreamKind.COMP, 1.0),
            Op("comm", 0, StreamKind.COMM, 0.72),
        ]
        got = trace_of(SimEngine(interference, DeviceRates(comm=0.5)).run(ops))
        # comm runs at mu_comp * 0.5 = 0.36 while comp is active; comp
        # finishes at ~1.0 (sigma=0.96 slowdown -> 1/0.96), after which
        # comm continues at 0.5.
        comp_end = got[("comp", 0)][1]
        assert comp_end == pytest.approx(1.0 / 0.96)
        done_during = comp_end * 0.72 * 0.5
        remaining = (0.72 - done_during) / 0.5
        assert got[("comm", 0)][1] == pytest.approx(comp_end + remaining)

    def test_random_hetero_dags_fast_matches_reference(self):
        import random

        rng = random.Random(13)
        kinds = list(StreamKind)
        profiles = (DeviceRates(comp=0.5), DeviceRates(comm=0.7, mem=0.9))
        for trial in range(4):
            profile = profiles[trial % 2]
            ops, layers = [], []
            for layer in range(4):
                row = []
                for k in range(rng.randint(2, 5)):
                    deps = ()
                    if layers:
                        pool = layers[-1]
                        deps = tuple(
                            rng.sample(pool, rng.randint(0, min(2, len(pool))))
                        )
                    row.append(
                        Op(
                            f"t{trial}l{layer}k{k}",
                            rng.randrange(3),
                            rng.choice(kinds),
                            rng.choice([0.0, 0.25, 0.5, 1.0, 3.0]),
                            deps,
                        )
                    )
                ops += row
                layers.append(row)
            fast = SimEngine(rates=profile).run(ops)
            ref = ReferenceSimEngine(rates=profile).run(ops)
            assert fast.makespan == pytest.approx(ref.makespan, rel=1e-9)
            ref_trace = trace_of(ref)
            for key, (start, end) in trace_of(fast).items():
                assert start == pytest.approx(ref_trace[key][0], rel=1e-9, abs=1e-12)
                assert end == pytest.approx(ref_trace[key][1], rel=1e-9, abs=1e-12)


class TestContextLevelDegeneracy:
    """A SystemContext with an all-identical HeteroClusterSpec reproduces
    the homogeneous evaluation bit for bit in every engine mode."""

    def test_evaluator_paths_identical(self):
        from repro.config import get_preset
        from repro.systems.base import SystemContext

        degenerate = StragglerModel("uniform").build()
        plain = SystemContext(world_size=16)
        hetero = SystemContext(world_size=16, hetero=degenerate)
        assert hetero.sim_profiles == ()
        spec = get_preset("GPT-S")
        for strategy in ("none", "S2"):
            warm_p = plain.evaluator.makespan(spec, 8192, 4, strategy)
            warm_h = hetero.evaluator.makespan(spec, 8192, 4, strategy)
            assert warm_p == warm_h
            sim_p = plain.evaluator.simulate(spec, 8192, 4, strategy)
            sim_h = hetero.evaluator.simulate(spec, 8192, 4, strategy)
            assert sim_p.makespan == sim_h.makespan
            assert sim_p.records == sim_h.records
        # Cold (disabled-evaluator) path too.
        plain.evaluator = ColdEvaluator(plain)
        hetero.evaluator = ColdEvaluator(hetero)
        assert plain.evaluator.simulate(spec, 8192, 4, "S1").records == (
            hetero.evaluator.simulate(spec, 8192, 4, "S1").records
        )
