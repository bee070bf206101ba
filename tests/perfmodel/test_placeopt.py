"""The skew-aware placement optimizer vs. ground-truth enumeration.

The headline property: greedy + local search finds the *exact* optimum
(the exhaustive ``W^E`` score) on every small instance the agreement
sweep covers — skewed loads, heterogeneous device rates, and binding
Eq. 5 memory bounds included.  Both searchers must also never emit an
infeasible placement, and must raise loudly when none exists.

The optimizer re-scores only the ranks a move or swap touches; a
full-rescan reference search (below, test-only) pins that it still
makes every decision the straightforward search makes.
"""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import MOE_GPT3_S
from repro.perfmodel.placeopt import PlacementProblem, optimize_placement
from repro.perfmodel.placement import PlacementSpec
from repro.perfmodel.workload import WorkloadSpec
from repro.sweep import runner as runner_mod
from repro.sweep.grid import Scenario
from tests.oracles import exhaustive_placement

BATCH = 4096


def full_rescan(p: PlacementProblem, assignment) -> tuple[bool, float]:
    """(feasible, score) of an assignment, rescanning every rank."""
    e, w = p.spec.num_experts, p.world_size
    loads, counts = [0.0] * w, [0] * w
    for expert, rank in enumerate(assignment):
        loads[rank] += p.per_expert_rows[expert]
        counts[rank] += 1
    score = 0.0
    for r in range(w):
        if counts[r]:
            score = max(score, e * loads[r] / counts[r] / p.comp_rates[r])
    feasible = max(counts) <= p.rank_cap and (
        p.memory_bytes is None
        or all(p.device_bytes(counts[r], loads[r]) <= p.memory_bytes
               for r in range(w))
    )
    return feasible, score


def reference_placement(p: PlacementProblem, max_rounds: int = 8):
    """Greedy + local search with a full rescan per candidate."""
    e, w = p.spec.num_experts, p.world_size
    rows, rates = p.per_expert_rows, p.comp_rates
    assignment = [None] * e
    for expert in sorted(range(e), key=lambda i: (-rows[i], i)):
        loads, counts = [0.0] * w, [0] * w
        for x, r in enumerate(assignment):
            if r is not None:
                loads[r] += rows[x]
                counts[r] += 1
        best = None
        for rank in range(w):
            load, count = loads[rank] + rows[expert], counts[rank] + 1
            if count > p.rank_cap or (
                p.memory_bytes is not None
                and p.device_bytes(count, load) > p.memory_bytes
            ):
                continue
            score = 0.0
            for r in range(w):
                lr = load if r == rank else loads[r]
                cr = count if r == rank else counts[r]
                if cr:
                    score = max(score, e * lr / cr / rates[r])
            if best is None or (score, -rates[rank], rank) < best:
                best = (score, -rates[rank], rank)
        if best is None:
            raise ValueError(
                "no feasible placement under the per-device memory bound"
            )
        assignment[expert] = best[2]
    current = tuple(assignment)
    current_score = full_rescan(p, current)[1]
    for _ in range(max_rounds):
        improved = False

        def consider(cand):
            nonlocal current, current_score, improved
            feasible, score = full_rescan(p, cand)
            if feasible and score < current_score - 1e-12:
                current, current_score, improved = tuple(cand), score, True

        for x in range(e):
            for r in range(w):
                if r != current[x]:
                    consider(current[:x] + (r,) + current[x + 1:])
        for a in range(e):
            for b in range(a + 1, e):
                if current[a] != current[b]:
                    cand = list(current)
                    cand[a], cand[b] = cand[b], cand[a]
                    consider(cand)
        if not improved:
            break
    return PlacementSpec.explicit(current)


def small_spec(num_experts: int):
    return replace(MOE_GPT3_S, name=f"tiny-E{num_experts}",
                   num_experts=num_experts)


def skewed_rows(num_experts: int, imbalance: float) -> tuple[float, ...]:
    """The two-level skew histogram WorkloadSpec.load uses (hot first)."""
    uniform = BATCH / num_experts
    hot = min(imbalance * uniform, float(BATCH))
    cold = (BATCH - hot) / (num_experts - 1) if num_experts > 1 else hot
    return (hot,) + (cold,) * (num_experts - 1)


def problem(num_experts, world, imbalance=4.0, comp_rates=None,
            memory_bytes=None, max_per_rank=None):
    return PlacementProblem(
        spec=small_spec(num_experts),
        batch=BATCH,
        world_size=world,
        per_expert_rows=skewed_rows(num_experts, imbalance),
        comp_rates=comp_rates or (1.0,) * world,
        memory_bytes=memory_bytes,
        max_per_rank=max_per_rank,
    )


class TestPlacementProblem:
    def test_validation(self):
        with pytest.raises(ValueError, match="need 4 per-expert loads"):
            PlacementProblem(
                spec=small_spec(4), batch=BATCH, world_size=2,
                per_expert_rows=(1.0,), comp_rates=(1.0, 1.0),
            )
        with pytest.raises(ValueError, match="need 2 comp rates"):
            PlacementProblem(
                spec=small_spec(4), batch=BATCH, world_size=2,
                per_expert_rows=skewed_rows(4, 1.0), comp_rates=(1.0,),
            )
        with pytest.raises(ValueError, match="positive"):
            problem(4, 2, comp_rates=(1.0, 0.0))
        with pytest.raises(ValueError, match="cannot host"):
            problem(4, 2, max_per_rank=1)

    def test_score_is_the_rate_weighted_anchored_bottleneck(self):
        p = problem(4, 2, imbalance=1.0, comp_rates=(1.0, 0.5))
        # Uniform rows: every hosting rank anchors to exactly B; the
        # 0.5x rank therefore scores 2B and gates.
        assert p.score((0, 0, 1, 1)) == pytest.approx(BATCH / 0.5)
        # All experts on the healthy rank would score B — but the rank
        # cap (balanced sharding) makes that assignment infeasible.
        assert p.score((0, 0, 0, 0)) == pytest.approx(BATCH)
        assert not p.feasible((0, 0, 0, 0))

    def test_rank_cap_defaults_to_balanced_ceil(self):
        assert problem(5, 3).rank_cap == 2
        assert problem(5, 3, max_per_rank=3).rank_cap == 3

    def test_from_workload_ignores_the_workloads_own_placement(self):
        wl = WorkloadSpec(imbalance=4.0,
                          placement=PlacementSpec.round_robin())
        p = PlacementProblem.from_workload(small_spec(4), wl, 2, BATCH)
        assert p.per_expert_rows == skewed_rows(4, 4.0)

    def test_memory_bound_marks_hot_stacking_infeasible(self):
        p = problem(4, 2, imbalance=4.0)
        hot_stacked = (0, 0, 1, 1)
        # Shrink the budget until the hot rank no longer fits.
        loads = [0.0, 0.0]
        counts = [0, 0]
        for e, r in enumerate(hot_stacked):
            loads[r] += p.per_expert_rows[e]
            counts[r] += 1
        hot_bytes = max(
            p.device_bytes(counts[r], loads[r]) for r in range(2)
        )
        tight = replace(p, memory_bytes=hot_bytes - 1)
        assert p.feasible(hot_stacked)
        assert not tight.feasible(hot_stacked)


class TestAgreementSweep:
    """Greedy + local search == exhaustive optimum for E <= 6, W <= 4."""

    @pytest.mark.parametrize("imbalance", [1.0, 2.0, 4.0, 8.0])
    def test_homogeneous(self, imbalance):
        for e in (2, 3, 4, 6):
            for w in (2, 3, 4):
                p = problem(e, w, imbalance=imbalance)
                got = optimize_placement(p)
                want = exhaustive_placement(p)
                assert p.score(got.assignment) == pytest.approx(
                    p.score(want.assignment), rel=1e-12
                ), (e, w, imbalance)
                assert p.feasible(got.assignment)

    @pytest.mark.parametrize("rates", [
        (1.0, 0.5), (0.5, 1.0), (1.0, 0.7, 0.4), (0.4, 1.0, 1.0, 0.6),
    ])
    def test_heterogeneous_rates(self, rates):
        w = len(rates)
        for e in (2, 4, 6):
            for imbalance in (1.0, 4.0):
                p = problem(e, w, imbalance=imbalance, comp_rates=rates)
                got = optimize_placement(p)
                want = exhaustive_placement(p)
                assert p.score(got.assignment) == pytest.approx(
                    p.score(want.assignment), rel=1e-12
                ), (e, w, imbalance, rates)

    def test_under_a_binding_memory_bound(self):
        p = problem(4, 4, imbalance=8.0, comp_rates=(1.0, 1.0, 0.5, 1.0))
        # The loosest budget that still admits a balanced assignment.
        per_rows = p.per_expert_rows
        budget = p.device_bytes(1, max(per_rows))
        tight = replace(p, memory_bytes=budget)
        got = optimize_placement(tight)
        want = exhaustive_placement(tight)
        assert tight.feasible(got.assignment)
        assert tight.score(got.assignment) == pytest.approx(
            tight.score(want.assignment), rel=1e-12
        )

    def test_optimum_routes_heat_away_from_the_straggler(self):
        # One 0.5x rank, strong skew: the hot expert must not land there.
        p = problem(4, 4, imbalance=8.0, comp_rates=(0.5, 1.0, 1.0, 1.0))
        spec = optimize_placement(p)
        assert spec.assignment[0] != 0


class TestEmittedPlacements:
    def test_explicit_and_feasible(self):
        p = problem(6, 3, imbalance=4.0)
        for searcher in (optimize_placement, exhaustive_placement):
            spec = searcher(p)
            assert spec.strategy == "explicit"
            assert p.feasible(spec.assignment)
            # Eq. 5 holds on every device of the emitted placement.
            loads = [0.0] * 3
            counts = [0] * 3
            for e, r in enumerate(spec.assignment):
                loads[r] += p.per_expert_rows[e]
                counts[r] += 1
            for r in range(3):
                assert counts[r] <= p.rank_cap

    def test_infeasible_instances_raise(self):
        starved = problem(4, 2, memory_bytes=1)
        with pytest.raises(ValueError, match="no feasible placement"):
            optimize_placement(starved)
        with pytest.raises(ValueError, match="no feasible placement"):
            exhaustive_placement(starved)

    def test_exhaustive_refuses_intractable_instances(self):
        p = problem(64, 4)
        with pytest.raises(ValueError, match="intractable"):
            exhaustive_placement(p)

    def test_deterministic(self):
        p = problem(6, 4, imbalance=4.0, comp_rates=(1.0, 0.6, 1.0, 0.8))
        assert optimize_placement(p) == optimize_placement(p)
        assert exhaustive_placement(p) == exhaustive_placement(p)


@st.composite
def placement_problems(draw):
    """E <= 16, W <= 8, free per-expert rows (tied values included),
    hetero rates, optional count caps, and unbounded, binding or
    starved Eq. 5 budgets."""
    e = draw(st.integers(1, 16))
    w = draw(st.integers(1, 8))
    # 2**53 next to 1.0 makes a rank's load depend on summation order.
    rows = draw(st.lists(
        st.floats(0.0, 1e5)
        | st.sampled_from((0.0, 1.0, 256.0, 1024.0, 2.0**53)),
        min_size=e, max_size=e,
    ))
    rates = draw(st.lists(
        st.floats(0.05, 2.0) | st.sampled_from((0.5, 1.0)),
        min_size=w, max_size=w,
    ))
    p = PlacementProblem(
        spec=small_spec(e), batch=BATCH, world_size=w,
        per_expert_rows=tuple(rows), comp_rates=tuple(rates),
        max_per_rank=draw(st.none() | st.integers(-(-e // w), e)),
    )
    budget = draw(st.sampled_from(("unbounded", "binding", "starved")))
    if budget == "binding":
        # Exactly the worst device of a random witness assignment.
        witness = draw(st.lists(
            st.integers(0, w - 1), min_size=e, max_size=e
        ))
        loads, counts = p.rank_totals(witness)
        p = replace(p, memory_bytes=max(
            p.device_bytes(c, load) for c, load in zip(counts, loads)
        ))
    elif budget == "starved":
        p = replace(
            p, memory_bytes=draw(st.integers(1, p.device_bytes(1, 0.0)))
        )
    return p


def _outcome(searcher, p):
    try:
        return searcher(p)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestIncrementalScoring:
    """The two-rank rescoring decides exactly as a full rescan does."""

    @settings(max_examples=150, deadline=None)
    @given(placement_problems())
    @example(PlacementProblem(
        # Greedy onto the bottleneck rank itself: its own old term must
        # not stand in for "the other ranks" (shrunk counterexample).
        spec=small_spec(5), batch=BATCH, world_size=2,
        per_expert_rows=(0.0, 0.0, 0.0, 547.0, 1366.0),
        comp_rates=(1.0, 0.5), memory_bytes=377_671_680,
    ))
    def test_matches_the_full_rescan_search(self, p):
        assert _outcome(optimize_placement, p) == _outcome(
            reference_placement, p
        )

    @settings(max_examples=100, deadline=None)
    @given(placement_problems(), st.data())
    def test_score_and_feasible_match_a_full_rescan(self, p, data):
        assignment = tuple(data.draw(st.lists(
            st.integers(0, p.world_size - 1),
            min_size=p.spec.num_experts, max_size=p.spec.num_experts,
        )))
        assert (p.feasible(assignment), p.score(assignment)) == full_rescan(
            p, assignment
        )

    def test_post_condition_rejects_a_disagreeing_rescan(self, monkeypatch):
        p = problem(6, 3, imbalance=4.0)
        rescan = PlacementProblem.score
        monkeypatch.setattr(
            PlacementProblem, "score", lambda self, a: rescan(self, a) + 1.0
        )
        with pytest.raises(RuntimeError, match="full rescan"):
            optimize_placement(p)


#: ``placement="optimized"`` at the straggler gate geometry (GPT-XL x 64
#: GPUs, B=24576, severity 0.5), pinned from the full-rescan search:
#: healthy ranks take the experts in order, slow ranks the coldest.
GATE_ASSIGNMENTS = {
    "single-slow-gpu": tuple(range(1, 64)) + (0,),
    "slow-node": tuple(range(8, 64)) + tuple(range(8)),
    "degraded-link": tuple(range(64)),
    "two-slow-gpus": tuple(range(1, 32)) + tuple(range(33, 64)) + (0, 32),
}


@pytest.mark.parametrize("imbalance", [2.0, 4.0])
@pytest.mark.parametrize("straggler", sorted(GATE_ASSIGNMENTS))
def test_golden_gate_assignments(monkeypatch, straggler, imbalance):
    monkeypatch.setattr(runner_mod, "_CONTEXTS", {})
    scenario = Scenario(
        system="mpipemoe", spec="GPT-XL", world_size=64, batch=24576,
        imbalance=imbalance, straggler=straggler, severity=0.5,
        placement="optimized",
    )
    placed = runner_mod.scenario_workload(scenario).placement
    assert placed.assignment == GATE_ASSIGNMENTS[straggler]
