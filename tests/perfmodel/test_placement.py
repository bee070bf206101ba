"""Unit tests for the expert→rank placement substrate.

:class:`ExpertPlacement` is the resolved map (plus the optional
FasterMoE-style shadow replica); :class:`PlacementSpec` is the
strategy-level description that rides workloads and keys.  The load
projection's conservation law — ``sum(rank_loads(x)) == sum(x)`` for
every placement — is what the property suite leans on, so it is pinned
here at the unit level too.
"""

import pytest

from repro.perfmodel.placement import (
    PLACEMENT_AXIS_VALUES,
    PLACEMENT_STRATEGIES,
    ExpertPlacement,
    PlacementSpec,
    contiguous_assignment,
    round_robin_assignment,
)


class TestAssignments:
    def test_contiguous_matches_ceil_sharding(self):
        # E=8, W=4: two experts per rank, expert 0 on rank 0.
        assert contiguous_assignment(8, 4) == (0, 0, 1, 1, 2, 2, 3, 3)

    def test_contiguous_uneven_geometry(self):
        # E=5, W=3: ceil(5/3)=2 per rank; the last rank takes the remainder.
        assert contiguous_assignment(5, 3) == (0, 0, 1, 1, 2)

    def test_contiguous_more_ranks_than_experts(self):
        # W > E: one expert per rank, the tail ranks stay empty.
        assert contiguous_assignment(3, 8) == (0, 1, 2)

    def test_round_robin_wraps(self):
        assert round_robin_assignment(5, 3) == (0, 1, 2, 0, 1)


class TestExpertPlacement:
    def test_validation(self):
        with pytest.raises(ValueError, match="3 entries for 2 experts"):
            ExpertPlacement(2, 2, (0, 1, 0))
        with pytest.raises(ValueError, match="outside"):
            ExpertPlacement(2, 2, (0, 2))
        with pytest.raises(ValueError, match="shadow expert"):
            ExpertPlacement(2, 2, (0, 1), shadow=(5, 0))
        with pytest.raises(ValueError, match="different rank"):
            ExpertPlacement(2, 2, (0, 1), shadow=(0, 0))

    def test_counts_include_the_shadow_replica(self):
        p = ExpertPlacement(4, 2, (0, 0, 1, 1), shadow=(0, 1))
        # The replica stores a full expert copy: Eq. 1 must see it.
        assert p.counts() == (2, 3)
        assert p.max_experts_per_rank == 3

    def test_rank_loads_conserve_rows(self):
        p = ExpertPlacement(5, 3, (0, 2, 2, 1, 0))
        loads = p.rank_loads((10.0, 1.0, 2.0, 3.0, 4.0))
        assert loads == (14.0, 3.0, 3.0)
        assert sum(loads) == 20.0

    def test_shadow_splits_the_hot_rows_evenly(self):
        p = ExpertPlacement(4, 2, (0, 0, 1, 1), shadow=(0, 1))
        loads = p.rank_loads((10.0, 2.0, 1.0, 1.0))
        assert loads == (7.0, 7.0)
        assert sum(loads) == 14.0

    def test_rank_loads_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="expected 4"):
            ExpertPlacement.contiguous(4, 2).rank_loads((1.0, 2.0))

    def test_shadowed_picks_the_least_loaded_other_rank(self):
        # E=5, W=3 contiguous: counts (2, 2, 1) — rank 2 is lightest.
        p = ExpertPlacement.shadowed(5, 3)
        assert p.shadow == (0, 2)
        # Balanced counts tie-break on the highest rank index.
        assert ExpertPlacement.shadowed(4, 2).shadow == (0, 1)

    def test_shadowed_needs_two_ranks(self):
        with pytest.raises(ValueError, match="two ranks"):
            ExpertPlacement.shadowed(4, 1)


class TestPlacementSpec:
    def test_axis_values_are_strategies(self):
        assert set(PLACEMENT_AXIS_VALUES) < set(PLACEMENT_STRATEGIES)
        assert "explicit" not in PLACEMENT_AXIS_VALUES

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown placement strategy"):
            PlacementSpec("spiral")
        with pytest.raises(ValueError, match="needs an assignment"):
            PlacementSpec("explicit")
        with pytest.raises(ValueError, match="only applies to strategy='explicit'"):
            PlacementSpec("round_robin", assignment=(0, 1))
        with pytest.raises(ValueError, match="shadow_rank only applies"):
            PlacementSpec("round_robin", shadow_rank=1)
        with pytest.raises(ValueError, match=">= 0"):
            PlacementSpec("shadowed", shadow_rank=-1)

    def test_is_default_only_for_plain_contiguous(self):
        assert PlacementSpec().is_default
        assert PlacementSpec.contiguous().is_default
        assert not PlacementSpec.round_robin().is_default
        assert not PlacementSpec.shadowed().is_default
        assert not PlacementSpec.explicit((0, 1)).is_default

    def test_resolve_each_strategy(self):
        assert PlacementSpec.contiguous().resolve(8, 4) == \
            ExpertPlacement.contiguous(8, 4)
        assert PlacementSpec.round_robin().resolve(8, 4) == \
            ExpertPlacement.round_robin(8, 4)
        assert PlacementSpec.shadowed().resolve(8, 4) == \
            ExpertPlacement.shadowed(8, 4)
        assert PlacementSpec.shadowed(shadow_rank=2).resolve(8, 4).shadow == (0, 2)
        explicit = PlacementSpec.explicit((0, 1), shadow_rank=1)
        assert explicit.resolve(2, 2) == \
            ExpertPlacement(2, 2, (0, 1), shadow=(0, 1))

    def test_optimized_must_be_lowered_first(self):
        with pytest.raises(ValueError, match="optimize_placement"):
            PlacementSpec("optimized").resolve(8, 4)

    def test_explicit_assignment_is_normalized_to_a_tuple(self):
        spec = PlacementSpec.explicit([1, 0, 1])
        assert spec.assignment == (1, 0, 1)
        assert hash(spec)  # frozen + hashable: it rides memo keys

    def test_label(self):
        assert PlacementSpec.round_robin().label() == "round_robin"
        assert PlacementSpec.shadowed(shadow_rank=3).label() == \
            "shadowed+shadow@3"
