"""Algorithm 1: adaptive granularity configuration."""

import pytest

from repro.pipeline.granularity import GranularitySearcher, RangeSet


def is_disjoint_sorted(ranges: RangeSet) -> bool:
    """RangeSet's invariant: sorted by lower bound, pairwise disjoint,
    and no range upside down."""
    spans = list(ranges)
    return all(a[1] < b[0] for a, b in zip(spans, spans[1:])) and all(
        lower <= upper for lower, upper, _ in spans
    )


def step_cost(batch, n):
    """Synthetic cost whose argmin over n grows with batch (monotone)."""
    optimal = 1 if batch < 1000 else 2 if batch < 4000 else 4 if batch < 16000 else 8
    return abs(n - optimal) + 0.001 * batch


class TestRangeSet:
    def test_find_on_empty(self):
        assert RangeSet().find(100) is None

    def test_insert_and_find(self):
        rs = RangeSet()
        rs.insert(100, 2)
        assert rs.find(100) == 2
        assert rs.find(99) is None

    def test_extend_grows_range(self):
        rs = RangeSet()
        rs.insert(100, 2)
        rs.extend(200, 2)
        assert rs.find(150) == 2
        assert rs.range_for(2) == (100, 200)

    def test_extend_clamps_against_neighbor(self):
        rs = RangeSet()
        rs.insert(100, 2)
        rs.insert(500, 4)
        rs.extend(450, 2)  # would overlap n=4's lower bound region
        assert is_disjoint_sorted(rs)
        assert rs.find(500) == 4

    def test_double_insert_same_b_rejected(self):
        rs = RangeSet()
        rs.insert(10, 1)
        with pytest.raises(ValueError):
            rs.insert(10, 2)

    def test_insert_existing_n_rejected(self):
        rs = RangeSet()
        rs.insert(10, 1)
        with pytest.raises(ValueError):
            rs.insert(20, 1)

    def test_extend_unknown_n_rejected(self):
        with pytest.raises(KeyError):
            RangeSet().extend(5, 3)

    def test_iteration_sorted(self):
        rs = RangeSet()
        rs.insert(500, 4)
        rs.insert(10, 1)
        rs.insert(100, 2)
        lowers = [lo for lo, _, _ in rs]
        assert lowers == sorted(lowers)


class TestSearcher:
    def test_matches_exhaustive_search(self):
        s = GranularitySearcher(step_cost, candidates=(1, 2, 4, 8))
        for b in (512, 2048, 8192, 32768):
            expected = min((1, 2, 4, 8), key=lambda n: step_cost(b, n))
            assert s.configure(b) == expected

    def test_cache_table_hit_avoids_trials(self):
        s = GranularitySearcher(step_cost)
        s.configure(2048)
        trials_before = s.stats.trials
        s.configure(2048)
        assert s.stats.trials == trials_before
        assert s.stats.cache_hits == 1

    def test_range_hit_avoids_search(self):
        s = GranularitySearcher(step_cost, candidates=(1, 2, 4, 8))
        s.configure(2000)  # n=2
        s.configure(3000)  # n=2 -> extends range to [2000, 3000]
        searches = s.stats.searches
        s.configure(2500)  # inside the range: no new search
        assert s.stats.searches == searches
        assert s.stats.range_hits >= 1
        assert s.configure(2500) == 2

    def test_ranges_stay_disjoint(self):
        s = GranularitySearcher(step_cost, candidates=(1, 2, 4, 8))
        for b in (100, 500, 1500, 2500, 5000, 10000, 20000, 40000, 800, 3500):
            s.configure(b)
            assert is_disjoint_sorted(s.ranges)

    def test_all_candidates_tried_regardless_of_divisibility(self):
        # The layer pads capacity, so n need not divide B.
        s = GranularitySearcher(lambda b, n: n, candidates=(1, 2, 4))
        assert s.configure(6) == 1
        assert s.stats.trials == 3

    def test_single_candidate(self):
        s = GranularitySearcher(lambda b, n: n, candidates=(4,))
        assert s.configure(7) == 4

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            GranularitySearcher(step_cost, candidates=())
        with pytest.raises(ValueError):
            GranularitySearcher(step_cost, candidates=(0,))
        s = GranularitySearcher(step_cost)
        with pytest.raises(ValueError):
            s.configure(0)

    def test_monotone_hypothesis_result(self):
        """Larger B never maps to smaller n with a monotone cost (Fig. 12)."""
        s = GranularitySearcher(step_cost, candidates=(1, 2, 4, 8))
        batches = [256, 512, 1024, 2048, 4096, 8192, 16384, 32768]
        ns = [s.configure(b) for b in batches]
        assert ns == sorted(ns)
