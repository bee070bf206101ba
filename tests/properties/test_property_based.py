"""Hypothesis property tests on the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.comm import ProcessGroup, all_to_all_single, all_reduce
from repro.config import MoELayerSpec
from repro.core.dispatch import plan_dispatch, positions_within_expert
from repro.core.gating import GateDecision
from repro.memory.footprint import (
    activations_elems,
    memory_saving_ratio,
    reuse_savings_elems,
)
from repro.pipeline.granularity import GranularitySearcher, RangeSet
from repro.sim.memory_allocator import CachingAllocator
from repro.tensor import Tensor
from repro.tensor import functional as F
from tests.pipeline.test_granularity import is_disjoint_sorted

# ---------------------------------------------------------------- collectives


@given(
    world=st.integers(1, 6),
    chunk=st.integers(1, 5),
    feat=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_alltoall_is_involution(world, chunk, feat, seed):
    group = ProcessGroup(world)
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal((world, chunk, feat)) for _ in range(world)]
    back = all_to_all_single(group, all_to_all_single(group, inputs))
    for a, b in zip(inputs, back):
        np.testing.assert_array_equal(a, b)


@given(
    world=st.integers(1, 6),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_allreduce_invariant_under_rank_permutation(world, n, seed):
    group = ProcessGroup(world)
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal(n) for _ in range(world)]
    ref = all_reduce(group, inputs)[0]
    perm = rng.permutation(world)
    out = all_reduce(group, [inputs[i] for i in perm])[0]
    np.testing.assert_allclose(ref, out, atol=1e-12)


# ------------------------------------------------------------------- dispatch


@given(
    batch=st.integers(1, 60),
    experts=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_positions_are_first_come_first_served(batch, experts, seed):
    rng = np.random.default_rng(seed)
    flat = rng.integers(0, experts, size=batch)
    pos = positions_within_expert(flat, experts)
    for e in range(experts):
        mine = pos[flat == e]
        np.testing.assert_array_equal(np.sort(mine), np.arange(mine.size))
        # Stability: positions increase with arrival order.
        np.testing.assert_array_equal(mine, np.sort(mine))


@given(
    batch=st.integers(1, 50),
    experts=st.integers(1, 6),
    capacity=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_plan_slots_unique_and_bounded(batch, experts, capacity, seed):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, experts, size=(batch, 1))
    decision = GateDecision(
        expert_indices=idx,
        gate_probs=Tensor(np.ones((batch, 1))),
        aux_loss=Tensor(np.array(0.0)),
    )
    plan = plan_dispatch(decision, experts, capacity)
    assert plan.token_ids.size + plan.dropped == batch
    assert len(set(plan.slots.tolist())) == plan.slots.size
    if plan.slots.size:
        assert plan.slots.max() < experts * capacity
        assert plan.slots.min() >= 0
    # Per-expert kept counts never exceed capacity.
    kept_experts = idx.reshape(-1)[plan.token_ids]
    for e in range(experts):
        assert (kept_experts == e).sum() <= capacity


# ------------------------------------------------------------------ allocator


@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(1, 1 << 16)), min_size=1, max_size=60
    )
)
@settings(max_examples=60, deadline=None)
def test_allocator_invariants(ops):
    alloc = CachingAllocator()
    live = []
    for is_alloc, size in ops:
        if is_alloc or not live:
            live.append(alloc.allocate(size))
        else:
            alloc.free(live.pop(0))
        # Invariants after every operation:
        assert 0 <= alloc.allocated_bytes <= alloc.reserved_bytes
        assert alloc.peak_allocated_bytes >= alloc.allocated_bytes
        assert alloc.peak_reserved_bytes >= alloc.reserved_bytes
        assert alloc.allocated_bytes % 512 == 0


@given(
    sizes=st.lists(st.integers(1, 1 << 14), min_size=1, max_size=30),
)
@settings(max_examples=40, deadline=None)
def test_allocator_alloc_free_cycle_reuses(sizes):
    """Repeating an identical alloc/free sequence must not grow reserved."""
    alloc = CachingAllocator()

    def one_round():
        handles = [alloc.allocate(s) for s in sizes]
        for h in handles:
            alloc.free(h)

    one_round()
    reserved_after_first = alloc.reserved_bytes
    one_round()
    assert alloc.reserved_bytes == reserved_after_first


# ----------------------------------------------------------------- footprints


@given(
    m=st.integers(8, 512),
    h_mult=st.integers(1, 8),
    batch=st.integers(1, 1 << 15),
    n=st.integers(2, 64),
)
@settings(max_examples=80, deadline=None)
def test_reuse_savings_bounded_by_activations(m, h_mult, batch, n):
    spec = MoELayerSpec("p", d_model=m, d_hidden=m * h_mult, num_experts=8)
    saved = reuse_savings_elems(spec, batch, n)
    assert 0 <= saved < activations_elems(spec, batch)
    assert 0.0 <= memory_saving_ratio(spec, batch, n) < 1.0


@given(
    m=st.integers(8, 256),
    batch=st.integers(64, 1 << 14),
    n1=st.integers(2, 16),
    n2=st.integers(2, 16),
)
@settings(max_examples=60, deadline=None)
def test_savings_monotone_in_n(m, batch, n1, n2):
    assume(n1 < n2)
    spec = MoELayerSpec("p", d_model=m, d_hidden=4 * m, num_experts=8)
    assert reuse_savings_elems(spec, batch, n1) <= reuse_savings_elems(spec, batch, n2)


# --------------------------------------------------------------- range set


@given(
    queries=st.lists(st.integers(1, 100_000), min_size=1, max_size=50),
    thresholds=st.lists(st.integers(2, 99_999), min_size=1, max_size=4, unique=True),
)
@settings(max_examples=60, deadline=None)
def test_algorithm1_equals_exhaustive_under_monotone_cost(queries, thresholds):
    """For any monotone step cost, Algorithm 1 always returns the argmin."""
    bounds = sorted(thresholds)
    candidates = (1, 2, 4, 8, 16)

    def optimal_n(batch):
        level = sum(batch >= t for t in bounds)
        return candidates[min(level, len(candidates) - 1)]

    def cost(batch, n):
        return abs(n - optimal_n(batch))

    searcher = GranularitySearcher(cost, candidates=candidates)
    for b in queries:
        got = searcher.configure(b)
        best = min(candidates, key=lambda n: cost(b, n))
        assert cost(b, got) == cost(b, best)
        assert is_disjoint_sorted(searcher.ranges)


@given(
    inserts=st.lists(
        st.tuples(st.integers(0, 1000), st.integers(1, 10)),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_rangeset_stays_disjoint_sorted(inserts):
    rs = RangeSet()
    for b, n in inserts:
        if rs.find(b) is not None:
            continue
        if rs.range_for(n) is None:
            rs.insert(b, n)
        else:
            rs.extend(b, n)
        assert is_disjoint_sorted(rs)


# -------------------------------------------------------------------- tensor


@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_softmax_rows_normalised(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((rows, cols)) * 10)
    s = F.softmax(x, axis=-1).data
    np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)
    assert (s >= 0).all()


@given(
    n=st.integers(1, 20),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_scatter_take_roundtrip_property(n, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, 3))
    target = rng.permutation(2 * n)[:n]
    scattered = F.scatter_rows(Tensor(rows), target, 2 * n)
    back = F.take_rows(scattered, target)
    np.testing.assert_array_equal(back.data, rows)
