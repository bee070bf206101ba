"""Hypothesis properties of the pipelined memory-reusing executor.

For random (world, experts_per_rank, capacity, n, strategy) draws:

* forward and backward outputs agree with :func:`reference_middle` /
  the n=1 "none" engine to 1e-10 (cross-granularity GEMMs split the
  row dimension, so BLAS kernel selection can differ in the last ulp —
  exact equality across *different* n is not a property of float matmul);
* every reuse strategy is **bit-for-bit** identical to the "none"
  baseline at the *same* n: restoration (offload fetch, re-communication,
  recompute) must reproduce the overwritten activations exactly, so
  forward output, input gradients and parameter gradients all match with
  ``==``;
* the :class:`CachingAllocator` peak saving achieved by reuse does not
  fall short of the Eq. 5 bound (within allocator-granularity slack),
  and reuse never *increases* the peak.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MoELayerSpec
from repro.core.experts import ExpertFFN
from repro.memory.footprint import reuse_savings_elems
from repro.memory.host_pool import HostBufferPool
from repro.pipeline.executor import PipelinedMoEMiddle
from repro.sim.memory_allocator import CachingAllocator
from tests.oracles import reference_middle

REUSE_STRATEGIES = ("S1", "S2", "S3", "S4")

draws = dict(
    world=st.integers(1, 3),
    eper=st.integers(1, 2),
    m=st.integers(3, 8),
    h=st.integers(4, 16),
    n=st.sampled_from([2, 4]),
    chunk=st.integers(1, 3),
    strategy=st.sampled_from(REUSE_STRATEGIES),
    seed=st.integers(0, 2**16),
)


def make_experts(world, eper, m, h, seed):
    return [
        [ExpertFFN(m, h, activation="gelu", seed=seed + r * 10 + e)
         for e in range(eper)]
        for r in range(world)
    ]


def run(experts, ti, dto, n, strategy, meter=None):
    engine = PipelinedMoEMiddle(
        experts, n, strategy, meter=meter, host_pool=HostBufferPool()
    )
    out = engine.forward(ti.copy())
    dti = engine.backward(dto.copy())
    grads = [
        [(e.w1.grad.copy(), e.b1.grad.copy(), e.w2.grad.copy(), e.b2.grad.copy())
         for e in row]
        for row in experts
    ]
    return out, dti, grads


@given(**draws)
@settings(max_examples=25, deadline=None)
def test_matches_reference_and_n1_gradients(world, eper, m, h, n, chunk,
                                            strategy, seed):
    capacity = n * chunk
    rng = np.random.default_rng(seed)
    ti = rng.standard_normal((world, world, eper, capacity, m))
    dto = rng.standard_normal(ti.shape)

    ref_experts = make_experts(world, eper, m, h, seed)
    ref_out = reference_middle(ti.copy(), ref_experts)
    _, ref_dti, ref_grads = run(ref_experts, ti, dto, 1, "none")

    experts = make_experts(world, eper, m, h, seed)
    out, dti, grads = run(experts, ti, dto, n, strategy)

    np.testing.assert_allclose(out, ref_out, atol=1e-10)
    np.testing.assert_allclose(dti, ref_dti, atol=1e-10)
    for row, ref_row in zip(grads, ref_grads):
        for g, ref_g in zip(row, ref_row):
            for a, b in zip(g, ref_g):
                np.testing.assert_allclose(a, b, atol=1e-10)


@given(**draws)
@settings(max_examples=25, deadline=None)
def test_restoration_is_bitwise_at_same_granularity(world, eper, m, h, n,
                                                    chunk, strategy, seed):
    capacity = n * chunk
    rng = np.random.default_rng(seed)
    ti = rng.standard_normal((world, world, eper, capacity, m))
    dto = rng.standard_normal(ti.shape)

    base_experts = make_experts(world, eper, m, h, seed)
    base_out, base_dti, base_grads = run(base_experts, ti, dto, n, "none")

    experts = make_experts(world, eper, m, h, seed)
    out, dti, grads = run(experts, ti, dto, n, strategy)

    np.testing.assert_array_equal(out, base_out)
    np.testing.assert_array_equal(dti, base_dti)
    for row, base_row in zip(grads, base_grads):
        for g, base_g in zip(row, base_row):
            for a, b in zip(g, base_g):
                np.testing.assert_array_equal(a, b)


@given(**draws)
@settings(max_examples=25, deadline=None)
def test_allocator_peak_respects_eq5_bound(world, eper, m, h, n, chunk,
                                           strategy, seed):
    capacity = n * chunk
    rng = np.random.default_rng(seed)
    ti = rng.standard_normal((world, world, eper, capacity, m))
    dto = rng.standard_normal(ti.shape)

    meter_none = CachingAllocator()
    run(make_experts(world, eper, m, h, seed), ti, dto, n, "none",
        meter=meter_none)
    meter_reuse = CachingAllocator()
    run(make_experts(world, eper, m, h, seed), ti, dto, n, strategy,
        meter=meter_reuse)

    peak_none = meter_none.peak_reserved_bytes
    peak_reuse = meter_reuse.peak_reserved_bytes
    assert peak_reuse <= peak_none

    # Eq. 5 predicts the elements saved in each of activations and temp
    # buffers; the meter sees rank 0's device, whose row count is
    # world * eper * capacity.  Allocator blocks round to 512 bytes, so
    # grant each saved ring slot one granule of slack.
    rows = world * eper * capacity
    spec = MoELayerSpec("probe", d_model=m, d_hidden=h)
    predicted = 2 * reuse_savings_elems(spec, rows, n) * ti.itemsize
    slack = 512 * 2 * (2 + 2 + 1)  # fw + bw ring slots (2 tdi, 2 tdo, 1 tm)
    assert peak_none - peak_reuse >= predicted - slack
