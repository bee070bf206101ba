"""The pipelined middle engine: numerical equivalence for every
(n, strategy) combination, restoration correctness, metering hooks."""

import numpy as np
import pytest

from repro.core.experts import ExpertFFN
from repro.memory.host_pool import HostBufferPool
from repro.pipeline.executor import (
    MiddleContext,
    PipelinedMoEMiddle,
    middle_autograd,
)
from repro.sim.memory_allocator import CachingAllocator
from repro.tensor import Tensor
from tests.memory.test_buffer_pool import distinct_slots
from tests.oracles import reference_middle

W, EPER, C, M, H = 3, 2, 8, 5, 7


@pytest.fixture
def experts():
    return [
        [ExpertFFN(M, H, activation="gelu", seed=r * 10 + e) for e in range(EPER)]
        for r in range(W)
    ]


@pytest.fixture
def ti(rng):
    return rng.standard_normal((W, W, EPER, C, M))


def zero_all(experts):
    for row in experts:
        for e in row:
            e.zero_grad()


def run_engine(experts, ti, n, strategy, dto=None, meter=None):
    host = HostBufferPool()
    eng = PipelinedMoEMiddle(
        experts, n, strategy, meter=meter, host_pool=host
    )
    out = eng.forward(ti.copy())
    if dto is None:
        eng.discard_context()
        return out, None, None
    dti = eng.backward(dto)
    grads = [
        [(e.w1.grad.copy(), e.b1.grad.copy(), e.w2.grad.copy(), e.b2.grad.copy())
         for e in row]
        for row in experts
    ]
    return out, dti, grads


class TestForwardEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_any_granularity_matches_reference(self, experts, ti, n):
        ref = reference_middle(ti.copy(), experts)
        out, _, _ = run_engine(experts, ti, n, "none")
        np.testing.assert_allclose(out, ref, atol=1e-12)

    @pytest.mark.parametrize("strategy", ["S1", "S2", "S3", "S4"])
    def test_reuse_strategies_forward_identical(self, experts, ti, strategy):
        ref = reference_middle(ti.copy(), experts)
        out, _, _ = run_engine(experts, ti, 4, strategy)
        np.testing.assert_array_equal(out, ref)  # bitwise

    def test_all_to_all_layout(self, experts, ti):
        """Output[src, dst] holds expert-processed tokens of (src -> dst)."""
        out, _, _ = run_engine(experts, ti, 1, "none")
        # Rank dst's expert e applied to the rows rank src sent it:
        src, dst, e = 1, 2, 1
        x = ti[:, dst, e].reshape(W * C, M)  # all sources' rows at dst
        y = experts[dst][e].forward_np(x)[0].reshape(W, C, M)
        np.testing.assert_allclose(out[src, dst, e], y[src], atol=1e-12)


def tagged_experts(world=W, dtype=np.float64, tag=lambda r, e: 0.0):
    """Experts computing ``y = x + tag(r, e)`` exactly: identity weights
    (``H >= M``), the identity activation and the tag as ``b2``.  With
    the default zero tag the middle section reduces to its two
    exchanges; a non-zero tag names the expert a token went through."""
    rows = []
    for r in range(world):
        row = []
        for e in range(EPER):
            expert = ExpertFFN(M, H, activation="identity", dtype=dtype)
            expert.w1.data[...] = np.eye(M, H)
            expert.w2.data[...] = np.eye(H, M)
            expert.b2.data[...] = tag(r, e)
            row.append(expert)
        rows.append(row)
    return rows


class TestExchanges:
    """The S and R All-to-Alls are exact array permutations: what S
    sends from rank src to expert e of rank dst, R returns to src in
    the same slot, for every granularity and reuse strategy."""

    @pytest.mark.parametrize("n,strategy", [(1, "none"), (2, "S1"), (4, "S4")])
    def test_round_trip_through_identity_experts_is_identity(self, ti, n, strategy):
        out, _, _ = run_engine(tagged_experts(), ti, n, strategy)
        np.testing.assert_array_equal(out, ti)

    @pytest.mark.parametrize("n,strategy", [(1, "none"), (4, "S3")])
    def test_each_token_visits_its_addressed_expert(self, ti, n, strategy):
        def tag(r, e):
            return float(1 + r * EPER + e)

        out, _, _ = run_engine(tagged_experts(tag=tag), ti, n, strategy)
        for dst in range(W):
            for e in range(EPER):
                np.testing.assert_array_equal(
                    out[:, dst, e], ti[:, dst, e] + tag(dst, e)
                )

    @pytest.mark.parametrize("n,strategy", [(1, "none"), (4, "S1"), (4, "S4")])
    def test_backward_through_identity_experts_is_identity(
        self, ti, rng, n, strategy
    ):
        """dS and dR are the inverse permutations, whichever way the
        strategy restores TDI (kept, offloaded or re-communicated)."""
        dto = rng.standard_normal(ti.shape)
        _, dti, _ = run_engine(tagged_experts(), ti, n, strategy, dto=dto)
        np.testing.assert_array_equal(dti, dto)

    @pytest.mark.parametrize("n,strategy", [(1, "none"), (4, "S4")])
    def test_a_token_reaches_only_its_own_output_slot(
        self, experts, ti, n, strategy
    ):
        out, _, _ = run_engine(experts, ti, n, strategy)
        src, dst, e, slot = 2, 0, 1, 5
        bumped = ti.copy()
        bumped[src, dst, e, slot] += 1.0
        out_bumped, _, _ = run_engine(experts, bumped, n, strategy)
        changed = np.argwhere(np.any(out != out_bumped, axis=-1))
        assert changed.tolist() == [[src, dst, e, slot]]

    def test_world_one_exchanges_are_local(self, rng):
        experts = [[ExpertFFN(M, H, seed=e) for e in range(EPER)]]
        ti = rng.standard_normal((1, 1, EPER, C, M))
        out, _, _ = run_engine(experts, ti, 2, "none")
        for e in range(EPER):
            y = experts[0][e].forward_np(ti[0, 0, e])[0]
            np.testing.assert_allclose(out[0, 0, e], y, atol=1e-12)

    def test_output_is_a_fresh_array(self, experts, ti, rng):
        """Forward leaves its input untouched, and the result does not
        alias the ring slots that a later call overwrites."""
        before = ti.copy()
        eng = PipelinedMoEMiddle(experts, 4, "S4", host_pool=HostBufferPool())
        out = eng.forward(ti)
        np.testing.assert_array_equal(ti, before)
        assert not np.shares_memory(out, ti)
        kept = out.copy()
        eng.discard_context()
        eng.forward(rng.standard_normal(ti.shape))
        eng.discard_context()
        np.testing.assert_array_equal(out, kept)

    def test_dtype_preserved_through_the_ring_slots(self, ti, rng):
        experts = [
            [ExpertFFN(M, H, seed=r * 10 + e, dtype=np.float32)
             for e in range(EPER)]
            for r in range(W)
        ]
        ti32 = ti.astype(np.float32)
        dto = rng.standard_normal(ti.shape).astype(np.float32)
        out, dti, _ = run_engine(experts, ti32, 4, "S4", dto=dto)
        assert out.dtype == np.float32 and dti.dtype == np.float32
        np.testing.assert_allclose(
            out, reference_middle(ti32.copy(), experts), rtol=1e-6, atol=1e-6
        )


class TestBackwardEquivalence:
    @pytest.mark.parametrize(
        "n,strategy",
        [(1, "none"), (2, "none"), (4, "none"),
         (2, "S1"), (4, "S1"), (2, "S2"), (4, "S2"),
         (2, "S3"), (4, "S3"), (2, "S4"), (8, "S4")],
    )
    def test_gradients_match_reference(self, experts, ti, rng, n, strategy):
        dto = rng.standard_normal(ti.shape)

        zero_all(experts)
        _, dti_ref, grads_ref = run_engine(experts, ti, 1, "none", dto=dto)

        zero_all(experts)
        _, dti, grads = run_engine(experts, ti, n, strategy, dto=dto)

        np.testing.assert_allclose(dti, dti_ref, atol=1e-10)
        for row_a, row_b in zip(grads, grads_ref):
            for ga, gb in zip(row_a, row_b):
                for a, b in zip(ga, gb):
                    np.testing.assert_allclose(a, b, atol=1e-10)

    def test_offload_restore_bitwise(self, experts, ti, rng):
        """S1's offload restore is bitwise: same grads as keeping (none)."""
        dto = rng.standard_normal(ti.shape)
        zero_all(experts)
        _, dti_none, _ = run_engine(experts, ti, 4, "none", dto=dto)
        zero_all(experts)
        _, dti_s1, _ = run_engine(experts, ti, 4, "S1", dto=dto)
        np.testing.assert_array_equal(dti_none, dti_s1)

    def test_backward_before_forward_rejected(self, experts, ti):
        eng = PipelinedMoEMiddle(experts, 2, "none")
        with pytest.raises(RuntimeError):
            eng.backward(np.zeros_like(ti))

    def test_backward_shape_checked(self, experts, ti):
        eng = PipelinedMoEMiddle(experts, 2, "none")
        eng.forward(ti.copy())
        with pytest.raises(ValueError):
            eng.backward(np.zeros((W, W, EPER, C, M + 1)))


class TestReuseActuallyOverwrites:
    def test_ring_slots_clobbered_across_partitions(self, experts, ti):
        """With n > slots, later partitions really overwrite earlier TDI —
        the hazard the restore strategies exist for."""
        host = HostBufferPool()
        eng = PipelinedMoEMiddle(experts, 4, "S4", host_pool=host)
        eng.forward(ti.copy())
        pool = eng._pools[0]
        # Partition 0 and 2 share the same physical tdi slot.
        assert pool.get("tdi", 0) is pool.get("tdi", 2)
        assert distinct_slots(pool, "tdi") == 2
        assert distinct_slots(pool, "tm") == 1
        eng.discard_context()

    def test_host_pool_cleared_after_backward(self, experts, ti, rng):
        host = HostBufferPool()
        eng = PipelinedMoEMiddle(experts, 4, "S1", host_pool=host)
        eng.forward(ti.copy())
        assert len(host) > 0
        eng.backward(rng.standard_normal(ti.shape))
        assert len(host) == 0

    def test_offload_strategy_requires_host_pool(self, experts):
        with pytest.raises(ValueError, match="host_pool"):
            PipelinedMoEMiddle(experts, 2, "S1", host_pool=None)

    def test_reuse_requires_n_ge_2(self, experts):
        with pytest.raises(ValueError, match="n >= 2"):
            PipelinedMoEMiddle(experts, 1, "S1", host_pool=HostBufferPool())


class TestMetering:
    def test_reuse_peak_below_none_peak(self, experts, ti, rng):
        dto = rng.standard_normal(ti.shape)

        zero_all(experts)
        m_none = CachingAllocator()
        run_engine(experts, ti, 4, "none", dto=dto, meter=m_none)

        zero_all(experts)
        m_s4 = CachingAllocator()
        run_engine(experts, ti, 4, "S4", dto=dto, meter=m_s4)

        assert m_s4.peak_reserved_bytes < m_none.peak_reserved_bytes

    def test_meter_freed_after_backward(self, experts, ti, rng):
        meter = CachingAllocator()
        _, _, _ = run_engine(
            experts, ti, 4, "S3", dto=rng.standard_normal(ti.shape), meter=meter
        )
        assert meter.allocated_bytes == 0


class TestAutogradBridge:
    def test_middle_autograd_matches_reference_layer_grads(self, experts, ti, rng):
        dto = rng.standard_normal(ti.shape)

        # Reference: explicit engine.
        zero_all(experts)
        _, dti_ref, _ = run_engine(experts, ti, 2, "S2", dto=dto)
        ref_param_grads = [
            [tuple(g.copy() for g in (e.w1.grad, e.b1.grad, e.w2.grad, e.b2.grad))
             for e in row] for row in experts
        ]

        # Through the tape.
        zero_all(experts)
        ti_t = Tensor(ti.copy(), requires_grad=True)
        eng = PipelinedMoEMiddle(experts, 2, "S2", host_pool=HostBufferPool())
        out = middle_autograd(ti_t, eng)
        out.backward(dto)
        np.testing.assert_allclose(ti_t.grad, dti_ref, atol=1e-12)
        for r, row in enumerate(experts):
            for e_idx, e in enumerate(row):
                for got, want in zip(
                    (e.w1.grad, e.b1.grad, e.w2.grad, e.b2.grad),
                    ref_param_grads[r][e_idx],
                ):
                    np.testing.assert_allclose(got, want, atol=1e-12)

    def test_inference_mode_no_tape(self, experts, ti):
        from repro.tensor import no_grad

        eng = PipelinedMoEMiddle(experts, 2, "none")
        with no_grad():
            out = middle_autograd(Tensor(ti), eng)
        assert not out.requires_grad
        eng.discard_context()


class TestInputValidation:
    def test_bad_ndim(self, experts):
        eng = PipelinedMoEMiddle(experts, 1, "none")
        with pytest.raises(ValueError, match="ndim"):
            eng.forward(np.zeros((W, W, EPER, C)))

    def test_capacity_not_divisible(self, experts, ti):
        eng = PipelinedMoEMiddle(experts, 3, "none")  # 3 does not divide C=8
        with pytest.raises(ValueError, match="divisible"):
            eng.forward(ti)

    def test_world_mismatch(self, experts, rng):
        eng = PipelinedMoEMiddle(experts, 1, "none")
        with pytest.raises(ValueError, match="world"):
            eng.forward(rng.standard_normal((W + 1, W + 1, EPER, C, M)))

    def test_uneven_expert_rows_rejected(self):
        rows = [[ExpertFFN(M, H)], [ExpertFFN(M, H)], []]
        with pytest.raises(ValueError, match="same number"):
            PipelinedMoEMiddle(rows, 1, "none")

    def test_experts_per_rank_mismatch(self, experts, rng):
        eng = PipelinedMoEMiddle(experts, 1, "none")
        with pytest.raises(ValueError, match="experts/rank"):
            eng.forward(rng.standard_normal((W, W, EPER + 1, C, M)))

    def test_d_model_mismatch(self, experts, rng):
        eng = PipelinedMoEMiddle(experts, 1, "none")
        with pytest.raises(ValueError, match="d_model"):
            eng.forward(rng.standard_normal((W, W, EPER, C, M + 1)))

    def test_num_partitions_below_one(self, experts):
        with pytest.raises(ValueError, match="num_partitions"):
            PipelinedMoEMiddle(experts, 0, "none")

    def test_no_ranks_rejected(self):
        with pytest.raises(ValueError, match="at least one rank"):
            PipelinedMoEMiddle([], 1, "none")
