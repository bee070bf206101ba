"""Forward-value tests for every differentiable op."""

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.tensor import functional as F


class TestArithmetic:
    def test_add_broadcast(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(F.add(a, b).data, [[2, 3, 4], [2, 3, 4]])

    def test_mul_elementwise(self):
        a = Tensor(np.array([2.0, 3.0]))
        np.testing.assert_allclose(F.mul(a, a).data, [4.0, 9.0])

    def test_matmul_batched(self):
        a = Tensor(np.ones((4, 2, 3)))
        b = Tensor(np.ones((4, 3, 5)))
        out = F.matmul(a, b)
        assert out.shape == (4, 2, 5)
        np.testing.assert_allclose(out.data, 3.0)

    def test_matmul_broadcast_batch(self):
        a = Tensor(np.ones((4, 2, 3)))
        b = Tensor(np.ones((3, 5)))
        assert F.matmul(a, b).shape == (4, 2, 5)


class TestNonlinearities:
    def test_relu_values(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(F.relu(x).data, [0.0, 0.0, 2.0])

    def test_gelu_known_points(self):
        x = Tensor(np.array([0.0]))
        np.testing.assert_allclose(F.gelu(x).data, [0.0], atol=1e-12)
        # GELU(x) -> x for large positive x, -> 0 for large negative x.
        big = Tensor(np.array([10.0, -10.0]))
        np.testing.assert_allclose(F.gelu(big).data, [10.0, 0.0], atol=1e-4)

    def test_gelu_matches_scipy_erf_form_loosely(self):
        # The tanh approximation is within 1e-3 of the exact erf GELU.
        from scipy.special import erf

        x = np.linspace(-3, 3, 41)
        exact = 0.5 * x * (1 + erf(x / np.sqrt(2)))
        approx = F.gelu(Tensor(x)).data
        np.testing.assert_allclose(approx, exact, atol=2e-3)

    def test_identity_passthrough(self):
        x = Tensor(np.array([1.0, -2.0]))
        np.testing.assert_allclose(F.identity(x).data, x.data)

    def test_activation_registry(self):
        assert set(F.ACTIVATIONS) == {"relu", "gelu", "identity"}


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = Tensor(rng.standard_normal((5, 7)))
        s = F.softmax(x, axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((3, 4))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 1000.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_extreme_logits_no_overflow(self):
        x = Tensor(np.array([[1e4, -1e4, 0.0]]))
        s = F.softmax(x).data
        assert np.isfinite(s).all()
        np.testing.assert_allclose(s[0, 0], 1.0)


class TestShapes:
    def test_reshape_roundtrip(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)))
        y = F.reshape(F.reshape(x, (6, 4)), (2, 3, 4))
        np.testing.assert_allclose(y.data, x.data)

    def test_transpose_axes(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)))
        assert F.transpose(x, (2, 0, 1)).shape == (4, 2, 3)

    def test_stack_axis1(self):
        parts = [Tensor(np.full((2,), float(i))) for i in range(3)]
        assert F.stack(parts, axis=1).shape == (2, 3)

    def test_sum_axis_keepdims(self, rng):
        x = Tensor(rng.standard_normal((3, 4)))
        assert F.sum_(x, axis=1).shape == (3,)
        assert F.sum_(x, axis=1, keepdims=True).shape == (3, 1)


class TestGatherScatter:
    def test_take_rows_values(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        out = F.take_rows(x, np.array([2, 0, 2]))
        np.testing.assert_allclose(out.data, [[6, 7, 8], [0, 1, 2], [6, 7, 8]])

    def test_take_rows_duplicate_grad_accumulates(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        out = F.take_rows(x, np.array([1, 1]))
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [[0, 0], [2, 2], [0, 0]])

    def test_scatter_rows_places_rows(self):
        src = Tensor(np.array([[1.0, 1.0], [2.0, 2.0]]))
        out = F.scatter_rows(src, np.array([3, 0]), num_rows=4)
        np.testing.assert_allclose(out.data, [[2, 2], [0, 0], [0, 0], [1, 1]])

    def test_scatter_rows_duplicate_targets_sum(self):
        src = Tensor(np.ones((2, 2)))
        out = F.scatter_rows(src, np.array([1, 1]), num_rows=2)
        np.testing.assert_allclose(out.data, [[0, 0], [2, 2]])

    def test_scatter_rows_weighted(self):
        src = Tensor(np.ones((2, 3)))
        w = Tensor(np.array([0.5, 2.0]))
        out = F.scatter_rows(src, np.array([0, 1]), num_rows=2, weights=w)
        np.testing.assert_allclose(out.data, [[0.5] * 3, [2.0] * 3])

    def test_scatter_then_take_roundtrip(self, rng):
        src = Tensor(rng.standard_normal((4, 3)))
        idx = np.array([5, 1, 0, 3])
        scattered = F.scatter_rows(src, idx, num_rows=6)
        back = F.take_rows(scattered, idx)
        np.testing.assert_allclose(back.data, src.data)
