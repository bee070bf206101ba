"""Finite-difference validation of every op's backward formula."""

import numpy as np
import pytest

from repro.tensor import Tensor, gradcheck
from repro.tensor import functional as F


def t(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


class TestArithmeticGrads:
    def test_add(self):
        assert gradcheck(F.add, [t((3, 4)), t((3, 4), 1)])

    def test_add_broadcast(self):
        assert gradcheck(F.add, [t((3, 4)), t((4,), 1)])

    def test_add_broadcast_leading_axis(self):
        assert gradcheck(F.add, [t((2, 3, 4)), t((3, 4), 1)])

    def test_sub(self):
        assert gradcheck(F.sub, [t((2, 3)), t((2, 3), 1)])

    def test_mul(self):
        assert gradcheck(F.mul, [t((3, 2)), t((3, 2), 1)])

    def test_mul_broadcast_scalarlike(self):
        assert gradcheck(F.mul, [t((3, 2)), t((1,), 1)])

    def test_div(self):
        b = t((2, 2), 1)
        b.data += 3.0  # keep denominators away from zero
        assert gradcheck(F.div, [t((2, 2)), b])

    def test_neg(self):
        assert gradcheck(F.neg, [t((5,))])

    def test_power(self):
        x = t((4,))
        x.data = np.abs(x.data) + 0.5
        assert gradcheck(lambda a: F.power(a, 2.5), [x])


class TestMatmulGrads:
    def test_2d(self):
        assert gradcheck(F.matmul, [t((3, 4)), t((4, 2), 1)])

    def test_batched(self):
        assert gradcheck(F.matmul, [t((2, 3, 4)), t((2, 4, 2), 1)])

    def test_broadcast_rhs(self):
        assert gradcheck(F.matmul, [t((2, 3, 4)), t((4, 2), 1)])


class TestShapeGrads:
    def test_reshape(self):
        assert gradcheck(lambda a: F.reshape(a, (6,)), [t((2, 3))])

    def test_transpose_default(self):
        assert gradcheck(lambda a: F.transpose(a), [t((2, 3))])

    def test_transpose_axes(self):
        assert gradcheck(lambda a: F.transpose(a, (1, 2, 0)), [t((2, 3, 2))])

    def test_getitem_slice(self):
        assert gradcheck(lambda a: a[1:3], [t((4, 2))])

    def test_getitem_fancy(self):
        idx = np.array([0, 2, 2])
        assert gradcheck(lambda a: a[idx], [t((3, 2))])

    def test_stack(self):
        assert gradcheck(lambda a, b: F.stack([a, b], axis=0), [t((2, 3)), t((2, 3), 1)])

    def test_concatenate(self):
        assert gradcheck(
            lambda a, b: F.concatenate([a, b], axis=1), [t((2, 2)), t((2, 3), 1)]
        )


class TestReductionGrads:
    def test_sum_all(self):
        assert gradcheck(lambda a: F.sum_(a), [t((3, 4))])

    def test_sum_axis(self):
        assert gradcheck(lambda a: F.sum_(a, axis=1), [t((3, 4))])

    def test_sum_keepdims(self):
        assert gradcheck(lambda a: F.sum_(a, axis=0, keepdims=True), [t((3, 4))])

    def test_mean_all(self):
        assert gradcheck(lambda a: F.mean(a), [t((3, 4))])

    def test_mean_axis(self):
        assert gradcheck(lambda a: F.mean(a, axis=1), [t((2, 5))])


class TestNonlinearityGrads:
    def test_relu(self):
        x = t((20,))
        x.data += 0.05 * np.sign(x.data)  # keep away from the kink
        assert gradcheck(F.relu, [x])

    def test_gelu(self):
        assert gradcheck(F.gelu, [t((15,))], rtol=1e-3, atol=1e-5)

    def test_softmax(self):
        assert gradcheck(lambda a: F.softmax(a, axis=-1), [t((3, 5))])


class TestRoutingGrads:
    def test_take_rows(self):
        idx = np.array([2, 0, 1, 2])
        assert gradcheck(lambda a: F.take_rows(a, idx), [t((3, 4))])

    def test_scatter_rows(self):
        idx = np.array([4, 1, 0])
        assert gradcheck(lambda a: F.scatter_rows(a, idx, 5), [t((3, 2))])

    def test_scatter_rows_weighted_both_grads(self):
        idx = np.array([1, 3, 0])
        src = t((3, 4))
        w = t((3,), 1)
        assert gradcheck(lambda a, b: F.scatter_rows(a, idx, 4, weights=b), [src, w])

    def test_gradcheck_rejects_float32(self):
        bad = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(TypeError):
            gradcheck(F.relu, [bad])

    def test_gradcheck_catches_wrong_gradient(self):
        from repro.tensor.ops import _make

        def buggy(a):
            out = a.data * 2.0
            return _make(out, (a,), lambda g: (g * 3.0,))  # wrong: should be 2x

        with pytest.raises(AssertionError):
            gradcheck(buggy, [t((3,))])
