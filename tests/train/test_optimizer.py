"""Adam against reference update formulas, and the optimizer base."""

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.train.optimizer import Adam, Optimizer


def param(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


class TestOptimizerBase:
    """The :class:`Optimizer` base's contract, through Adam."""

    def test_rejects_empty_and_non_grad_parameters(self):
        with pytest.raises(ValueError, match="at least one"):
            Adam([])
        with pytest.raises(ValueError, match="require grad"):
            Adam([param([1.0]), Tensor(np.ones(1))])

    def test_zero_grad_clears_every_grad(self):
        p, q = param([1.0]), param([2.0, 3.0])
        p.grad, q.grad = np.array([1.0]), np.array([1.0, 1.0])
        Adam([p, q]).zero_grad()
        assert p.grad is None and q.grad is None

    def test_base_leaves_the_update_rule_to_subclasses(self):
        opt = Optimizer([param([1.0])])
        with pytest.raises(NotImplementedError):
            opt.step()
        with pytest.raises(NotImplementedError):
            opt.model_state_elems()

    def test_model_state_counts_every_parameter(self):
        params = [param(np.zeros(3)), param(np.zeros((2, 5)))]
        assert Adam(params).model_state_elems() == 4 * (3 + 10)

    def test_none_grad_is_skipped(self):
        p, q = param([1.0]), param([1.0])
        q.grad = np.array([1.0])
        Adam([p, q], lr=0.1).step()
        np.testing.assert_array_equal(p.data, [1.0])
        assert q.data[0] < 1.0


class TestAdam:
    def test_first_step_is_lr_sized(self):
        """With bias correction the first Adam step is ~lr * sign(grad)."""
        p = param([1.0, -1.0])
        p.grad = np.array([0.3, -0.7])
        Adam([p], lr=0.01).step()
        np.testing.assert_allclose(p.data, [0.99, -0.99], atol=1e-6)

    def test_matches_reference_implementation(self, rng):
        p = param(rng.standard_normal(6))
        ref = p.data.copy()
        opt = Adam([p], lr=3e-3, betas=(0.9, 0.999), eps=1e-8)
        m = np.zeros(6)
        v = np.zeros(6)
        for t in range(1, 6):
            g = rng.standard_normal(6)
            p.grad = g.copy()
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9**t)
            vhat = v / (1 - 0.999**t)
            ref -= 3e-3 * mhat / (np.sqrt(vhat) + 1e-8)
            np.testing.assert_allclose(p.data, ref, atol=1e-12)

    def test_weight_decay(self):
        p = param([10.0])
        p.grad = np.array([0.0])
        Adam([p], lr=0.1, weight_decay=0.1).step()
        assert p.data[0] < 10.0

    def test_weight_decay_folds_into_the_gradient(self, rng):
        """L2 decay: Adam sees ``g + wd * p`` (coupled, not AdamW)."""
        p = param(rng.standard_normal(4))
        ref = p.data.copy()
        opt = Adam([p], lr=1e-2, weight_decay=0.05)
        m = np.zeros(4)
        v = np.zeros(4)
        for t in range(1, 4):
            g = rng.standard_normal(4)
            p.grad = g.copy()
            opt.step()
            g = g + 0.05 * ref
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref -= 1e-2 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            np.testing.assert_allclose(p.data, ref, atol=1e-12)

    def test_update_is_invariant_to_gradient_scale(self, rng):
        """Adam normalises by the running RMS, so scaling every gradient
        by a constant leaves the trajectory unchanged (up to eps)."""
        p, q = param(np.ones(5)), param(np.ones(5))
        opt_p, opt_q = Adam([p], lr=1e-2), Adam([q], lr=1e-2)
        for _ in range(4):
            g = rng.standard_normal(5)
            p.grad, q.grad = g, 1000.0 * g
            opt_p.step()
            opt_q.step()
        np.testing.assert_allclose(p.data, q.data, atol=1e-9)

    def test_minimises_a_quadratic(self):
        target = np.array([0.5, -1.5, 2.0])
        p = param([3.0, 0.0, -1.0])
        opt = Adam([p], lr=0.05)
        for _ in range(500):
            p.grad = 2.0 * (p.data - target)
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-2)

    def test_eq1_four_x_accounting(self):
        """Adam's states realize Eq. 1's 4x: param + grad + m + v."""
        p = param(np.zeros(100))
        assert Adam([p]).model_state_elems() == 400

    def test_validation(self):
        p = param([1.0])
        with pytest.raises(ValueError):
            Adam([p], lr=-1.0)
        with pytest.raises(ValueError):
            Adam([p], betas=(1.0, 0.9))

    def test_eps_and_beta_ranges_validated(self):
        p = param([1.0])
        with pytest.raises(ValueError, match="positive"):
            Adam([p], eps=0.0)
        with pytest.raises(ValueError, match="positive"):
            Adam([p], lr=0.0)
        with pytest.raises(ValueError, match="betas"):
            Adam([p], betas=(-0.1, 0.999))
        with pytest.raises(ValueError, match="betas"):
            Adam([p], betas=(0.9, 1.0))
        Adam([p], betas=(0.0, 0.0))  # 0 lies inside [0, 1)
