"""Optimizers over :class:`repro.tensor.Tensor` parameters.

Adam keeps two extra state tensors (momentum and variance) per
parameter, which together with the parameter and its gradient is the
"4x parameters" model-state accounting of Eq. 1.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.tensor import Tensor


class Optimizer:
    """Base: holds parameters, counts state bytes (for Eq. 1 validation)."""

    def __init__(self, params: Iterable[Tensor]) -> None:
        self.params: list[Tensor] = [p for p in params]
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        for p in self.params:
            if not p.requires_grad:
                raise ValueError("all optimized parameters must require grad")

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def state_elems_per_param_elem(self) -> int:
        """Optimizer state elements per parameter element (Adam: 2)."""
        raise NotImplementedError

    def model_state_elems(self) -> int:
        """Total elements of params + grads + optimizer state."""
        n = sum(p.size for p in self.params)
        return n * (2 + self.state_elems_per_param_elem())


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction — the paper's optimizer."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params)
        if lr <= 0 or eps <= 0:
            raise ValueError("lr and eps must be positive")
        b1, b2 = betas
        if not (0 <= b1 < 1 and 0 <= b2 < 1):
            raise ValueError("betas must be in [0, 1)")
        self.lr = lr
        self.beta1, self.beta2 = b1, b2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / b1t
            v_hat = self.v[i] / b2t
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_elems_per_param_elem(self) -> int:
        return 2  # momentum + variance (Eq. 1's 4x with param + grad)
