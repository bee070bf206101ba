"""Differentiable operations over :class:`repro.tensor.Tensor`.

Each op builds the output tensor with a closure computing parent
gradients.  Broadcasting is handled by :func:`_unbroadcast`, which sums a
gradient back down to the parent's shape — the standard reverse of numpy
broadcasting rules.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.tensor.tensor import Tensor, is_grad_enabled

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast axes so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Added leading axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Axes broadcast from size-1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _make(
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    backward,
) -> Tensor:
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    if not requires:
        return Tensor(data)
    return Tensor(data, requires_grad=True, _backward=backward, _parents=parents)


# --- arithmetic -------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _make(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _make(out, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data

    def backward(g):
        return (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data**2), b.data.shape),
        )

    return _make(out, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    out = -a.data

    def backward(g):
        return (-g,)

    return _make(out, (a,), backward)


def power(a: Tensor, exponent: float) -> Tensor:
    out = a.data**exponent

    def backward(g):
        return (g * exponent * a.data ** (exponent - 1),)

    return _make(out, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with standard 2-D/batched semantics.

    Backward uses the transpose identities dA = dC @ B^T, dB = A^T @ dC,
    with batch axes summed back via :func:`_unbroadcast`.
    """
    out = a.data @ b.data

    def backward(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        if a.data.ndim == 1:  # vector @ matrix
            ga = (g[..., None, :] @ np.swapaxes(b.data, -1, -2))[..., 0, :]
        if b.data.ndim == 1:  # matrix @ vector
            gb = np.swapaxes(a.data, -1, -2) @ g[..., None]
            gb = gb[..., 0]
        return (
            _unbroadcast(ga, a.data.shape),
            _unbroadcast(gb, b.data.shape),
        )

    return _make(out, (a, b), backward)


def astype(a: Tensor, dtype) -> Tensor:
    out = a.data.astype(dtype)

    def backward(g):
        return (g.astype(a.data.dtype),)

    return _make(out, (a,), backward)


# --- shape ops ---------------------------------------------------------------


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.data.shape),)

    return _make(out, (a,), backward)


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    out = a.data.transpose(axes)

    def backward(g):
        if axes is None:
            return (g.transpose(),)
        inverse = np.argsort(axes)
        return (g.transpose(inverse),)

    return _make(out, (a,), backward)


def getitem(a: Tensor, idx) -> Tensor:
    out = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return _make(out, (a,), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    out = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        pieces = np.split(g, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in pieces)

    return _make(out, tuple(tensors), backward)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        slicer = [slice(None)] * g.ndim
        grads = []
        for i in range(len(tensors)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return _make(out, tuple(tensors), backward)


# --- reductions ----------------------------------------------------------------


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).astype(a.data.dtype, copy=True),)
        g_expanded = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_expanded, a.data.shape).copy(),)

    return _make(out, (a,), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in np.atleast_1d(axis)]
    )
    out = a.data.mean(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g / count, a.data.shape).copy(),)
        g_expanded = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_expanded / count, a.data.shape).copy(),)

    return _make(out, (a,), backward)


# --- nonlinearities --------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)

    def backward(g):
        return (g * (a.data > 0),)

    return _make(out, (a,), backward)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximated GELU (the transformer standard)."""
    x = a.data
    inner = _SQRT_2_OVER_PI * (x + 0.044715 * x**3)
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def backward(g):
        d_inner = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * x**2)
        sech2 = 1.0 - t**2
        grad = 0.5 * (1.0 + t) + 0.5 * x * sech2 * d_inner
        return (g * grad,)

    return _make(out, (a,), backward)


def identity(a: Tensor) -> Tensor:
    out = a.data

    def backward(g):
        return (g,)

    return _make(out, (a,), backward)


ACTIVATIONS = {"relu": relu, "gelu": gelu, "identity": identity}


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out = exp / exp.sum(axis=axis, keepdims=True)

    def backward(g):
        # dL/dx = s * (g - sum(g * s))
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - logsumexp

    def backward(g):
        softmax_vals = np.exp(out)
        return (g - softmax_vals * g.sum(axis=axis, keepdims=True),)

    return _make(out, (a,), backward)


# --- gather / scatter (token routing) ----------------------------------------------


def take_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows ``a[indices]`` — used to dispatch tokens to experts.

    Gradient scatters back with accumulation (a token selected twice, as
    with top-k>1, receives the sum of its gradients).
    """
    idx = np.asarray(indices)
    out = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return _make(out, (a,), backward)


def scatter_rows(
    src: Tensor, indices: np.ndarray, num_rows: int, weights: Tensor | None = None
) -> Tensor:
    """Scatter ``src`` rows into a zero matrix at ``indices`` (combine phase).

    When ``weights`` is given (shape ``(len(indices),)``) rows are scaled
    before scattering — this is the gate-probability weighting of MoE
    combine, and gradients flow to both ``src`` and ``weights``.
    """
    idx = np.asarray(indices)
    if weights is None:
        out = np.zeros((num_rows,) + src.data.shape[1:], dtype=src.data.dtype)
        np.add.at(out, idx, src.data)

        def backward(g):
            return (g[idx],)

        return _make(out, (src,), backward)

    w = weights
    scaled = src.data * w.data[:, None]
    out = np.zeros((num_rows,) + src.data.shape[1:], dtype=src.data.dtype)
    np.add.at(out, idx, scaled)

    def backward_weighted(g):
        g_rows = g[idx]
        g_src = g_rows * w.data[:, None]
        g_w = (g_rows * src.data).sum(axis=1)
        return g_src, g_w

    return _make(out, (src, w), backward_weighted)
