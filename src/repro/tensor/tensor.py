"""Reverse-mode autodiff ``Tensor``.

The graph is a classic tape: each non-leaf tensor records the backward
callable and its parent tensors.  ``Tensor.backward()`` topologically
sorts the tape and accumulates gradients into ``.grad`` of leaves with
``requires_grad=True``.

Only float64/float32 data participates in differentiation; integer
tensors (routing indices) flow through with ``requires_grad=False``.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A numpy array with an autograd tape.

    Parameters
    ----------
    data:
        Array-like; copied only if not already a numpy array of the right
        dtype (views are kept — "be easy on the memory").
    requires_grad:
        Whether gradients should accumulate into this leaf.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100  # make numpy defer to our reflected ops

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None,
        _parents: tuple["Tensor", ...] = (),
        name: str | None = None,
    ) -> None:
        arr = np.asarray(data)
        if arr.dtype == np.float16:
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        if requires_grad and not np.issubdtype(arr.dtype, np.floating):
            raise TypeError("only floating tensors can require grad")
        self.requires_grad = bool(requires_grad and _GRAD_ENABLED)
        self._backward = _backward
        self._parents = _parents
        self.name = name

    # -- basic protocol ----------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (a view, not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """A new leaf sharing storage, cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    # -- graph mechanics -----------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        return self._backward is None

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        ``grad`` defaults to ones (for scalar losses it is exactly 1.0).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor {self.data.shape}"
                )

        order = self._topo_order()
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.is_leaf:
                if node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            parent_grads = node._backward(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                if pg.shape != parent.data.shape:
                    raise RuntimeError(
                        f"backward produced grad of shape {pg.shape} for parent "
                        f"of shape {parent.data.shape}"
                    )
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    def _topo_order(self) -> list["Tensor"]:
        """Reverse topological order starting at ``self`` (iterative DFS)."""
        seen: set[int] = set()
        order: list[Tensor] = []
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen and parent.requires_grad:
                    stack.append((parent, False))
        order.reverse()
        return order

    # -- operator sugar (implemented in ops.py) ------------------------------
    def __add__(self, other):
        from repro.tensor import ops

        return ops.add(self, _as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other):
        from repro.tensor import ops

        return ops.sub(self, _as_tensor(other))

    def __rsub__(self, other):
        from repro.tensor import ops

        return ops.sub(_as_tensor(other), self)

    def __mul__(self, other):
        from repro.tensor import ops

        return ops.mul(self, _as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        from repro.tensor import ops

        return ops.div(self, _as_tensor(other))

    def __rtruediv__(self, other):
        from repro.tensor import ops

        return ops.div(_as_tensor(other), self)

    def __neg__(self):
        from repro.tensor import ops

        return ops.neg(self)

    def __matmul__(self, other):
        from repro.tensor import ops

        return ops.matmul(self, _as_tensor(other))

    def __pow__(self, exponent: float):
        from repro.tensor import ops

        return ops.power(self, exponent)

    def __getitem__(self, idx):
        from repro.tensor import ops

        return ops.getitem(self, idx)

    # -- method sugar ---------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        from repro.tensor import ops

        return ops.sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        from repro.tensor import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from repro.tensor import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self, *axes):
        from repro.tensor import ops

        return ops.transpose(self, axes or None)

    @property
    def T(self):
        return self.transpose()


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    from repro.tensor import ops

    return ops.stack(list(tensors), axis=axis)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    from repro.tensor import ops

    return ops.concatenate(list(tensors), axis=axis)
