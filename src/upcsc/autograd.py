"""Minimal reverse-mode tape over dense float64 numpy arrays.

Every value in a graph is a Tensor wrapping a numpy array. Operations build
the graph eagerly; Tensor.backward() runs one reverse topological sweep and
accumulates gradients into .grad on every node it reaches. Leaves are plain
Tensors created by the caller; constants are just leaves whose grad nobody
reads. Only the handful of ops the losses need are implemented.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad back down to `shape` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # sum away leading axes that broadcasting added
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # sum over axes that were 1 in the original shape
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Tensor:
    # make numpy defer to our reflected operators (ndarray @ Tensor etc.)
    __array_ufunc__ = None

    def __init__(self, data, parents=(), backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = tuple(parents)
        self._backward_fn = backward_fn

    # -- bookkeeping ---------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def _accum(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self) -> None:
        """Seed with ones and propagate through the whole graph once."""
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data + other.data, (self, other))

        def bw(g):
            self._accum(_unbroadcast(g, self.data.shape))
            other._accum(_unbroadcast(g, other.data.shape))

        out._backward_fn = bw
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, (self,))
        out._backward_fn = lambda g: self._accum(-g)
        return out

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data * other.data, (self, other))

        def bw(g):
            self._accum(_unbroadcast(g * other.data, self.data.shape))
            other._accum(_unbroadcast(g * self.data, other.data.shape))

        out._backward_fn = bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data / other.data, (self, other))

        def bw(g):
            self._accum(_unbroadcast(g / other.data, self.data.shape))
            other._accum(
                _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape)
            )

        out._backward_fn = bw
        return out

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = Tensor(self.data**p, (self,))
        out._backward_fn = lambda g: self._accum(g * p * self.data ** (p - 1))
        return out

    def __matmul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data @ other.data, (self, other))

        def bw(g):
            self._accum(g @ other.data.T)
            other._accum(self.data.T @ g)

        out._backward_fn = bw
        return out

    def __rmatmul__(self, other):
        return as_tensor(other) @ self

    # -- elementwise functions ------------------------------------------

    def exp(self):
        # the backward captures the array, not `out`: a closure over its own
        # node would be a reference cycle that keeps the whole tape alive
        e = np.exp(self.data)
        out = Tensor(e, (self,))
        out._backward_fn = lambda g: self._accum(g * e)
        return out

    def log(self):
        out = Tensor(np.log(self.data), (self,))
        out._backward_fn = lambda g: self._accum(g / self.data)
        return out

    def relu(self):
        out = Tensor(np.maximum(self.data, 0.0), (self,))
        out._backward_fn = lambda g: self._accum(g * (self.data > 0.0))
        return out

    # -- reductions and reshaping ----------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def bw(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape).copy())

        out._backward_fn = bw
        return out

    def mean(self):
        return self.sum() * (1.0 / self.data.size)

    @property
    def T(self):
        out = Tensor(self.data.T, (self,))
        out._backward_fn = lambda g: self._accum(g.T)
        return out


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def gather_rows(t: Tensor, idx) -> Tensor:
    """Select rows t[idx]; repeated indices accumulate gradient."""
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(t.data[idx], (t,))

    def bw(g):
        full = np.zeros_like(t.data)
        np.add.at(full, idx, g)
        t._accum(full)

    out._backward_fn = bw
    return out


def concat_rows(parts: list[Tensor]) -> Tensor:
    """Stack 2-D tensors along axis 0."""
    parts = [as_tensor(p) for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=0), tuple(parts))
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            p._accum(g[lo:hi])

    out._backward_fn = bw
    return out


def row_logsumexp(t: Tensor) -> Tensor:
    """log(sum(exp(row))) per row, shape (n, 1).

    The max shift is a detached constant; the identity
    logsumexp(x) = m + log(sum(exp(x - m))) holds for any constant m, so both
    value and gradient are exact.
    """
    m = t.data.max(axis=1, keepdims=True)
    return (t - m).exp().sum(axis=1, keepdims=True).log() + m
