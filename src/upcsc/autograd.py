"""Minimal reverse-mode tape over dense float64 numpy arrays.

Every op builds its output through one constructor, `_node`, from
(input, vjp) pairs: vjp maps the output's gradient to that input's share.
An input that is not a Tensor is a constant. It gets no node and no
gradient, and an op whose inputs are all constants returns the plain array,
so the same forward code serves training (Tensor parameters) and evaluation
(plain arrays). Tensor.backward() runs one reverse topological sweep and
accumulates gradients into .grad on every node it reaches. Leaves are
Tensors created by the caller. Only the handful of ops the losses need are
implemented.
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


def value_of(x):
    """The array behind x: a Tensor's data, anything else unchanged."""
    return x.data if isinstance(x, Tensor) else x


def _node(value, *pairs):
    """A Tensor for `value` over the Tensor inputs among (input, vjp) pairs,
    or the plain `value` when every input is a constant. A vjp closes over
    arrays only, never over the node it feeds: a node reachable from itself
    would keep the whole tape alive until the cycle collector runs."""
    inputs = tuple((x, vjp) for x, vjp in pairs if isinstance(x, Tensor))
    return Tensor(value, inputs) if inputs else value


class Tensor:
    # make numpy defer to our reflected operators (ndarray @ Tensor etc.)
    __array_ufunc__ = None

    def __init__(self, data, inputs=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._inputs = inputs

    # -- bookkeeping ---------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def _accum(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # own copy, in C order whatever the layout of the view it came from
            self.grad = np.array(grad, order="C")
        else:
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
            for p, _ in node._inputs:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node.grad is not None:
                for p, vjp in node._inputs:
                    p._accum(vjp(node.grad))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        a, b = self.data, value_of(other)
        return _node(a + b, (self, lambda g: _unbroadcast(g, a.shape)),
                     (other, lambda g: _unbroadcast(g, b.shape)))

    __radd__ = __add__

    def __neg__(self):
        return _node(-self.data, (self, lambda g: -g))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.data, value_of(other)
        return _node(a * b, (self, lambda g: _unbroadcast(g * b, a.shape)),
                     (other, lambda g: _unbroadcast(g * a, b.shape)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self.data, value_of(other)
        return _node(a / b, (self, lambda g: _unbroadcast(g / b, a.shape)),
                     (other, lambda g: _unbroadcast(-g * a / (b * b), b.shape)))

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a = self.data
        return _node(a**p, (self, lambda g: g * p * a ** (p - 1)))

    def __matmul__(self, other):
        return _matmul(self, other)

    def __rmatmul__(self, other):
        return _matmul(other, self)

    # -- reductions and reshaping ----------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self.data

        def vjp(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, a.shape)

        return _node(a.sum(axis=axis, keepdims=keepdims), (self, vjp))

    @property
    def T(self):
        return _node(self.data.T, (self, lambda g: g.T))


def _matmul(x, y):
    a, b = value_of(x), value_of(y)
    return _node(a @ b, (x, lambda g: g @ b.T), (y, lambda g: a.T @ g))


def linear(x, w, b):
    """The affine layer x @ w + b as one node; b is a row vector (d_out,)."""
    xd, wd = value_of(x), value_of(w)
    return _node(xd @ wd + value_of(b), (x, lambda g: g @ wd.T), (w, lambda g: xd.T @ g),
                 (b, lambda g: g.sum(axis=0)))


def mean(x):
    """Mean of every entry, as sum times 1/size on both paths (np.mean divides,
    which rounds differently)."""
    return x.sum() * (1.0 / value_of(x).size)


def exp(x):
    e = np.exp(value_of(x))
    return _node(e, (x, lambda g: g * e))


def log(x):
    a = value_of(x)
    return _node(np.log(a), (x, lambda g: g / a))


def relu(x):
    a = value_of(x)
    return _node(np.maximum(a, 0.0), (x, lambda g: g * (a > 0.0)))


def gather_rows(t, idx):
    """Select rows t[idx]; repeated indices accumulate gradient."""
    idx = np.asarray(idx, dtype=np.intp)
    a = value_of(t)

    def vjp(g):
        full = np.zeros_like(a)
        np.add.at(full, idx, g)
        return full

    return _node(a[idx], (t, vjp))


def concat_rows(parts):
    """Stack 2-D tensors along axis 0."""
    arrays = [value_of(p) for p in parts]
    offsets = np.cumsum([0] + [a.shape[0] for a in arrays])
    return _node(np.concatenate(arrays, axis=0),
                 *((p, lambda g, lo=lo, hi=hi: g[lo:hi])
                   for p, lo, hi in zip(parts, offsets[:-1], offsets[1:])))


def row_logsumexp(t):
    """log(sum(exp(row))) per row, shape (n, 1).

    The max shift is a constant; the identity
    logsumexp(x) = m + log(sum(exp(x - m))) holds for any constant m, so both
    value and gradient are exact.
    """
    m = value_of(t).max(axis=1, keepdims=True)
    return log(exp(t - m).sum(axis=1, keepdims=True)) + m
