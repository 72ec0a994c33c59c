"""Minimal reverse-mode tape over dense float64 numpy arrays.

Every op builds its output through one constructor, `_node`, from
(input, vjp) pairs: vjp maps the output's gradient to that input's share.
An input that is not a Tensor is a constant. It gets no node and no
gradient, and an op whose inputs are all constants returns the plain array,
so the same forward code serves training (Tensor parameters) and evaluation
(plain arrays). Tensor.backward() runs one reverse topological sweep and
accumulates gradients into .grad on every node it reaches. Leaves are
Tensors created by the caller. A Tensor is bookkeeping only and has no
arithmetic: the ops are the model's layers here, and each loss primitive is
one `_node` with a hand-derived vjp, beside the code that uses it.
"""

from __future__ import annotations

import numpy as np


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
    # numpy defers to Tensor, which has no operators, so ndarray ⊕ Tensor
    # raises TypeError instead of building an object array
    __array_ufunc__ = None

    def __init__(self, data, inputs=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._inputs = inputs

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


def linear(x, w, b):
    """The affine layer x @ w + b as one node; b is a row vector (d_out,)."""
    xd, wd = value_of(x), value_of(w)
    y = xd @ wd
    y += value_of(b)
    return _node(y, (x, lambda g: g @ wd.T), (w, lambda g: xd.T @ g),
                 (b, lambda g: g.sum(axis=0)))


def relu(x):
    a = value_of(x)
    return _node(np.maximum(a, 0.0), (x, lambda g: g * (a > 0.0)))

