"""Tape correctness: every op's backward against central differences, plus
graph-shape cases (reuse, broadcasting, mixed ndarray operands) and the
constant rule: plain-array operands get no node, and all-constant ops
return plain arrays."""

import numpy as np
import pytest

from upcsc.autograd import (Tensor, concat_rows, exp, gather_rows, linear, log, mean, relu,
                             row_logsumexp)

RNG = np.random.default_rng(20240817)


def fd_scalar(fn, x, h=1e-6):
    """Central-difference gradient of scalar fn at x, elementwise."""
    g = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        plus = fn(x)
        flat_x[i] = orig - h
        minus = fn(x)
        flat_x[i] = orig
        flat_g[i] = (plus - minus) / (2 * h)
    return g


def check_op(build, *shapes, tol=1e-7):
    """Compare tape gradients of scalar build(*tensors) with finite differences."""
    arrays = [RNG.standard_normal(s) for s in shapes]
    tensors = [Tensor(a.copy()) for a in arrays]
    out = build(*tensors)
    out.backward()
    for k, a in enumerate(arrays):
        def fn(x, k=k):
            probe = [Tensor(ar) for ar in arrays]
            probe[k] = Tensor(x)
            return build(*probe).item()
        fd = fd_scalar(fn, a.copy())
        assert np.allclose(tensors[k].grad, fd, atol=tol, rtol=tol), f"operand {k}"


def test_add_sub_mul_div_grads():
    check_op(lambda a, b: ((a + b) * (a - b) / (b * b + 3.0)).sum(), (3, 4), (3, 4))


def test_broadcast_add_mul():
    # bias-like (4,) against (3, 4), and scalar against matrix
    check_op(lambda a, b: ((a + b) * 2.0).sum(), (3, 4), (4,))
    check_op(lambda a: (a * 3.5 + 1.25).sum(), (2, 5))


def test_broadcast_keepdims_column():
    check_op(lambda a, b: (a / (b * b + 1.0)).sum(), (3, 4), (3, 1))


def test_matmul_grads():
    check_op(lambda a, b: (a @ b).sum(), (3, 5), (5, 2))
    # closed form: d/dA sum(A@B) = ones @ B.T
    a = Tensor(RNG.standard_normal((3, 5)))
    b = Tensor(RNG.standard_normal((5, 2)))
    (a @ b).sum().backward()
    assert np.allclose(a.grad, np.ones((3, 2)) @ b.data.T)
    assert np.allclose(b.grad, a.data.T @ np.ones((3, 2)))


def test_pow_exp_log_relu():
    check_op(lambda a: (a ** 2).sum(), (4, 3))
    check_op(lambda a: exp(a).sum(), (4, 3))
    check_op(lambda a: log(a * a + 0.5).sum(), (4, 3))
    # keep entries away from the kink
    a = np.where(np.abs(RNG.standard_normal((5, 5))) < 0.1, 0.5, RNG.standard_normal((5, 5)))
    t = Tensor(a.copy())
    relu(t).sum().backward()
    assert np.array_equal(t.grad, (a > 0).astype(float))


def test_sum_axis_and_mean():
    check_op(lambda a: (a.sum(axis=0) ** 2).sum(), (3, 4))
    check_op(lambda a: (a.sum(axis=1, keepdims=True) * a).sum(), (3, 4))
    t = Tensor(np.arange(6.0).reshape(2, 3))
    mean(t).backward()
    assert np.allclose(t.grad, np.full((2, 3), 1.0 / 6.0))


def test_transpose():
    check_op(lambda a, b: (a.T @ b).sum(), (5, 3), (5, 2))


def test_value_reuse_accumulates():
    # same node used twice: diamond graph
    t = Tensor(np.array([[2.0, -1.0]]))
    out = (t * t + t * 3.0).sum()
    out.backward()
    assert np.allclose(t.grad, 2 * t.data + 3.0)


def test_gather_rows_repeats_accumulate():
    t = Tensor(RNG.standard_normal((4, 3)))
    idx = np.array([1, 1, 3])
    gather_rows(t, idx).sum().backward()
    expect = np.zeros((4, 3))
    expect[1] = 2.0
    expect[3] = 1.0
    assert np.array_equal(t.grad, expect)


def test_gather_rows_empty_index():
    t = Tensor(RNG.standard_normal((4, 3)))
    out = gather_rows(t, np.array([], dtype=np.int64))
    assert out.shape == (0, 3)


def test_concat_rows_slices_gradient():
    a = Tensor(RNG.standard_normal((2, 3)))
    b = Tensor(RNG.standard_normal((4, 3)))
    seed = RNG.standard_normal((6, 3))
    (concat_rows([a, b]) * seed).sum().backward()
    assert np.array_equal(a.grad, seed[:2])
    assert np.array_equal(b.grad, seed[2:])


def test_row_logsumexp_matches_reference_and_softmax_grad():
    x = RNG.standard_normal((6, 4)) * 30  # large enough to break naive exp
    t = Tensor(x.copy())
    out = row_logsumexp(t)
    m = x.max(axis=1, keepdims=True)
    ref = np.log(np.exp(x - m).sum(axis=1, keepdims=True)) + m
    assert np.allclose(out.data, ref, atol=1e-12)
    out.sum().backward()
    softmax = np.exp(x - m) / np.exp(x - m).sum(axis=1, keepdims=True)
    assert np.allclose(t.grad, softmax, atol=1e-12)


def test_row_logsumexp_extreme_values_finite():
    t = Tensor(np.array([[1000.0, 999.0], [-1000.0, -1000.5]]))
    out = row_logsumexp(t)
    assert np.all(np.isfinite(out.data))
    out.sum().backward()
    assert np.all(np.isfinite(t.grad))


def test_ndarray_operands_defer_to_tensor():
    a = RNG.standard_normal((2, 3))
    t = Tensor(RNG.standard_normal((3, 2)))
    assert isinstance(a @ t, Tensor)
    assert isinstance(a + t.T, Tensor)
    assert isinstance(2.0 * t, Tensor)
    assert isinstance(1.0 + t * t, Tensor)


def test_backward_only_reaches_connected_leaves():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    (a * 2.0).sum().backward()
    assert b.grad is None
    assert np.allclose(a.grad, 2.0)


def test_scalar_item_and_constant_graph():
    c = Tensor(0.0)
    assert c.item() == 0.0
    total = c + Tensor(1.5)
    total.backward()  # leaves have no inputs; this must not raise
    assert total.item() == 1.5


def test_linear_is_bitwise_the_composed_ops():
    x, w, b = (RNG.standard_normal(s) for s in ((5, 4), (4, 3), (3,)))
    seed = RNG.standard_normal((5, 3))
    fused = [Tensor(a.copy()) for a in (x, w, b)]
    out = linear(*fused)
    (out * seed).sum().backward()
    composed = [Tensor(a.copy()) for a in (x, w, b)]
    ref = composed[0] @ composed[1] + composed[2]
    (ref * seed).sum().backward()
    assert np.array_equal(out.data, ref.data)
    for f, c in zip(fused, composed):
        assert np.array_equal(f.grad, c.grad)


def count_nodes(monkeypatch):
    """Count every Tensor constructed from now on."""
    counter = {"nodes": 0}
    init = Tensor.__init__

    def counting_init(node, *args, **kwargs):
        counter["nodes"] += 1
        init(node, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    return counter


@pytest.mark.parametrize("op", [
    lambda t, c: t * c,
    lambda t, c: c + t,
    lambda t, c: t - c,
    lambda t, c: t / (c * c + 1.0),
    lambda t, c: c @ t,
    lambda t, c: t @ c,
    lambda t, c: linear(c, t, np.zeros(3)),
])
def test_plain_operand_adds_exactly_one_node(monkeypatch, op):
    t = Tensor(RNG.standard_normal((3, 3)))
    c = RNG.standard_normal((3, 3))
    counter = count_nodes(monkeypatch)
    out = op(t, c)
    assert counter["nodes"] == 1
    assert [p for p, _ in out._inputs] == [t]
    out.sum().backward()
    assert t.grad.shape == t.shape


def test_constant_only_ops_return_plain_arrays():
    x, w, b = RNG.standard_normal((4, 3)), RNG.standard_normal((3, 2)), RNG.standard_normal(2)
    h = linear(x, w, b)
    assert type(h) is np.ndarray and np.array_equal(h, x @ w + b)
    r = relu(h)
    assert type(r) is np.ndarray and np.array_equal(r, np.maximum(h, 0.0))
    g = gather_rows(r, [2, 0, 2])
    assert type(g) is np.ndarray and np.array_equal(g, r[[2, 0, 2]])
    c = concat_rows([r, g])
    assert type(c) is np.ndarray and np.array_equal(c, np.concatenate([r, g]))
