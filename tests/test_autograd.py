"""Tape correctness: every op's backward against central differences, plus
graph-shape cases (reuse, broadcasting, mixed ndarray operands) and the
constant rule: plain-array operands get no node, and all-constant ops
return plain arrays. The three fused loss kernels (cross-entropy, row
normalisation, the proxy-contrastive term) get the same finite-difference
checks, and their values must equal the composed numpy arithmetic bit for
bit."""

import numpy as np
import pytest

from upcsc.autograd import Tensor, concat_rows, gather_rows, linear, relu
from upcsc.losses import _cross_entropy, _proxy_contrast
from upcsc.numerics import l2_normalize_rows

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


def test_add_mul_grads():
    check_op(lambda a, b: ((a + b) * (a * b + 3.0)).sum(), (3, 4), (3, 4))


def test_broadcast_add_mul():
    # bias-like (4,) against (3, 4), and scalar against matrix
    check_op(lambda a, b: ((a + b) * 2.0).sum(), (3, 4), (4,))
    check_op(lambda a: (a * 3.5 + 1.25).sum(), (2, 5))


def test_broadcast_keepdims_column():
    check_op(lambda a, b: (a * (b * b + 1.0)).sum(), (3, 4), (3, 1))


def test_matmul_grads():
    check_op(lambda a, b: (a @ b).sum(), (3, 5), (5, 2))
    # closed form: d/dA sum(A@B) = ones @ B.T
    a = Tensor(RNG.standard_normal((3, 5)))
    b = Tensor(RNG.standard_normal((5, 2)))
    (a @ b).sum().backward()
    assert np.allclose(a.grad, np.ones((3, 2)) @ b.data.T)
    assert np.allclose(b.grad, a.data.T @ np.ones((3, 2)))


def test_relu_grad():
    # keep entries away from the kink
    a = np.where(np.abs(RNG.standard_normal((5, 5))) < 0.1, 0.5, RNG.standard_normal((5, 5)))
    t = Tensor(a.copy())
    relu(t).sum().backward()
    assert np.array_equal(t.grad, (a > 0).astype(float))


def test_sum_axis_and_mean():
    check_op(lambda a: (a.sum(axis=0) * a.sum(axis=0)).sum(), (3, 4))
    check_op(lambda a: (a.sum(axis=1, keepdims=True) * a).sum(), (3, 4))
    # the mean as the loss kernels take it: sum times 1/size
    t = Tensor(np.arange(6.0).reshape(2, 3))
    (t.sum() * (1.0 / 6)).backward()
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


LABELS = np.array([2, 0, 3, 3, 1, 0])


def composed_cross_entropy(x, labels):
    """Cross-entropy in the order of the composed ops: logsumexp shifted by
    the row max, minus the picked logit, then sum times 1/n."""
    n = len(x)
    onehot = np.zeros_like(x)
    onehot[np.arange(n), labels] = 1.0
    m = x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(x + (-m)).sum(axis=1, keepdims=True)) + m
    return (lse + (-(x * onehot).sum(axis=1, keepdims=True))).sum() * (1.0 / n)


def composed_proxy_contrast(z_a, pos, negatives):
    sides = [(np.exp(z_a @ keys.T) * mask).sum(axis=1, keepdims=True)
             for keys, mask in negatives if keys.shape[0]]
    rest = sum(sides[1:], sides[0])
    return np.log(rest * np.exp(-pos) + 1.0).sum() * (1.0 / len(pos))


def proxy_case(z, pos, other):
    """Anchors z (4, 3) that are also the first side's keys, a second side of
    keys `other` (5, 3), a third side with no keys, and anchor 2 with no
    negative at all (its mask row is zero on every side)."""
    mask_self = 1.0 - np.eye(4)
    mask_other = np.ones((4, 5))
    mask_self[2] = mask_other[2] = 0.0
    mask_other[0, 1:3] = 0.0
    return z, pos, [(z, mask_self), (other, mask_other), (np.zeros((0, 3)), np.zeros((4, 0)))]


def test_cross_entropy_matches_reference_and_softmax_grad():
    x = RNG.standard_normal((6, 4)) * 30  # large enough to break naive exp
    t = Tensor(x.copy())
    out = _cross_entropy(t, LABELS)
    assert out.item() == composed_cross_entropy(x, LABELS)
    out.backward()
    m = x.max(axis=1, keepdims=True)
    softmax = np.exp(x - m) / np.exp(x - m).sum(axis=1, keepdims=True)
    onehot = np.eye(4)[LABELS]
    assert np.allclose(t.grad, (softmax - onehot) / 6, atol=1e-12)
    check_op(lambda a: _cross_entropy(a * 30.0, LABELS), (6, 4))


def test_cross_entropy_extreme_values_finite():
    t = Tensor(np.array([[1000.0, 999.0], [-1000.0, -1000.5]]))
    out = _cross_entropy(t, [1, 0])
    assert np.isfinite(out.item())
    out.backward()
    assert np.all(np.isfinite(t.grad))


def test_l2_normalize_rows_matches_composed_ops_and_grad():
    x = RNG.standard_normal((5, 3))
    ref = x / (x * x).sum(axis=1, keepdims=True) ** 0.5
    assert np.array_equal(l2_normalize_rows(Tensor(x)).data, ref)
    assert np.array_equal(l2_normalize_rows(x), ref)
    seed = RNG.standard_normal((5, 3))
    check_op(lambda a: (l2_normalize_rows(a) * seed).sum(), (5, 3))


def test_proxy_contrast_matches_composed_ops():
    z, pos, other = (RNG.standard_normal(s) for s in ((4, 3), (4, 1), (5, 3)))
    expect = composed_proxy_contrast(*proxy_case(z, pos, other))
    out = _proxy_contrast(*proxy_case(Tensor(z), Tensor(pos), Tensor(other)))
    assert out.item() == expect
    assert _proxy_contrast(*proxy_case(z, pos, other)) == expect


def test_proxy_contrast_grads():
    # z reaches the node both as anchors and as keys; both shares accumulate
    check_op(lambda z, pos, other: _proxy_contrast(*proxy_case(z, pos, other)),
             (4, 3), (4, 1), (5, 3))


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
    lambda t, c: c @ t,
    lambda t, c: t @ c,
    lambda t, c: linear(c, t, np.zeros(3)),
    lambda t, c: _proxy_contrast(t, c[:, :1], [(c, np.ones((3, 3)))]),
    lambda t, c: _proxy_contrast(c, c[:, :1], [(t, np.ones((3, 3)))]),
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
