"""Tape correctness: every op's and every fused loss kernel's backward
against central differences, graph-shape cases (reuse, cross-entropy over
selected rows) and the constant rule: plain-array operands get no node,
and all-constant ops return plain arrays. A Tensor has no arithmetic, so each
check seeds its backward through the test-side scalar node `seeded`. The
kernels' values must equal the composed numpy arithmetic bit for bit."""

import numpy as np
import pytest

from oracles import seeded
from upcsc.autograd import Tensor, linear, relu
from upcsc.losses import _cross_entropy, _proxy_contrast, sum_terms
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


def softmax(a):
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def test_relu_grad():
    # keep entries away from the kink
    a = np.where(np.abs(RNG.standard_normal((5, 5))) < 0.1, 0.5, RNG.standard_normal((5, 5)))
    t = Tensor(a.copy())
    seeded(relu(t), np.ones((5, 5))).backward()
    assert np.array_equal(t.grad, (a > 0).astype(float))
    seed = RNG.standard_normal((5, 5))
    check_op(lambda x: seeded(relu(x), seed), (5, 5))


def test_value_reuse_accumulates():
    # same node used twice: diamond graph
    a = RNG.standard_normal((3, 4))
    s1, s2 = RNG.standard_normal((3, 4)), RNG.standard_normal((3, 4))
    t = Tensor(a.copy())
    sum_terms([seeded(t, s1), seeded(relu(t), s2)]).backward()
    assert np.array_equal(t.grad, s1 + s2 * (a > 0))


def test_sum_terms_adds_left_to_right_with_identity_grads():
    values = [0.1, 1e16, -1e16, 0.3]   # another order gives another float
    terms = [Tensor(v) for v in values]
    total = sum_terms(terms)
    assert total.item() == ((values[0] + values[1]) + values[2]) + values[3]
    total.backward()
    assert [t.grad for t in terms] == [1.0] * 4


LABELS = np.array([2, 0, 3, 3, 1, 0])
EVERY_ROW = np.arange(len(LABELS))


def composed_cross_entropy(x, labels):
    """Cross-entropy in the order of the composed ops: logsumexp shifted by
    the row max, minus the picked logit, then sum times 1/n."""
    n = len(x)
    onehot = np.zeros_like(x)
    onehot[np.arange(n), labels] = 1.0
    m = x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(x + (-m)).sum(axis=1, keepdims=True)) + m
    return (lse + (-(x * onehot).sum(axis=1, keepdims=True))).sum() * (1.0 / n)


def composed_proxy_contrast(z, pos, sets, anchors):
    """The kernel's values in the order of its ops, with the negative-pair
    mask and the share matrix built from Python sets, row by row."""
    rows = np.concatenate(anchors)
    mask = np.array([[float(sets[i].isdisjoint(sets[j])) for j in range(len(sets))]
                     for i in rows])
    shares = np.array([[1.0 / len(a) if i in a else 0.0 for a in anchors] for i in rows])
    rest = (np.exp(z[rows] @ z.T) * mask).sum(axis=1, keepdims=True)
    return np.log(rest * np.exp(-pos) + 1.0).ravel() @ shares


# class sets of rows 0..5: rows 0-1 anchor the first term and rows 2-3 the
# second; row 2's set meets every other, so that anchor has no negative at
# all, and rows 4-5 are keys only
SETS = [{0}, {1}, {0, 1, 2}, {1, 2}, {2}, {0}]
ANCHORS = [np.array([0, 1]), np.array([2, 3])]
CLASSES = np.array([[float(y in s) for y in range(3)] for s in SETS])
PROXY_WEIGHTS = RNG.random((6, 3))
TERM_SEED = np.array([0.7, -1.3])


def proxy_case(z, w, weights=PROXY_WEIGHTS):
    """Rows z (6, 3), every one a key, proxies w (3, 3) mixed by `weights`
    (6, 3) into the positives, in the roles of SETS and ANCHORS."""
    return z, w, CLASSES, weights, ANCHORS


def anchor_positives(z, w, weights=PROXY_WEIGHTS):
    rows = np.concatenate(ANCHORS)
    return (z[rows] @ w.T * weights[rows]).sum(axis=1, keepdims=True)


def test_cross_entropy_grads_in_closed_form():
    # the product inside the cross-entropy kernel, logits f @ W.T, in closed
    # form: d = (softmax - onehot) / n gives d @ W for f and d.T @ f for W
    f = Tensor(RNG.standard_normal((6, 5)))
    w = Tensor(RNG.standard_normal((4, 5)))
    _cross_entropy(f, w, LABELS, EVERY_ROW).backward()
    d = (softmax(f.data @ w.data.T) - np.eye(4)[LABELS]) / 6
    assert np.allclose(f.grad, d @ w.data, atol=1e-12)
    assert np.allclose(w.grad, d.T @ f.data, atol=1e-12)
    check_op(lambda f, w: _cross_entropy(f, w, LABELS, EVERY_ROW), (6, 5), (4, 5))


def test_cross_entropy_matches_reference_and_softmax_grad():
    # identity proxies make the logits the features themselves, exactly
    x = RNG.standard_normal((6, 4)) * 30  # large enough to break naive exp
    t = Tensor(x.copy())
    out = _cross_entropy(t, np.eye(4), LABELS, EVERY_ROW)
    assert out.item() == composed_cross_entropy(x, LABELS)
    out.backward()
    assert np.allclose(t.grad, (softmax(x) - np.eye(4)[LABELS]) / 6, atol=1e-12)


def test_cross_entropy_over_rows_is_the_dense_kernel_on_those_rows():
    # scoring rows [1, 3] of f equals scoring every row of f[[1, 3]]: the
    # same value and classifier gradient, its feature gradient on those rows
    # and zero on every other row
    fd, wd = RNG.standard_normal((5, 4)), RNG.standard_normal((3, 4))
    rows, labels = np.array([1, 3]), np.array([2, 0])
    f, w = Tensor(fd), Tensor(wd)
    out = _cross_entropy(f, w, labels, rows)
    out.backward()
    f_rows, w_dense = Tensor(fd[rows]), Tensor(wd)
    dense = _cross_entropy(f_rows, w_dense, labels, np.arange(2))
    dense.backward()
    assert out.item() == dense.item()
    expect = np.zeros_like(fd)
    expect[rows] = f_rows.grad
    assert np.array_equal(f.grad, expect)
    assert np.array_equal(w.grad, w_dense.grad)
    check_op(lambda f, w: _cross_entropy(f, w, labels, rows), (5, 4), (3, 4))


def test_cross_entropy_extreme_values_finite():
    t = Tensor(np.array([[1000.0, 999.0], [-1000.0, -1000.5]]))
    out = _cross_entropy(t, np.eye(2), [1, 0], np.arange(2))
    assert np.isfinite(out.item())
    out.backward()
    assert np.all(np.isfinite(t.grad))


def test_l2_normalize_rows_matches_composed_ops_and_grad():
    x = RNG.standard_normal((5, 3))
    ref = x / (x * x).sum(axis=1, keepdims=True) ** 0.5
    assert np.array_equal(l2_normalize_rows(Tensor(x)).data, ref)
    assert np.array_equal(l2_normalize_rows(x), ref)
    seed = RNG.standard_normal((5, 3))
    check_op(lambda a: seeded(l2_normalize_rows(a), seed), (5, 3))


def test_proxy_contrast_matches_composed_ops():
    z, w = RNG.standard_normal((6, 3)), RNG.standard_normal((3, 3))
    expect = composed_proxy_contrast(z, anchor_positives(z, w), SETS, ANCHORS)
    out = _proxy_contrast(*proxy_case(Tensor(z), Tensor(w)))
    assert np.array_equal(out.data, expect)
    assert np.array_equal(_proxy_contrast(*proxy_case(z, w)), expect)
    assert expect[0] > 0 and expect[1] > 0


def test_proxy_contrast_positive_is_the_dot_with_the_weighted_proxy_mix():
    # SC's positive z_a . (weights @ w), its surrogate class, taken as the
    # weighted sum of the proxy logits z_a . w_y inside the kernel
    rows = np.concatenate(ANCHORS)
    for _ in range(20):
        z, w = RNG.standard_normal((6, 3)), RNG.standard_normal((3, 3))
        weights = RNG.random((6, 3))
        pos = (z[rows] * (weights[rows] @ w)).sum(axis=1, keepdims=True)
        expect = composed_proxy_contrast(z, pos, SETS, ANCHORS)
        got = _proxy_contrast(*proxy_case(z, w, weights))
        assert np.abs(got - expect).max() <= 1e-12


def test_proxy_contrast_grads():
    # z reaches the node both as anchors and as keys; both shares accumulate,
    # and each term's gradient carries its own weight
    check_op(lambda z, w: seeded(_proxy_contrast(*proxy_case(z, w)), TERM_SEED),
             (6, 3), (3, 3))


def test_ndarray_operands_defer_to_tensor():
    # numpy defers to the Tensor, which has no arithmetic: a TypeError, not
    # an object array
    a = RNG.standard_normal((3, 3))
    t = Tensor(RNG.standard_normal((3, 3)))
    for op in (lambda: a @ t, lambda: a + t, lambda: a * t, lambda: 2.0 * t,
               lambda: t + 1.0, lambda: t @ a):
        with pytest.raises(TypeError):
            op()


def test_backward_only_reaches_connected_leaves():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    seeded(relu(a), np.full((2, 2), 2.0)).backward()
    assert b.grad is None
    assert np.array_equal(a.grad, np.full((2, 2), 2.0))


def test_scalar_item_and_constant_graph():
    c = Tensor(0.0)
    assert c.item() == 0.0
    total = sum_terms([c, Tensor(1.5)])
    total.backward()  # leaves have no inputs; this must not raise
    assert total.item() == 1.5


def test_linear_is_bitwise_the_composed_ops():
    x, w, b = (RNG.standard_normal(s) for s in ((5, 4), (4, 3), (3,)))
    seed = RNG.standard_normal((5, 3))
    fused = [Tensor(a.copy()) for a in (x, w, b)]
    out = linear(*fused)
    seeded(out, seed).backward()
    assert np.array_equal(out.data, x @ w + b)
    for t, expect in zip(fused, (seed @ w.T, x.T @ seed, seed.sum(axis=0))):
        assert np.array_equal(t.grad, expect)


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
    lambda t, c: relu(t),
    lambda t, c: _cross_entropy(t, c, [0, 2], rows=[0, 2]),
    lambda t, c: _cross_entropy(t, c, [0, 2, 1], np.arange(3)),
    lambda t, c: _cross_entropy(c, t, [0, 2, 1], np.arange(3)),
    lambda t, c: linear(c, t, np.zeros(3)),
    lambda t, c: _proxy_contrast(t, c, np.eye(3), np.eye(3), [np.arange(3)]),
    lambda t, c: _proxy_contrast(t, c, np.eye(3), np.eye(3), [np.array([0]), np.array([1, 2])]),
    lambda t, c: _proxy_contrast(c, t, np.eye(3), np.eye(3), [np.arange(3)]),
    lambda t, c: l2_normalize_rows(t),
])
def test_plain_operand_adds_exactly_one_node(monkeypatch, op):
    t = Tensor(RNG.standard_normal((3, 3)))
    c = RNG.standard_normal((3, 3))
    counter = count_nodes(monkeypatch)
    out = op(t, c)
    assert counter["nodes"] == 1
    assert [p for p, _ in out._inputs] == [t]
    seeded(out, np.ones(out.shape)).backward()
    assert t.grad.shape == t.shape


def test_constant_only_ops_return_plain_arrays():
    x, w, b = RNG.standard_normal((4, 3)), RNG.standard_normal((3, 2)), RNG.standard_normal(2)
    h = linear(x, w, b)
    assert type(h) is np.ndarray and np.array_equal(h, x @ w + b)
    r = relu(h)
    assert type(r) is np.ndarray and np.array_equal(r, np.maximum(h, 0.0))
    ce = _cross_entropy(r, np.eye(2), [1, 0], rows=[0, 2])
    assert type(ce) is np.float64
    assert ce == _cross_entropy(r[[0, 2]], np.eye(2), [1, 0], np.arange(2))
