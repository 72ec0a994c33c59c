"""Matrix helpers, schedule, SGD, and the finite-difference sweep that the
gradient audit runs."""

import math

import numpy as np
import pytest

from upcsc.autograd import Tensor
from upcsc.errors import DegenerateInputError, ShapeError
from upcsc.gradcheck import _fd_gradients
from upcsc.model import ModelDims, ModelState, init_model
from upcsc.numerics import (LrSchedule, cosine_lr, l2_normalize_rows, max_relative_error,
                            sgd_step, softmax_rows, substream)

RNG = np.random.default_rng(77)


def tiny_state() -> ModelState:
    return init_model(ModelDims(input_dim=2, hidden_dims=(), feature_dim=2, num_classes=2), seed=5)


def test_matmul_matches_triple_loop():
    # the tape's product, which every layer and loss term runs through
    a = RNG.standard_normal((5, 7))
    b = RNG.standard_normal((7, 3))
    out = (Tensor(a) @ Tensor(b)).data
    ref = np.zeros((5, 3))
    for i in range(5):
        for j in range(3):
            for k in range(7):
                ref[i, j] += a[i, k] * b[k, j]
    assert np.allclose(out, ref, atol=1e-12)


def test_softmax_direct_formula():
    m = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    out = softmax_rows(m)
    for i in range(2):
        e = np.exp(m[i] - m[i].max())
        assert np.allclose(out[i], e / e.sum(), atol=1e-12)


def test_softmax_rows_are_probability_vectors():
    for _ in range(1000):
        m = RNG.standard_normal((RNG.integers(1, 6), RNG.integers(2, 7))) * RNG.uniform(0.1, 50)
        out = softmax_rows(m)
        assert np.all(out > 0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_extreme_logits_stable():
    out = softmax_rows(np.array([[1e4, 0.0], [-1e4, 0.0]]))
    assert np.all(np.isfinite(out))
    assert np.allclose(out.sum(axis=1), 1.0)


def test_softmax_empty_rejected():
    with pytest.raises(ShapeError):
        softmax_rows(np.zeros((0, 3)))


def test_l2_normalize_three_four_five():
    out = l2_normalize_rows(np.array([[3.0, 4.0]]))
    assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)


def test_l2_normalize_idempotent_and_unit():
    m = RNG.standard_normal((6, 4))
    once = l2_normalize_rows(m)
    assert np.allclose(np.linalg.norm(once, axis=1), 1.0, atol=1e-12)
    assert np.allclose(l2_normalize_rows(once), once, atol=1e-12)


def test_l2_normalize_zero_row_rejected():
    with pytest.raises(DegenerateInputError):
        l2_normalize_rows(np.array([[0.0, 0.0], [1.0, 1.0]]))


def test_l2_normalize_differentiable_through_tensor():
    t = Tensor(np.array([[3.0, 4.0]]))
    out = l2_normalize_rows(t)
    assert isinstance(out, Tensor)
    out.sum().backward()
    # gradient of sum(x/|x|) = (I - u u^T)/|x| summed over outputs
    u = np.array([0.6, 0.8])
    expect = (np.eye(2) - np.outer(u, u)) @ np.ones(2) / 5.0
    assert np.allclose(t.grad, expect[None, :], atol=1e-12)


def test_cosine_schedule_endpoints_and_monotonicity():
    sch = LrSchedule(base_rate=0.1, total_steps=100)
    assert cosine_lr(sch, 0) == pytest.approx(0.1, abs=0)
    assert cosine_lr(sch, 100) == pytest.approx(0.0, abs=1e-18)
    assert cosine_lr(sch, 50) == pytest.approx(0.05, abs=1e-15)
    values = [cosine_lr(sch, s) for s in range(101)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_cosine_schedule_rejects_bad_inputs():
    with pytest.raises(ValueError):
        LrSchedule(base_rate=0.0, total_steps=10)
    with pytest.raises(ValueError):
        LrSchedule(base_rate=0.1, total_steps=0)
    sch = LrSchedule(0.1, 10)
    with pytest.raises(ValueError):
        cosine_lr(sch, -1)
    with pytest.raises(ValueError):
        cosine_lr(sch, 11)


def test_sgd_step_zero_rate_is_identity():
    state = tiny_state()
    grads = {name: RNG.standard_normal(arr.shape) for name, arr in state.param_items()}
    rates = {"backbone": 0.0, "classifier": 0.0, "projectors": 0.0}
    after = sgd_step(state, grads, rates)
    for (_, a), (_, b) in zip(state.param_items(), after.param_items()):
        assert np.array_equal(a, b)


def test_sgd_step_moves_against_gradient():
    state = tiny_state()
    grads = {name: np.ones_like(arr) for name, arr in state.param_items()}
    rates = {"backbone": 0.5, "classifier": 0.25, "projectors": 0.125}
    after = sgd_step(state, grads, rates)
    for name, before in state.param_items():
        rate = state.group_of(name)
        expect = before - rates[rate]
        assert np.allclose(dict(after.param_items())[name], expect)


def test_sgd_step_shape_mismatch_rejected():
    state = tiny_state()
    bad = {name: np.zeros(arr.shape) for name, arr in state.param_items()}
    bad["classifier.weight"] = np.zeros((1, 1))
    with pytest.raises(ShapeError):
        sgd_step(state, bad, {"backbone": 1, "classifier": 1, "projectors": 1})


def test_finite_diff_on_quadratic():
    state = tiny_state()
    state.featurizer[0][0][0, 0] = 3.0

    def values(s):
        return {"q": s.featurizer[0][0][0, 0] ** 2}

    g = _fd_gradients(values, state)["q"]
    assert g["featurizer.0.weight"][0, 0] == pytest.approx(6.0, abs=1e-6)
    # untouched coordinates have zero slope
    assert np.allclose(g["classifier.weight"], 0.0)
    assert list(g) == [name for name, _ in state.param_items()]


def test_finite_diff_constant_is_zero_and_restores():
    state = tiny_state()
    before = {name: arr.copy() for name, arr in state.param_items()}
    g = _fd_gradients(lambda s: {"c": 42.0}, state)["c"]
    assert all(not arr.any() for arr in g.values())
    for name, arr in state.param_items():
        assert np.array_equal(arr, before[name])


def test_max_relative_error_basics():
    a = {"p": np.array([[1.0, 2.0]])}
    b = {"p": np.array([[1.0, 2.0]])}
    assert max_relative_error(a, b) == 0.0
    c = {"p": np.array([[1.1, 2.0]])}
    assert max_relative_error(a, c) == pytest.approx(0.1 / 1.1)


def test_substream_reproducible_and_keyed():
    assert substream(1, 2, 3).standard_normal(4).tolist() == \
        substream(1, 2, 3).standard_normal(4).tolist()
    assert substream(1, 2, 3).standard_normal(4).tolist() != \
        substream(1, 2, 4).standard_normal(4).tolist()
