"""Matrix helpers, schedule and SGD."""

import math

import numpy as np
import pytest

from oracles import tiny_state
from upcsc.errors import DegenerateInputError, ShapeError
from upcsc.numerics import cosine_lr, l2_normalize_rows, sgd_step, softmax_rows, substream

RNG = np.random.default_rng(77)


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


def test_cosine_schedule_endpoints_and_monotonicity():
    assert cosine_lr(0.1, 0, 100) == pytest.approx(0.1, abs=0)
    assert cosine_lr(0.1, 100, 100) == pytest.approx(0.0, abs=1e-18)
    assert cosine_lr(0.1, 50, 100) == pytest.approx(0.05, abs=1e-15)
    values = [cosine_lr(0.1, s, 100) for s in range(101)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_cosine_schedule_rejects_bad_inputs():
    # the base rate and the step count are TrainConfig's to check
    # (test_harness.py::test_config_validation); the step range is checked here
    with pytest.raises(ValueError):
        cosine_lr(0.1, -1, 10)
    with pytest.raises(ValueError):
        cosine_lr(0.1, 11, 10)


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


def test_sgd_step_shares_no_memory_with_its_inputs():
    # the new state holds the update's own arrays, uncopied, so none of them
    # may be a view of a parameter or a gradient
    state = tiny_state()
    grads = {name: np.zeros_like(arr) for name, arr in state.param_items()}
    after = sgd_step(state, grads, {"backbone": 0.0, "classifier": 0.0, "projectors": 0.0})
    assert after.dims == state.dims
    for name, arr in after.param_items():
        assert not np.shares_memory(arr, state.params[name]), name
        assert not np.shares_memory(arr, grads[name]), name


def test_sgd_step_shape_mismatch_rejected():
    state = tiny_state()
    bad = {name: np.zeros(arr.shape) for name, arr in state.param_items()}
    bad["classifier.weight"] = np.zeros((1, 1))
    with pytest.raises(ShapeError):
        sgd_step(state, bad, {"backbone": 1, "classifier": 1, "projectors": 1})


def test_substream_reproducible_and_keyed():
    assert substream(1, 2, 3).standard_normal(4).tolist() == \
        substream(1, 2, 3).standard_normal(4).tolist()
    assert substream(1, 2, 3).standard_normal(4).tolist() != \
        substream(1, 2, 4).standard_normal(4).tolist()
