"""The finite-difference suite itself, run small but for real, and the
coordinate sweep it runs."""

from dataclasses import fields

import numpy as np
import pytest

from oracles import tiny_state
from upcsc.errors import ConfigError
from upcsc.gradcheck import (check_losses, find_checkable_case, _analytic_gradients,
                             _error_ratio, _fd_gradients, _relu_margin, _term_values,
                             _ALL_FLAGS, MIN_TERM_VALUE, RELU_MARGIN, TAU)
from upcsc.losses import BatchPartition, LossBreakdown, build_loss_graph
from upcsc.model import param_layout
from upcsc.synthdata import TrainBatch


def test_all_losses_pass_at_tolerance():
    # seed 9 first failed a central difference's truncation error at its 4th
    # draw (l_sc, 1.6e-3 relative), and seed 4 its rounding noise under a 1e-8
    # relative-error floor at its 10th (l_unsup, 1.1e-3 relative)
    for seed, draws in ((1, 5), (9, 4), (4, 10)):
        report = check_losses(num_draws=draws, seed=seed)
        assert list(report) == [f.name for f in fields(LossBreakdown)]
        for name, (ratio, passed) in report.items():
            assert passed and ratio <= 1.0, f"seed {seed}, {name}: {ratio:.3f} of its allowance"


def test_error_ratio_allows_rounding_noise_but_not_a_one_percent_error():
    # seed 4's l_unsup coordinate: 1e-11 apart, rounding noise at a term of ~1
    assert _error_ratio(np.array([1.698e-9]), np.array([1.688e-9]), 0.5) <= 1.0
    one = np.array([1.0])
    assert _error_ratio(one, one.copy(), 0.5) == 0.0
    assert _error_ratio(one, np.array([1.01]), 0.5) > 1.0
    # the worst coordinate decides
    assert _error_ratio(np.array([1.0, 0.0]), np.array([1.0, 1e-2]), 0.5) > 1.0


def test_fd_gradients_of_a_quadratic_and_a_linear_map():
    state = tiny_state()
    state.featurizer[0][0][0, 0] = 3.0
    layout = param_layout(state.dims)

    def values(s):
        # "order" has slope k at the k-th coordinate of the declaration order
        flat = np.concatenate([s.params[name].ravel() for name in layout])
        return {"q": s.featurizer[0][0][0, 0] ** 2, "order": np.arange(flat.size) @ flat}

    g = _fd_gradients(values, state)
    size = sum(arr.size for _, arr in state.param_items())
    assert g["q"].shape == g["order"].shape == (size,)
    # featurizer.0.weight[0, 0] is the first coordinate
    assert g["q"][0] == pytest.approx(6.0, abs=1e-6)
    # untouched coordinates have zero slope
    assert np.allclose(g["q"][1:], 0.0)
    assert np.allclose(g["order"], np.arange(size), atol=1e-6)


def test_fd_gradients_of_a_constant_are_zero_and_restore_the_state():
    state = tiny_state()
    before = {name: arr.copy() for name, arr in state.param_items()}
    g = _fd_gradients(lambda s: {"c": 42.0}, state)["c"]
    assert g.size == sum(arr.size for arr in before.values()) and not g.any()
    for name, arr in state.param_items():
        assert np.array_equal(arr, before[name])


def test_a_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="^seed must be nonnegative"):
        check_losses(num_draws=1, seed=-1)


def test_checkable_cases_really_are():
    for case_seed in range(3):
        state, batch, views, part = find_checkable_case(case_seed)
        values = _term_values(state, batch, views, part)
        assert min(values["l_unsup"], values["l_upc"], values["l_sc"]) >= MIN_TERM_VALUE
        assert _relu_margin(state, batch, views) >= RELU_MARGIN
        rows = np.concatenate([part.confident, part.unconfident])
        assert sorted(rows.tolist()) == list(range(len(batch.unlabeled_x)))
        assert np.all(part.positives.sum(axis=1) <= 1.0 + 1e-12)


@pytest.mark.parametrize("n_u", [1, 2])
def test_pinning_the_graphs_own_partition_changes_nothing(n_u):
    # the pin is the partition object the free graph returned, so even a
    # one-row batch, whose stacked forward rounds differently from a lone
    # weak forward, reproduces every term and gradient bit for bit
    state, batch, views, _ = find_checkable_case(0)
    n = len(batch.unlabeled_x)
    small = TrainBatch(batch.labeled_x, batch.labeled_y, batch.unlabeled_x[:n_u])
    small_views = views[np.r_[:n_u, n:n + n_u]]   # both views of the kept rows
    terms, part, _ = build_loss_graph(state, small, small_views, _ALL_FLAGS, TAU)
    free = {name: t.item() for name, t in terms.items()}
    assert len(part.confident) + len(part.unconfident) == n_u
    assert _term_values(state, small, small_views, part) == free
    pinned = _analytic_gradients(state, small, small_views, part)
    for name, grad in _analytic_gradients(state, small, small_views, None).items():
        assert np.array_equal(pinned[name], grad), name


def test_draws_are_reproducible():
    a = find_checkable_case(7)
    b = find_checkable_case(7)
    assert np.array_equal(a[1].unlabeled_x, b[1].unlabeled_x)
    assert np.array_equal(a[2], b[2])
    for field in (f.name for f in fields(BatchPartition)):
        assert np.array_equal(getattr(a[3], field), getattr(b[3], field)), field
    for (name, pa), (_, pb) in zip(a[0].param_items(), b[0].param_items()):
        assert np.array_equal(pa, pb), name
