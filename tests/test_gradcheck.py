"""The finite-difference suite itself, run small but for real."""

import time

import numpy as np
import pytest

from upcsc.gradcheck import (LOSS_NAMES, check_losses, find_checkable_case,
                             pinned_confidences, _relu_margin, _term_values,
                             MIN_TERM_VALUE, RELU_MARGIN, SMALL_DIMS)
from upcsc.synthdata import TrainBatch

TOLERANCE = 1e-4


def test_all_losses_pass_at_tolerance():
    worst = check_losses(num_draws=5, seed=1)
    assert set(worst) == set(LOSS_NAMES)
    for name, err in worst.items():
        assert err < TOLERANCE, f"{name}: {err:.3e}"


def test_checkable_cases_really_are():
    for case_seed in range(3):
        state, batch, rng_keys = find_checkable_case(case_seed)
        conf = pinned_confidences(state, batch, rng_keys)
        values = _term_values(state, batch, rng_keys, conf)
        assert min(values["unsup"], values["upc"], values["sc"]) >= MIN_TERM_VALUE
        assert _relu_margin(state, batch, rng_keys) >= RELU_MARGIN
        assert np.allclose(conf.sum(axis=1), 1.0)


def test_pinning_rejects_a_one_row_unlabeled_batch():
    # a one-row stacked forward rounds differently from a lone weak forward
    state, batch, rng_keys = find_checkable_case(0)
    rows = [TrainBatch(batch.labeled_x, batch.labeled_y, batch.unlabeled_x[:n]) for n in (1, 2)]
    with pytest.raises(ValueError, match="two unlabeled rows"):
        pinned_confidences(state, rows[0], rng_keys)
    assert pinned_confidences(state, rows[1], rng_keys).shape == (2, SMALL_DIMS.num_classes)


def test_draws_are_reproducible():
    a = find_checkable_case(7)
    b = find_checkable_case(7)
    assert np.array_equal(a[1].unlabeled_x, b[1].unlabeled_x)
    assert a[2] == b[2]
    for (name, pa), (_, pb) in zip(a[0].param_items(), b[0].param_items()):
        assert np.array_equal(pa, pb), name


def test_suite_runtime_fits_budget():
    start = time.time()
    check_losses(num_draws=3, seed=2)
    per_draw = (time.time() - start) / 3
    # the acceptance target is 20 draws under a minute
    assert per_draw * 20 < 60.0
