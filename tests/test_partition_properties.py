"""Property tests: the array partition and pair masks against the set oracle.

tests/oracles.py's confidence_sets restates the confidence rule with Python
sets and loops, the way the method is stated: confident when the top score
reaches tau (argmax ties to the lowest class), candidates strictly above 1/C,
excluded classes the complement. Batches come from oracles.confidence_rows,
so exact ties, exactly uniform rows, scores of exactly 1/C and tau equal to
a row's top score occur often; the edge cases below are always run.
"""

import numpy as np
from hypothesis import example, given

from oracles import (PROPERTY_SETTINGS, confidence_rows, confidence_sets,
                     package_pair_selections, pair_selections, partition_sets)
from upcsc.losses import partition_unlabeled


def _uniform(n, c):
    return np.full((n, c), 1.0 / c)


EDGE_CASES = [
    (np.array([[0.5, 0.3, 0.2], [0.4, 0.4, 0.2]]), 0.9),           # n_c = 0
    (np.array([[0.9, 0.05, 0.05], [0.05, 0.05, 0.9]]), 0.6),        # n_u = 0
    (np.zeros((0, 4)), 0.5),                                        # empty batch
    (_uniform(3, 4), 0.5),                                          # all-uniform rows
    (np.array([[0.45, 0.45, 0.1], [0.4, 0.2, 0.4], [0.3, 0.3, 0.4]]), 0.42),  # ties
    (np.array([[0.5, 0.5], [0.7, 0.3], [0.2, 0.8], [0.55, 0.45]]), 0.6),      # C = 2
]


def with_edge_cases(test):
    for conf, tau in EDGE_CASES:
        test = example((conf, tau))(test)
    return test


@PROPERTY_SETTINGS
@with_edge_cases
@given(confidence_rows())
def test_partition_matches_set_oracle(batch):
    conf, tau = batch
    n, c = conf.shape
    part = partition_unlabeled(conf, tau)
    confident, unconfident = confidence_sets(conf, tau)

    assert partition_sets(part) == (confident, unconfident)
    assert part.classes.shape == part.positives.shape == (n, c)
    assert np.isin(part.classes, (0.0, 1.0)).all()
    assert (~part.classes.any(axis=1)).sum() == sum(1 for _, cand in unconfident if not cand)
    assert sorted(part.confident.tolist() + part.unconfident.tolist()) == list(range(n))


@PROPERTY_SETTINGS
@with_edge_cases
@given(confidence_rows())
def test_pair_masks_match_set_oracle(batch):
    conf, tau = batch
    part = partition_unlabeled(conf, tau)
    assert package_pair_selections(part) == pair_selections(conf, tau)


@PROPERTY_SETTINGS
@with_edge_cases
@given(confidence_rows())
def test_surrogate_weights_match_set_oracle(batch):
    conf, tau = batch
    part = partition_unlabeled(conf, tau)
    confident, unconfident = confidence_sets(conf, tau)
    c = conf.shape[1]
    k = np.zeros(conf.shape, dtype=bool)   # the oracle's own candidate sets
    for i, cand in unconfident:
        k[i, list(cand)] = True
    rows = [i for i, _ in unconfident]
    assert part.positives[rows].tolist() == np.where(k, conf, 0.0)[rows].tolist()
    # a confident row is pulled toward its pseudo label's proxy alone
    assert part.positives[[i for i, _ in confident]].tolist() == [
        [float(y == label) for y in range(c)] for _, label in confident]
