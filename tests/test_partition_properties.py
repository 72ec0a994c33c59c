"""Property tests: the array partition and pair masks against a set oracle.

The oracle below rebuilds every role, candidate set and pair selection from
the confidence rows with Python sets and loops, the way the method is stated:
confident when the top score reaches tau (argmax ties to the lowest class),
candidates strictly above 1/C, excluded classes the complement. Confidence
rows are drawn from small integer weights, so exact ties, exactly uniform
rows and scores of exactly 1/C occur often, and tau is sometimes drawn equal
to a row's top score to exercise the inclusive boundary. The confidence-log
statistics are checked on the same rows against the same partition, since
both read one confidence rule.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import UndefinedStatisticError, degenerate_uniform_count, inclusion_rate, uus_rate
from upcsc.analysis import ConfidenceLog, confusing_class_histogram
from upcsc.losses import (_surrogate_weights, partition_unlabeled, sc_anchor_indices,
                          sc_negative_masks, upc_negative_masks)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def set_oracle(conf, tau):
    n, c = conf.shape
    confident, unconfident = [], []
    for i in range(n):
        row = [float(v) for v in conf[i]]
        top = max(row)
        if top >= tau:
            confident.append((i, row.index(top)))
        else:
            unconfident.append((i, frozenset(y for y in range(c) if row[y] > 1 / c)))
    return confident, unconfident


@st.composite
def batches(draw):
    c = draw(st.integers(2, 6))
    n = draw(st.integers(0, 10))
    weights = draw(st.lists(st.lists(st.integers(0, 4), min_size=c, max_size=c),
                            min_size=n, max_size=n))
    rows = [[float(v) for v in ws] if any(ws) else [1.0] * c for ws in weights]
    conf = np.array(rows, dtype=np.float64).reshape(n, c)
    if n:
        conf = conf / conf.sum(axis=1, keepdims=True)
    tops = [float(v) for v in conf.max(axis=1)] if n else []
    on_boundary = [t for t in tops if 1 / c < t < 1]
    if on_boundary and draw(st.booleans()):
        tau = draw(st.sampled_from(on_boundary))
    else:
        tau = draw(st.floats(1 / c, 1.0, exclude_min=True, exclude_max=True))
    return conf, tau


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


@SETTINGS
@with_edge_cases
@given(batches())
def test_partition_matches_set_oracle(batch):
    conf, tau = batch
    n, c = conf.shape
    part = partition_unlabeled(conf, tau)
    confident, unconfident = set_oracle(conf, tau)

    assert part.confident.tolist() == [i for i, _ in confident]
    assert part.pseudo_labels.tolist() == [y for _, y in confident]
    assert part.unconfident.tolist() == [i for i, _ in unconfident]
    assert part.candidates.dtype == bool
    assert part.candidates.shape == (len(unconfident), c)
    for row, (_, cand) in zip(part.candidates, unconfident):
        assert {y for y in range(c) if row[y]} == cand
    assert (~part.candidates.any(axis=1)).sum() == sum(1 for _, cand in unconfident if not cand)
    assert sorted(part.confident.tolist() + part.unconfident.tolist()) \
        == list(range(n))


@SETTINGS
@with_edge_cases
@given(batches())
def test_pair_masks_match_set_oracle(batch):
    conf, tau = batch
    c = conf.shape[1]
    part = partition_unlabeled(conf, tau)
    confident, unconfident = set_oracle(conf, tau)
    pseudo = [y for _, y in confident]
    cands = [cand for _, cand in unconfident]
    everything = frozenset(range(c))

    vs_c, vs_u = upc_negative_masks(part.pseudo_labels, part.candidates)
    assert vs_c.tolist() == [[float(y_j != y_i) for y_j in pseudo] for y_i in pseudo]
    assert vs_u.shape == (len(pseudo), len(cands))
    assert vs_u.tolist() == [[float(y_i in everything - c_j) for c_j in cands]
                             for y_i in pseudo]

    anchors = [a for a, cand in enumerate(cands) if cand]
    assert sc_anchor_indices(part.candidates).tolist() == anchors
    svs_c, svs_u = sc_negative_masks(part.candidates, part.pseudo_labels)
    assert svs_c.shape == (len(anchors), len(pseudo))
    assert svs_u.shape == (len(anchors), len(cands))
    assert svs_c.tolist() == [[float(y_j in everything - cands[a]) for y_j in pseudo]
                              for a in anchors]
    assert svs_u.tolist() == [[float(cands[a].isdisjoint(c_j)) for c_j in cands]
                              for a in anchors]


@SETTINGS
@with_edge_cases
@given(batches())
def test_surrogate_weights_match_set_oracle(batch):
    conf, tau = batch
    part = partition_unlabeled(conf, tau)
    _, unconfident = set_oracle(conf, tau)
    weights = _surrogate_weights(conf[part.unconfident], part.candidates)
    expect = [[float(conf[i, y]) if y in cand else 0.0 for y in range(conf.shape[1])]
              for i, cand in unconfident]
    assert weights.tolist() == expect
    assert part.weights.tolist() == expect


@st.composite
def labeled_batches(draw):
    conf, tau = draw(batches())
    n, c = conf.shape
    return conf, tau, draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))


def with_labeled_edge_cases(test):
    for conf, tau in EDGE_CASES:
        test = example((conf, tau, [i % conf.shape[1] for i in range(len(conf))]))(test)
    return test


@SETTINGS
@with_labeled_edge_cases
@given(labeled_batches())
def test_statistics_agree_with_the_partition(drawn):
    conf, tau, truth = drawn
    n = len(conf)
    if n == 0:
        return   # a statistic over no rows is an error, tested in test_stats_properties
    part = partition_unlabeled(conf, tau)
    _, unconfident = set_oracle(conf, tau)
    log = ConfidenceLog(np.ones(n), np.zeros(n), conf, truth)

    assert uus_rate(log, tau) == len(part.unconfident) / n
    hist = confusing_class_histogram(log, tau)
    assert Counter(hist) + Counter({0: degenerate_uniform_count(log, tau)}) \
        == Counter(part.candidates.sum(axis=1).tolist())
    if unconfident:
        hits = sum(truth[i] in cand for i, cand in unconfident)
        assert inclusion_rate(log, tau) == hits / len(unconfident)
    else:
        with pytest.raises(UndefinedStatisticError):
            inclusion_rate(log, tau)
