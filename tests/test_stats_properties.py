"""Property tests: the confidence statistics against a loop oracle.

Logs are drawn the way tests/test_partition_properties.py draws batches:
confidence rows from small integer weights, so exact ties, exactly uniform
rows and scores of exactly 1/C occur often, and tau is sometimes drawn equal
to a row's top score to exercise the strict "below tau" boundary. The oracle
restates each statistic with a Python loop over the rows.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import candidate_set_sizes, degenerate_uniform_count
from upcsc.analysis import ConfidenceLog, confusing_class_histogram, inclusion_rate, uus_rate
from upcsc.errors import DataError, UndefinedStatisticError

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def logs(draw):
    c = draw(st.integers(2, 6))
    n = draw(st.integers(1, 12))
    weights = draw(st.lists(st.lists(st.integers(0, 4), min_size=c, max_size=c),
                            min_size=n, max_size=n))
    rows = [[float(v) for v in ws] if any(ws) else [1.0] * c for ws in weights]
    conf = np.array(rows, dtype=np.float64).reshape(n, c)
    conf = conf / conf.sum(axis=1, keepdims=True)
    truth = draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))
    epochs = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    domains = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    tops = [float(v) for v in conf.max(axis=1)]
    on_boundary = [t for t in tops if 1 / c < t < 1]
    if on_boundary and draw(st.booleans()):
        tau = draw(st.sampled_from(on_boundary))
    else:
        tau = draw(st.floats(1 / c, 1.0, exclude_min=True, exclude_max=True))
    return ConfidenceLog(epochs, domains, conf, truth), tau


def loop_oracle(log, tau):
    """(unconfident count, candidate-set sizes, true-class hits) over the
    rows whose top confidence is below tau, in log order."""
    c = log.num_classes
    sizes, hits = [], []
    for row, y in zip(log.conf.tolist(), log.truth.tolist()):
        if max(row) < tau:
            sizes.append(sum(1 for v in row if v > 1 / c))
            hits.append(row[y] > 1 / c)
    return len(sizes), sizes, hits


@SETTINGS
@given(logs())
def test_rates_match_loop_oracle(drawn):
    log, tau = drawn
    n_unconfident, _, hits = loop_oracle(log, tau)
    assert uus_rate(log, tau) == n_unconfident / len(log)
    if n_unconfident:
        assert inclusion_rate(log, tau) == sum(hits) / n_unconfident
    else:
        with pytest.raises(UndefinedStatisticError):
            inclusion_rate(log, tau)


@SETTINGS
@given(logs())
def test_candidate_set_sizes_match_loop_oracle(drawn):
    log, tau = drawn
    _, sizes, _ = loop_oracle(log, tau)
    assert candidate_set_sizes(log, tau).tolist() == sizes


@SETTINGS
@given(logs())
def test_histogram_mass_plus_degenerate_rows_is_the_unconfident_count(drawn):
    log, tau = drawn
    n_unconfident, sizes, _ = loop_oracle(log, tau)
    hist = confusing_class_histogram(log, tau)
    assert hist == dict(Counter(s for s in sizes if s >= 1))
    assert sum(hist.values()) + degenerate_uniform_count(log, tau) == n_unconfident


def test_empty_log_has_no_statistics():
    log = ConfidenceLog([], [], np.zeros((0, 3)), [])
    for stat in (uus_rate, inclusion_rate, candidate_set_sizes):
        with pytest.raises(DataError):
            stat(log, 0.5)
