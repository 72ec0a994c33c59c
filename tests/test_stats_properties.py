"""Property tests: the confidence statistics against the loop oracle.

Logs take their rows from oracles.confidence_rows, as the partition's
property tests do, so exact ties, exactly uniform rows, scores of exactly
1/C and tau equal to a row's top score (the strict "below tau" boundary)
occur often. oracles.confidence_counts counts each statistic's rows through
the set oracle the partition is checked against.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (PROPERTY_SETTINGS, UndefinedStatisticError, candidate_set_sizes,
                     confidence_counts, confidence_rows, degenerate_uniform_count,
                     inclusion_rate, uus_rate)
from upcsc.analysis import ConfidenceLog, confusing_class_histogram
from upcsc.errors import DataError


@st.composite
def logs(draw):
    conf, tau = draw(confidence_rows(min_rows=1, max_rows=12))
    n, c = conf.shape
    truth = draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))
    epochs = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    domains = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return ConfidenceLog(epochs, domains, conf, truth), tau


@PROPERTY_SETTINGS
@given(logs())
def test_rates_match_loop_oracle(drawn):
    log, tau = drawn
    n_unconfident, _, hits = confidence_counts(log, tau)
    assert uus_rate(log, tau) == n_unconfident / len(log)
    if n_unconfident:
        assert inclusion_rate(log, tau) == sum(hits) / n_unconfident
    else:
        with pytest.raises(UndefinedStatisticError):
            inclusion_rate(log, tau)


@PROPERTY_SETTINGS
@given(logs())
def test_candidate_set_sizes_match_loop_oracle(drawn):
    log, tau = drawn
    _, sizes, _ = confidence_counts(log, tau)
    assert candidate_set_sizes(log, tau).tolist() == sizes


@PROPERTY_SETTINGS
@given(logs())
def test_histogram_mass_plus_degenerate_rows_is_the_unconfident_count(drawn):
    log, tau = drawn
    n_unconfident, sizes, _ = confidence_counts(log, tau)
    hist = confusing_class_histogram(log, tau)
    assert hist == dict(Counter(s for s in sizes if s >= 1))
    assert sum(hist.values()) + degenerate_uniform_count(log, tau) == n_unconfident


def test_empty_log_has_no_statistics():
    log = ConfidenceLog([], [], np.zeros((0, 3)), [])
    for stat in (uus_rate, inclusion_rate, candidate_set_sizes):
        with pytest.raises(DataError):
            stat(log, 0.5)
