"""Confidence-log statistics and their CSV round trips."""

import numpy as np
import pytest

from oracles import degenerate_uniform_count, mean_candidate_fraction, stats_rows_reference
from upcsc import analysis
from upcsc.analysis import (ConfidenceLog, confusing_class_histogram, load_confidence_log,
                            top1_accuracy, write_confidences_csv, write_histogram_csv,
                            write_stats_csv)
from upcsc.errors import ConfigError, DataError, ShapeError
from upcsc.numerics import softmax_rows, substream
from upcsc.synthdata import BenchmarkConfig, export_benchmark, generate_benchmark


def random_log(seed, n=40, c=5, epochs=(1, 2), domains=(0, 1, 2)):
    rng = substream(seed)
    return ConfidenceLog(rng.choice(epochs, n), rng.choice(domains, n),
                         softmax_rows(rng.standard_normal((n, c)) * 2),
                         rng.integers(0, c, n))


def test_log_validation():
    with pytest.raises(ShapeError):
        ConfidenceLog([1], [0], np.ones(4), [0])
    with pytest.raises(ShapeError):
        ConfidenceLog([1, 2], [0], np.ones((2, 3)) / 3, [0, 0])
    with pytest.raises(ValueError):
        ConfidenceLog([1], [0], np.ones((1, 3)) / 3, [3])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_log_rejects_non_finite_confidences(bad):
    conf = np.full((2, 3), 1.0 / 3)
    conf[1, 2] = bad
    with pytest.raises(DataError, match="finite"):
        ConfidenceLog([1, 1], [0, 0], conf, [0, 1])


def test_log_filter_and_concat():
    log = random_log(1)
    sub = log.filter(epoch=1)
    mine = log.epochs == 1
    for column in ("epochs", "domains", "conf", "truth"):
        assert np.array_equal(getattr(sub, column), getattr(log, column)[mine]), column
    rebuilt = ConfidenceLog.concatenate(
        [log.filter(epoch=e) for e in (1, 2)])
    assert len(rebuilt) == len(log)
    with pytest.raises(DataError):
        ConfidenceLog.concatenate([])


def test_uus_rate_extremes():
    c = 4
    onehot = np.eye(c)[[0, 1, 2]]
    log = ConfidenceLog([1] * 3, [0] * 3, onehot, [0, 1, 2])
    assert analysis.confidence_rates(log, 0.95)[0] == 0.0
    uniform = np.full((3, c), 1 / c)
    log2 = ConfidenceLog([1] * 3, [0] * 3, uniform, [0, 1, 2])
    assert analysis.confidence_rates(log2, 0.95)[0] == 1.0


def test_uus_rate_rejects_bad_tau_and_empty():
    log = random_log(2)
    with pytest.raises(ConfigError):
        analysis.confidence_rates(log, 0.1)
    with pytest.raises(DataError):
        analysis.confidence_rates(log.filter(epoch=99), 0.9)


def test_confidence_rates_reads_nan_inclusion_when_all_confident():
    log = ConfidenceLog([1, 1], [0, 0], np.array([[0.99, 0.005, 0.005], [0.005, 0.99, 0.005]]),
                        [0, 2])
    uus, inclusion = analysis.confidence_rates(log, 0.9)
    assert uus == 0.0 and np.isnan(inclusion)


def test_degenerate_uniform_counted_separately():
    c = 4
    conf = np.array([[0.25, 0.25, 0.25, 0.25], [0.4, 0.3, 0.2, 0.1]])
    log = ConfidenceLog([1, 1], [0, 0], conf, [0, 1])
    assert degenerate_uniform_count(log, 0.9) == 1
    assert confusing_class_histogram(log, 0.9) == {2: 1}


def test_mean_candidate_fraction():
    conf = np.array([[0.4, 0.3, 0.2, 0.1], [0.3, 0.3, 0.2, 0.2]])
    log = ConfidenceLog([1, 1], [0, 0], conf, [0, 1])
    # candidate sizes 2 and 2, so fraction 2/4
    assert mean_candidate_fraction(log, 0.9) == 0.5
    confident = ConfidenceLog([1], [0], np.array([[0.97, 0.01, 0.01, 0.01]]), [0])
    assert np.isnan(mean_candidate_fraction(confident, 0.9))


def test_top1_accuracy():
    conf = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.5, 0.5, 0.0]])
    assert top1_accuracy(conf, [0, 1, 0]) == 1.0  # tie goes to class 0
    assert top1_accuracy(conf, [0, 0, 1]) == pytest.approx(1 / 3)
    with pytest.raises(DataError):
        top1_accuracy(np.zeros((0, 3)), [])
    with pytest.raises(ShapeError):
        top1_accuracy(conf, [0, 1])


def test_log_source_confidences_joins_truth(tmp_path):
    cfg = BenchmarkConfig(num_domains=3, num_classes=4, latent_dim=6,
                          samples_per_class_per_domain=40, labels_per_class=4,
                          master_seed=5)
    bench = generate_benchmark(cfg)
    rng = substream(77)

    def fake_conf(x):
        return softmax_rows(rng.standard_normal((len(x), cfg.num_classes)))

    log = analysis.log_source_confidences(bench, (0, 2), fake_conf, epoch=3)
    n0 = len(bench.unlabeled(0))
    n2 = len(bench.unlabeled(2))
    assert len(log) == n0 + n2
    assert np.all(log.epochs == 3)
    assert sorted(set(log.domains.tolist())) == [0, 2]
    assert np.array_equal(log.truth[log.domains == 2], bench.quarantined_truth(2))


def test_confidences_csv_round_trip(tmp_path):
    cfg = BenchmarkConfig(num_domains=2, num_classes=3, latent_dim=4,
                          samples_per_class_per_domain=30, labels_per_class=3,
                          master_seed=11)
    bench = generate_benchmark(cfg)
    export_benchmark(bench, tmp_path)
    rng = substream(78)

    def fake_conf(x):
        return softmax_rows(rng.standard_normal((len(x), cfg.num_classes)))

    parts = [analysis.log_source_confidences(bench, (0, 1), fake_conf, epoch=e)
             for e in (1, 2)]
    log = ConfidenceLog.concatenate(parts)
    path = tmp_path / "confidences.csv"
    write_confidences_csv([log], path)
    loaded = load_confidence_log(path, tmp_path)
    assert np.array_equal(loaded.epochs, log.epochs)
    assert np.array_equal(loaded.domains, log.domains)
    assert np.array_equal(loaded.conf, log.conf)  # %.17g is lossless for float64
    assert np.array_equal(loaded.truth, log.truth)


def test_load_confidence_log_takes_unique_rows_in_any_order(tmp_path):
    (tmp_path / "domain0_unlabeled_truth.csv").write_text("label\n0\n1\n")
    (tmp_path / "confidences.csv").write_text(
        "epoch,domain,sample_index,c_0,c_1\n"
        "2,0,1,0.1,0.9\n1,0,1,0.2,0.8\n2,0,0,0.7,0.3\n1,0,0,0.6,0.4\n")
    log = load_confidence_log(tmp_path / "confidences.csv", tmp_path)
    assert log.epochs.tolist() == [2, 1, 2, 1] and log.truth.tolist() == [1, 1, 0, 0]
    assert log.conf[:, 0].tolist() == [0.1, 0.2, 0.7, 0.6]


@pytest.mark.parametrize("seed", range(6))
def test_stats_csv_matches_per_group_oracle(tmp_path, seed):
    # unsorted epochs and domains; at the high thresholds some groups are
    # all unconfident, at the low ones some have no unconfident sample
    rng = substream(90, seed)
    c = int(rng.integers(2, 6))
    log = random_log(90 + seed, n=int(rng.integers(1, 300)), c=c, epochs=(3, 1, 2),
                     domains=(2, 0, 5))
    for tau in (1.0 / c + 1e-3, 0.5 + 0.1 * seed / c, 0.99):
        path = tmp_path / "stats.csv"
        write_stats_csv(log, tau, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        parsed = [(r[0], int(r[1]), int(r[2]), float(r[3])) for r in rows]
        assert parsed == stats_rows_reference(log, tau)


def test_stats_csv_omits_undefined_inclusion(tmp_path):
    conf = np.array([[0.99, 0.005, 0.005], [0.98, 0.01, 0.01]])
    log = ConfidenceLog([1, 1], [0, 1], conf, [0, 0])
    path = tmp_path / "stats.csv"
    write_stats_csv(log, 0.9, path)
    text = path.read_text()
    assert "inclusion_rate" not in text
    assert "uus_rate_micro,1,-1,0" in text


def test_histogram_csv(tmp_path):
    log = random_log(81, n=200, c=5, epochs=(1, 3), domains=(0,))
    path = tmp_path / "hist.csv"
    write_histogram_csv(log, 0.8, epoch=3, path=path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "set_size,count"
    parsed = {int(a): int(b) for a, b in (line.split(",") for line in lines[1:])}
    assert parsed == confusing_class_histogram(log.filter(epoch=3), 0.8)
    sizes = sorted(parsed)
    assert sizes == sorted(set(sizes))  # ascending, unique
