"""Statistics over logged unlabeled-pool confidences.

This is the one module allowed to read quarantined ground truth (the
unlabeled split's real labels), and it uses that access only to score
diagnostics after the fact, never to influence training.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .csvio import FLOAT_FORMAT, format_rows, read_csv, read_header, write_csv
from .errors import DataError, ShapeError
from .losses import confidence_roles
from .synthdata import truth_sidecar


@dataclass
class ConfidenceLog:
    """Row-per-sample record: (epoch, domain, confidence row, true label)."""
    epochs: np.ndarray
    domains: np.ndarray
    conf: np.ndarray
    truth: np.ndarray

    def __post_init__(self):
        self.epochs = np.asarray(self.epochs, dtype=np.int64)
        self.domains = np.asarray(self.domains, dtype=np.int64)
        self.conf = np.asarray(self.conf, dtype=np.float64)
        self.truth = np.asarray(self.truth, dtype=np.int64)
        if self.conf.ndim != 2:
            raise ShapeError("confidence block must be 2-D")
        if self.conf.size:
            lo, hi = self.conf.min(), self.conf.max()
            # a nan row is no score at all, not an unconfident sample
            if not np.isfinite([lo, hi]).all():
                raise DataError("confidence rows must be finite")
            if lo < 0.0 or hi > 1.0:
                raise DataError(f"confidence rows must lie in [0, 1], got {lo:g} to {hi:g}")
        n = len(self.conf)
        if not (len(self.epochs) == len(self.domains) == len(self.truth) == n):
            raise ShapeError("log columns disagree in length")
        if n and (self.truth.min() < 0 or self.truth.max() >= self.conf.shape[1]):
            raise ValueError("true label out of range")

    def __len__(self) -> int:
        return len(self.conf)

    @property
    def num_classes(self) -> int:
        return self.conf.shape[1]

    def filter(self, epoch: int) -> "ConfidenceLog":
        mask = self.epochs == epoch
        return ConfidenceLog(self.epochs[mask], self.domains[mask],
                             self.conf[mask], self.truth[mask])

    @classmethod
    def concatenate(cls, logs) -> "ConfidenceLog":
        logs = [l for l in logs if len(l)]
        if not logs:
            raise DataError("nothing to concatenate")
        return cls(np.concatenate([l.epochs for l in logs]),
                   np.concatenate([l.domains for l in logs]),
                   np.concatenate([l.conf for l in logs]),
                   np.concatenate([l.truth for l in logs]))


def _epoch_domain_groups(log: ConfidenceLog) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): a stable sort of the log by (epoch, domain), which
    keeps log order within a group, and the sorted position where each
    group starts."""
    order = np.lexsort((log.domains, log.epochs))
    epochs, domains = log.epochs[order], log.domains[order]
    group_start = np.ones(len(log), dtype=bool)
    group_start[1:] = (epochs[1:] != epochs[:-1]) | (domains[1:] != domains[:-1])
    return order, np.flatnonzero(group_start)


def _group_counts(log: ConfidenceLog, tau: float):
    """(epochs, domains, counts) of the log's (epoch, domain) groups in
    _epoch_domain_groups order; counts[g] is (samples, unconfident samples,
    unconfident samples whose true class is a candidate), by confidence_roles."""
    if len(log) == 0:
        raise DataError("statistic over an empty log")
    is_confident, k = confidence_roles(log.conf, tau)
    hit = k[np.arange(len(log)), log.truth] & ~is_confident
    order, starts = _epoch_domain_groups(log)
    flags = np.stack([np.ones(len(log), dtype=bool), ~is_confident, hit], axis=1)
    counts = np.add.reduceat(np.take(flags, order, axis=0), starts, axis=0, dtype=np.int64)
    return log.epochs[order[starts]], log.domains[order[starts]], counts


def confidence_rates(log: ConfidenceLog, tau: float) -> tuple[float, float]:
    """(uus_rate, inclusion_rate) from the log's summed group counts; the
    inclusion rate is nan when no sample is unconfident."""
    n, n_unconfident, n_hit = _group_counts(log, tau)[2].sum(axis=0).tolist()
    return n_unconfident / n, n_hit / n_unconfident if n_unconfident else math.nan


def confusing_class_histogram(log: ConfidenceLog, tau: float) -> dict[int, int]:
    """Counts of candidate-set sizes >= 1 over unconfident samples; size-0
    rows (exactly uniform confidence) are left out."""
    if len(log) == 0:
        raise DataError("statistic over an empty log")
    is_confident, k = confidence_roles(log.conf, tau)
    counts = np.bincount(k[~is_confident].sum(axis=1))
    return {size: n for size, n in enumerate(counts.tolist()) if size and n}


def top1_accuracy(conf, truth) -> float:
    """Accuracy of argmax predictions (ties go to the lowest class index)."""
    conf = np.asarray(conf, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.int64)
    if conf.ndim != 2 or len(conf) != len(truth):
        raise ShapeError("predictions and labels disagree in shape")
    if len(truth) == 0:
        raise DataError("accuracy over an empty set")
    return np.count_nonzero(conf.argmax(axis=1) == truth) / len(truth)


def log_source_confidences(benchmark, source_ids, confidence_fn, epoch: int) -> ConfidenceLog:
    """Score every source domain's raw unlabeled pool and attach quarantined truth.

    confidence_fn maps an input matrix to confidence rows; inputs are the
    stored samples, not augmented views.
    """
    parts = []
    for d in source_ids:
        conf = confidence_fn(benchmark.unlabeled(d))
        truth = benchmark.quarantined_truth(d)
        if len(conf) != len(truth):
            raise ShapeError("confidence rows and truth sidecar disagree in length")
        parts.append(ConfidenceLog(np.full(len(truth), epoch), np.full(len(truth), d),
                                   conf, truth))
    return ConfidenceLog.concatenate(parts)


# ------------------------------------------------------------------- CSV I/O

def _confidence_header(c: int) -> list[str]:
    return ["epoch", "domain", "sample_index"] + [f"c_{i}" for i in range(c)]


def write_confidences_csv(logs, path) -> None:
    """epoch,domain,sample_index,c_0..c_{C-1} for an iterable of logs, read
    one at a time; sample_index counts within each (epoch, domain) group and
    matches the unlabeled split's row order.

    Each log's epochs must all come after the previous log's, as
    harness.train_one's per-epoch logs do. Then the file equals the one for
    the logs' concatenation: a stable (epoch, domain) sort of the whole is
    the logs' own sorts placed one after another.
    """
    logs = iter(logs)
    first = next(logs, None)
    if first is None:
        raise DataError("no confidence log to write")
    c = first.num_classes
    row_format = "%d,%d,%d," + ",".join([FLOAT_FORMAT] * c)

    def chunks():
        last_epoch = -math.inf
        for log in itertools.chain([first], logs):
            if not len(log):
                continue
            if log.epochs.min() <= last_epoch:
                raise DataError(f"confidence log for epoch {log.epochs.min()} "
                                f"after epoch {last_epoch}")
            last_epoch = log.epochs.max()
            order, starts = _epoch_domain_groups(log)
            sample_index = np.empty(len(log), dtype=np.int64)
            group_sizes = np.diff(starts, append=len(log))
            sample_index[order] = np.arange(len(log)) - np.repeat(starts, group_sizes)
            yield from format_rows(row_format, log.epochs, log.domains, sample_index, log.conf)

    write_csv(path, _confidence_header(c), chunks())


def confidence_classes(confidences_path) -> int:
    """The class count C that a confidences CSV's header declares; a
    DataError unless it is epoch,domain,sample_index,c_0..c_{C-1}, C >= 2."""
    header = read_header(confidences_path)
    c = len(header) - 3
    if c < 2 or header != _confidence_header(c):
        raise DataError(f"{confidences_path}: unexpected confidences header")
    return c


def load_confidence_log(confidences_path, truth_dir) -> ConfidenceLog:
    """Join a confidences CSV with the per-domain synthdata.truth_sidecar files."""
    c = confidence_classes(confidences_path)
    rows = read_csv(confidences_path, _confidence_header(c),
                    [("epoch", np.int64), ("domain", np.int64), ("sample_index", np.int64),
                     ("conf", np.float64, (c,))])
    if not len(rows):
        raise DataError(f"{confidences_path}: confidences file has no data rows")
    epochs, domains, sample_index = rows["epoch"], rows["domain"], rows["sample_index"]
    # a stable sort puts each repeat right after the row it repeats
    order = np.lexsort((sample_index, epochs, domains))
    same = np.ones(len(rows) - 1, dtype=bool)
    for column in (domains, epochs, sample_index):
        column = column[order]
        same &= column[1:] == column[:-1]
    if same.any():
        first = order[1:][same].min()
        raise DataError(f"{confidences_path}: (epoch, domain, sample_index) "
                        f"({epochs[first]}, {domains[first]}, {sample_index[first]}) "
                        "repeats an earlier row")
    labels = np.empty(len(rows), dtype=np.int64)
    for domain in np.unique(domains).tolist():
        truth_path, truth_header = truth_sidecar(truth_dir, domain)
        truth = read_csv(truth_path, truth_header, np.int64)
        bad = (truth < 0) | (truth >= c)
        if bad.any():
            raise DataError(f"{truth_path}: true label {truth[bad][0]} outside 0..{c - 1}")
        mine = domains == domain
        idx = sample_index[mine]
        bad = (idx < 0) | (idx >= len(truth))
        if bad.any():
            raise DataError(f"{confidences_path}: sample_index {idx[bad][0]} outside "
                            f"truth sidecar {truth_path}")
        labels[mine] = truth[idx]
    try:
        return ConfidenceLog(epochs, domains, rows["conf"], labels)
    except DataError as exc:
        raise DataError(f"{confidences_path}: {exc}") from exc


def write_stats_csv(log: ConfidenceLog, tau: float, path) -> None:
    """statistic,epoch,domain,value rows.

    Per-domain rows first, then domain -1 aggregates: micro pools all samples
    of the epoch, macro averages the per-domain values. Inclusion rows are
    omitted where the statistic is undefined (no unconfident samples).
    """
    group_epochs, group_domains, counts = _group_counts(log, tau)
    rows = []
    for epoch in np.unique(group_epochs).tolist():
        mine = group_epochs == epoch
        uus, inclusion = [], []
        for domain, (n, n_unconfident, n_hit) in zip(group_domains[mine].tolist(),
                                                      counts[mine].tolist()):
            uus.append(n_unconfident / n)
            rows.append(("uus_rate", epoch, domain, uus[-1]))
            if n_unconfident:
                inclusion.append(n_hit / n_unconfident)
                rows.append(("inclusion_rate", epoch, domain, inclusion[-1]))
        n, n_unconfident, n_hit = counts[mine].sum(axis=0).tolist()
        rows.append(("uus_rate_micro", epoch, -1, n_unconfident / n))
        rows.append(("uus_rate_macro", epoch, -1, float(np.mean(uus))))
        if inclusion:
            rows.append(("inclusion_rate_micro", epoch, -1, n_hit / n_unconfident))
            rows.append(("inclusion_rate_macro", epoch, -1, float(np.mean(inclusion))))
    write_csv(path, ["statistic", "epoch", "domain", "value"],
              format_rows("%s,%d,%d," + FLOAT_FORMAT, *zip(*rows)))


def write_histogram_csv(log: ConfidenceLog, tau: float, epoch: int, path) -> None:
    """set_size,count rows for one epoch, ascending by size."""
    hist = confusing_class_histogram(log.filter(epoch=epoch), tau)
    write_csv(path, ["set_size", "count"],
              format_rows("%d,%d", *zip(*sorted(hist.items()))))
