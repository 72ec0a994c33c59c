"""Plain-loop reference implementations the tests check the package against."""

import math

import numpy as np

from upcsc.analysis import inclusion_rate, uus_rate
from upcsc.errors import DataError, ShapeError, UndefinedStatisticError
from upcsc.numerics import as_matrix


def pcl_reference_loss(z, w, labels) -> float:
    """Plain-loop proxy contrastive loss over fully labeled embeddings.

    Positive pair (z_i, w_{y_i}); negatives are embeddings of samples with a
    different label. Kept deliberately naive to serve as a value oracle.
    """
    z = as_matrix(z)
    w = as_matrix(w)
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != len(z):
        raise ShapeError("labels and embeddings disagree in length")
    if z.shape[1] != w.shape[1]:
        raise ShapeError("embedding and proxy widths differ")
    if len(z) == 0:
        raise DataError("reference loss needs at least one sample")
    total = 0.0
    for i in range(len(z)):
        pos = math.exp(float(z[i] @ w[labels[i]]))
        rest = 0.0
        for j in range(len(z)):
            if labels[j] != labels[i]:
                rest += math.exp(float(z[i] @ z[j]))
        total += -math.log(pos / (pos + rest))
    return total / len(z)


def stats_rows_reference(log, tau) -> list[tuple]:
    """write_stats_csv's rows, one filtered copy of the log per epoch and per
    (epoch, domain), each statistic from the public per-log functions."""
    rows = []
    for epoch in sorted(set(log.epochs.tolist())):
        elog = log.filter(epoch=epoch)
        uus, inclusion = [], []
        for domain in sorted(set(elog.domains.tolist())):
            dlog = elog.filter(domain=domain)
            uus.append(uus_rate(dlog, tau))
            rows.append(("uus_rate", epoch, domain, uus[-1]))
            try:
                inclusion.append(inclusion_rate(dlog, tau))
                rows.append(("inclusion_rate", epoch, domain, inclusion[-1]))
            except UndefinedStatisticError:
                pass
        rows.append(("uus_rate_micro", epoch, -1, uus_rate(elog, tau)))
        rows.append(("uus_rate_macro", epoch, -1, float(np.mean(uus))))
        if inclusion:
            rows.append(("inclusion_rate_micro", epoch, -1, inclusion_rate(elog, tau)))
            rows.append(("inclusion_rate_macro", epoch, -1, float(np.mean(inclusion))))
    return rows
