"""Plain-loop reference implementations the tests check the package against,
the test-side scalar node that seeds a backward pass, and helpers that only
tests call."""

import ctypes
import math

import numpy as np

from upcsc.analysis import inclusion_rate, uus_rate
from upcsc.autograd import _node
from upcsc.errors import ConfigError, DataError, ShapeError, UndefinedStatisticError
from upcsc.losses import confidence_roles
from upcsc.model import ModelState
from upcsc.numerics import _openblas_functions, as_matrix


def seeded(out, s):
    """The scalar sum(out * s) as one node, so out.grad becomes s on backward."""
    return _node((out.data * s).sum(), (out, lambda g: g * s))


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


def candidate_set_sizes(log, tau) -> np.ndarray:
    """|candidate set| of each unconfident sample of a ConfidenceLog, in log
    order, by losses.confidence_roles."""
    if len(log) == 0:
        raise DataError("statistic over an empty log")
    is_confident, k = confidence_roles(log.conf, tau)
    return k[~is_confident].sum(axis=1)


def degenerate_uniform_count(log, tau) -> int:
    """Unconfident samples with an empty candidate set (exactly uniform rows)."""
    return int((candidate_set_sizes(log, tau) == 0).sum())


def mean_candidate_fraction(log, tau) -> float:
    """E[|candidate set|] / C over unconfident samples: the chance level that
    inclusion_rate should be compared against."""
    sizes = candidate_set_sizes(log, tau)
    if sizes.size == 0:
        raise UndefinedStatisticError("no unconfident samples")
    return float(sizes.mean()) / log.num_classes


def with_params(state, arrays) -> ModelState:
    """New ModelState taking any array present in `arrays`, copying the rest."""
    return ModelState(state.dims, {name: arrays.get(name, a).copy()
                                   for name, a in state.param_items()})


def invert(spec, x) -> np.ndarray:
    """Latent rows behind a DomainSpec's observations: spec.apply undone."""
    return ((x - spec.shift) @ spec.rotation) / spec.scale


def final_accuracies(result) -> dict[tuple[int, int], float]:
    """Final target accuracy of each run of a ProtocolResult, by (target, seed)."""
    return {(r.target, r.seed): r.final_accuracy for r in result.runs}


def paired_deltas(a, b) -> np.ndarray:
    """Final-accuracy differences a - b over matching (target, seed) pairs."""
    fa, fb = final_accuracies(a), final_accuracies(b)
    if fa.keys() != fb.keys():
        raise ConfigError("protocols cover different (target, seed) pairs")
    return np.asarray([fa[k] - fb[k] for k in sorted(fa)])


def blas_threads() -> dict[str, int]:
    """Thread count of each loaded OpenBLAS, keyed by its path."""
    return {path: get() for path, get in _openblas_functions("get", [], ctypes.c_int)}
