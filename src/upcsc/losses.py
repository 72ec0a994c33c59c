"""Training objectives: supervised CE, confidence-gated consistency, and the
two proxy-contrastive terms over the unlabeled batch, all built on one tape
by build_loss_graph.

Batch roles come from the weak-view confidences, which are always treated as
constants: gradients flow through the projected embeddings and the proxies,
never through the partition's roles, class sets or positive weights.

A sample is "confident" when its top confidence reaches the threshold; its
class set is then its pseudo label. Every other sample is "unconfident" and
its class set is its row of the candidate matrix K: K[i, y] is True when
class y scores strictly above uniform (1/C). A row's excluded classes are
the complement of its set, always derived, never stored. Both rules are
written once, in confidence_roles, which the statistics in analysis read as
well. The partition stores each row's class set as a 0/1 row, and the
weights of the proxies the row is pulled toward beside it. UPC and SC select
pairs by one rule, negative_pairs: two rows are a negative pair when their
class sets are disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, _node, value_of
from .errors import ConfigError, ShapeError
from .model import ModelState, class_confidence, featurize, project_features, project_proxies
from .numerics import as_matrix


@dataclass(frozen=True)
class MethodFlags:
    """Which terms beyond supervised CE participate in the total loss."""
    unsup: bool = True
    upc: bool = True
    sc: bool = True


@dataclass(frozen=True, eq=False)
class BatchPartition:
    """Roles of the rows of one unlabeled batch, as arrays.

    confident (n_c,) are batch rows in increasing order, unconfident (n_u,)
    the remaining rows in increasing order. classes (n, C) holds each row's
    class set as 0/1: the one-hot pseudo label of a confident row, the row
    of K of an unconfident one, empty for an exactly uniform row. positives
    (n, C) holds the weights of the proxies each row is pulled toward: the
    same one-hot for a confident row, its surrogate weights K * conf for an
    unconfident one.
    """
    confident: np.ndarray
    unconfident: np.ndarray
    classes: np.ndarray
    positives: np.ndarray


def check_threshold(tau: float, num_classes: int) -> None:
    if not (1.0 / num_classes < tau < 1.0):
        raise ConfigError(f"'tau' must lie strictly between 1/'num_classes' = 1/{num_classes} "
                          f"and 1, got {tau}")


def confidence_roles(conf, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """The confidence rule: (is_confident (n,), K (n, C)) for confidence rows.

    A row is confident when its top score reaches tau (max >= tau). K[i, y]
    is True when class y scores strictly above uniform (> 1/C), so an exactly
    uniform row has no candidate; K is only read for unconfident rows.
    """
    conf = as_matrix(conf)
    c = conf.shape[1]
    if c < 2:
        raise ShapeError("confidence matrix needs at least two columns")
    check_threshold(tau, c)
    return conf.max(axis=1) >= tau, conf > 1.0 / c


def partition_unlabeled(conf, tau: float) -> BatchPartition:
    """Split confidence rows into confident and unconfident rows by
    confidence_roles, with their class sets and positive weights. Pseudo
    labels break argmax ties toward the lowest class index."""
    conf = as_matrix(conf)
    is_confident, k = confidence_roles(conf, tau)
    ci, ui = np.flatnonzero(is_confident), np.flatnonzero(~is_confident)
    classes, positives = k.astype(np.float64), np.where(k, conf, 0.0)
    classes[ci] = positives[ci] = np.eye(conf.shape[1])[conf[ci].argmax(axis=1)]
    return BatchPartition(ci, ui, classes, positives)


@dataclass(frozen=True)
class LossBreakdown:
    """One step's loss terms: the one list of their names, in build_loss_graph's order."""
    l_sup: float
    l_unsup: float
    l_upc: float
    l_sc: float
    l_total: float


def param_gradients(tape_state) -> dict[str, np.ndarray]:
    """One gradient array per parameter of a ModelState of Tensors, by name;
    zeros where no gradient flowed."""
    return {name: t.grad if t.grad is not None else np.zeros_like(t.data)
            for name, t in tape_state.param_items()}


def _cross_entropy(features, classifier, labels, rows) -> Tensor:
    """Mean cross-entropy of the proxy logits f @ classifier.T over the rows f
    of features that `rows` selects; rows must be strictly increasing, so
    their gradient scatters back by plain assignment, and each label must lie
    in [0, C). One node: with d = g/n (softmax - onehot), the gradient is
    d @ classifier for f and (f.T @ d).T for the classifier."""
    fd, w = value_of(features), value_of(classifier)
    if not (np.diff(rows) > 0).all():
        raise ValueError("cross-entropy needs strictly increasing row indices")
    f = fd[rows]
    a = f @ w.T
    n, labels = len(a), np.asarray(labels, dtype=np.intp)
    if labels.size and (labels.min() < 0 or labels.max() >= a.shape[1]):
        raise ValueError("label out of range")
    picked = np.arange(n), labels
    m = a.max(axis=1, keepdims=True)   # shifts logsumexp exactly, so no overflow
    e = np.exp(a - m)
    s = e.sum(axis=1, keepdims=True)
    value = (np.log(s) + m - a[picked][:, None]).sum() * (1.0 / n)
    p = e / s
    p[picked] -= 1.0

    def f_grad(g):
        full = np.zeros_like(fd)
        full[rows] = g / n * p @ w
        return full

    return _node(value, (features, f_grad), (classifier, lambda g: (f.T @ (g / n * p)).T))


def negative_pairs(classes, anchors) -> np.ndarray:
    """The one negative-pair rule of UPC and SC: [i, j] is True when anchor
    row anchors[i] and row j have disjoint class sets. Shared-class counts
    are small integers, exact in float64. A row never pairs with itself, nor
    with its other view, which shares its set."""
    return classes[anchors] @ classes.T == 0.0


def _proxy_contrast(z, proxies, classes, positives, anchors) -> Tensor:
    """The proxy-contrastive loss of PCL (Yao et al., CVPR 2022), one value per
    term t: the mean over its anchor rows i in anchors[t] of
    log(1 + sum_j m_ij exp(z_i . z_j) exp(-pos_i)), with j over every row of
    z, m the negative_pairs of the class sets `classes`, and positive logits
    pos_i = sum_y positives_iy (z_i . w_y) over the proxy rows w_y. UPC's
    positives are one-hot pseudo labels, SC's the surrogate weights. This is
    log(exp(pos) + rest) - pos, arranged so an anchor with no negatives
    contributes log(1) = 0 exactly instead of rounding noise.

    One tape node over one anchors x rows product. With S the (n_a, terms)
    share matrix, q_i = (S g)_i exp(-pos_i) / (1 + rest_i), G = q W over the
    masked exps W and P = -q rest positives, the gradient is G.T @ z_a, plus
    G @ z + P @ proxies on the anchor rows, for z; P.T @ z_a for the proxies.
    """
    zd, w = value_of(z), value_of(proxies)
    rows, sizes = np.concatenate(anchors), [len(a) for a in anchors]
    shares = np.repeat(np.eye(len(sizes)) / sizes, sizes, axis=0)
    za, weights = zd[rows], positives[rows]
    pos = (za @ w.T * weights).sum(axis=1, keepdims=True)
    masked = np.exp(za @ zd.T)
    masked *= negative_pairs(classes, rows)
    rest = masked.sum(axis=1, keepdims=True)
    e_neg = np.exp(-pos)
    inner = 1.0 + rest * e_neg
    r = e_neg / inner   # d log(inner) / d rest, per anchor

    def positive(g):   # d values / d (z_a . w_y); q W is d values / d (z_a . z_j)
        return -(shares @ g)[:, None] * r * rest * weights

    def z_grad(g):
        keys = (shares @ g)[:, None] * r * masked
        out = keys.T @ za
        out[rows] += keys @ zd + positive(g) @ w
        return out

    return _node(np.log(inner).ravel() @ shares, (z, z_grad),
                 (proxies, lambda g: positive(g).T @ za))


def contrastive_terms(z, proxies, part: BatchPartition, flags: MethodFlags):
    """(l_upc, l_sc) over the rows of z in the roles `part` gives them, from
    one _proxy_contrast node, each term a one-entry node over its values.
    UPC's anchors are the confident rows, SC's sc_anchor_rows; every row is a
    key. A term that is off or has no anchor is a zero leaf."""
    n_c, n_u, n, c = len(part.confident), len(part.unconfident), z.shape[0], proxies.shape[0]
    if (n_c + n_u != n or np.shape(part.classes) != (n, c)
            or np.shape(part.positives) != (n, c)):
        raise ShapeError(f"{n_c} confident and {n_u} unconfident rows, classes "
                         f"{np.shape(part.classes)} and positives {np.shape(part.positives)} "
                         f"do not fit {n} rows of {c} classes")
    anchors = [part.confident if flags.upc else [], sc_anchor_rows(part) if flags.sc else []]
    live = [t for t, a in enumerate(anchors) if len(a)]
    if not live:
        return Tensor(0.0), Tensor(0.0)
    values = _proxy_contrast(z, proxies, part.classes, part.positives,
                             [anchors[t] for t in live])
    terms = {t: _node(value_of(values)[k], (values, lambda g, k=k: np.eye(len(live))[k] * g))
             for k, t in enumerate(live)}
    return tuple(terms[t] if t in terms else Tensor(0.0) for t in range(2))


def sc_anchor_rows(part: BatchPartition) -> np.ndarray:
    """SC's anchors: the unconfident rows with at least one candidate."""
    return part.unconfident[part.classes[part.unconfident].any(axis=1)]


def upc_negative_masks(part: BatchPartition) -> tuple[np.ndarray, np.ndarray]:
    """UPC's (vs_confident, vs_unconfident) column blocks of negative_pairs,
    one row per confident anchor."""
    mask = negative_pairs(part.classes, part.confident)
    return mask[:, part.confident], mask[:, part.unconfident]


def sc_negative_masks(part: BatchPartition) -> tuple[np.ndarray, np.ndarray]:
    """SC's (vs_confident, vs_unconfident) column blocks of negative_pairs,
    one row per anchor of sc_anchor_rows."""
    mask = negative_pairs(part.classes, sc_anchor_rows(part))
    return mask[:, part.confident], mask[:, part.unconfident]


def upc_loss(z, w, part: BatchPartition) -> Tensor:
    """UPC alone over the rows of z in the roles `part` gives them; a zero leaf
    with no confident row."""
    return contrastive_terms(z, w, part, MethodFlags(upc=True, sc=False))[0]


def sc_loss(z, w, part: BatchPartition) -> Tensor:
    """SC alone, as upc_loss; a zero leaf with no anchor in sc_anchor_rows."""
    return contrastive_terms(z, w, part, MethodFlags(upc=False, sc=True))[1]


def sum_terms(terms) -> Tensor:
    """The sum of scalar terms as one node, added left to right; each term's
    share of the gradient is the total's."""
    terms = list(terms)
    values = [value_of(t) for t in terms]
    return _node(sum(values[1:], values[0]), *((t, lambda g: g) for t in terms))


def build_loss_graph(state, batch, views, flags: MethodFlags, tau: float, partition=None):
    """Assemble every loss term on one tape.

    Returns (terms, partition, tape_state): terms is a dict of scalar Tensors
    keyed by LossBreakdown's field names in field order, l_sup, l_unsup,
    l_upc and l_sc, then their sum, l_total; tape_state is the ModelState of
    Tensor leaves they were built from (see param_gradients). The graph
    draws nothing, and shared quantities are computed one way only, so
    switching terms on or off never perturbs the others.

    `views` (2n, input_dim) holds the weak views of the batch's n unlabeled
    rows stacked over their strong views, as synthdata.augment_views draws
    them. Both views of each unlabeled sample enter the contrastive terms,
    inheriting the sample's weak-view role.

    `partition` substitutes for the BatchPartition of the weak-view
    confidences, which is everything the losses read from them and carries
    no gradient. Finite-difference probes pass the partition the base
    point's own graph returned, so the batch roles stay put while parameters
    are perturbed. Its rows must cover the unlabeled rows exactly.
    """
    tp = ModelState(state.dims, {name: Tensor(a) for name, a in state.param_items()})
    x_l = np.asarray(batch.labeled_x, dtype=np.float64)
    y_l = np.asarray(batch.labeled_y, dtype=np.int64)
    n, c = len(batch.unlabeled_x), state.dims.num_classes
    if np.shape(views) != (2 * n, state.dims.input_dim):
        raise ShapeError(f"views must be ({2 * n}, {state.dims.input_dim}), got {np.shape(views)}")

    sup = (_cross_entropy(featurize(tp, x_l), tp.classifier, y_l, np.arange(len(y_l)))
           if len(y_l) else Tensor(0.0))

    if n:
        # one forward over both views: rows [0, n) are weak, [n, 2n) strong
        f = featurize(tp, views)
    if partition is None:
        conf = class_confidence(state, f.data[:n]) if n else np.zeros((0, c))
        partition = partition_unlabeled(conf, tau)
    elif sorted([*partition.confident, *partition.unconfident]) != list(range(n)):
        raise ShapeError(f"pinned partition must cover the {n} unlabeled rows once each")

    unsup = upc = sc = Tensor(0.0)
    ci, ui = partition.confident, partition.unconfident
    if flags.unsup and ci.size:
        unsup = _cross_entropy(f, tp.classifier, partition.classes[ci].argmax(axis=1), n + ci)
    if (flags.upc or flags.sc) and n:
        w = project_proxies(tp)
        z = project_features(tp, f)
        # rows i and n + i, the two views of unlabeled row i, share its role
        views_part = BatchPartition(np.concatenate([ci, n + ci]), np.concatenate([ui, n + ui]),
                                    np.concatenate([partition.classes] * 2),
                                    np.concatenate([partition.positives] * 2))
        upc, sc = contrastive_terms(z, w, views_part, flags)

    terms = {"l_sup": sup, "l_unsup": unsup, "l_upc": upc, "l_sc": sc}
    terms["l_total"] = sum_terms(terms.values())
    return terms, partition, tp


def total_loss(state, batch, views, flags: MethodFlags,
               tau: float) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    """Equal-weight sum of the enabled terms, with gradients."""
    terms, _, tp = build_loss_graph(state, batch, views, flags, tau)
    terms["l_total"].backward()
    return LossBreakdown(**{name: t.item() for name, t in terms.items()}), param_gradients(tp)
