"""Training objectives: supervised CE, confidence-gated consistency, and the
two proxy-contrastive terms over the unlabeled batch, all built on one tape
by build_loss_graph.

Batch roles come from the weak-view confidences, which are always treated as
constants: gradients flow through the projected embeddings and the proxies,
never through the partition, the pseudo labels, or the surrogate weights.

A sample is "confident" when its top confidence reaches the threshold; it
then carries a pseudo label. Every other sample is "unconfident" and carries
a row of the boolean candidate matrix K (n_unconfident, C): K[a, y] is True
when class y scores strictly above uniform (1/C). A row's excluded classes
are ~K[a], always derived, never stored. Every pair selection is an array
expression over K and the pseudo labels. Both rules are written once, in
confidence_roles, which the statistics in analysis read as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, _node, gather_rows, value_of
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

    confident (n_c,) are batch rows in increasing order and pseudo_labels
    (n_c,) their labels. unconfident (n_u,) are the remaining rows in
    increasing order and candidates is the candidate matrix K, boolean of
    shape (n_u, C), one row per unconfident sample; weights (n_u, C) are
    those samples' surrogate weights.
    """
    confident: np.ndarray
    pseudo_labels: np.ndarray
    unconfident: np.ndarray
    candidates: np.ndarray
    weights: np.ndarray


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
    confidence_roles. Pseudo labels break argmax ties toward the lowest
    class index."""
    conf = as_matrix(conf)
    is_confident, k = confidence_roles(conf, tau)
    ci = np.flatnonzero(is_confident)
    ui = np.flatnonzero(~is_confident)
    k = k[ui]
    return BatchPartition(ci, conf[ci].argmax(axis=1), ui, k, _surrogate_weights(conf[ui], k))


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


def _onehot(labels, c: int) -> np.ndarray:
    """(n, C) float rows with a 1 at each label; labels must lie in [0, C)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValueError("label out of range")
    onehot = np.zeros((len(labels), c))
    onehot[np.arange(len(labels)), labels] = 1.0
    return onehot


def _cross_entropy(features, classifier, labels) -> Tensor:
    """Mean cross-entropy of the proxy logits features @ classifier.T, one
    node. With d = g/n (softmax - onehot), the gradient is d @ classifier
    for the features and (features.T @ d).T for the classifier."""
    f, w = value_of(features), value_of(classifier)
    a = f @ w.T
    n = len(a)
    onehot = _onehot(labels, a.shape[1])
    m = a.max(axis=1, keepdims=True)   # shifts logsumexp exactly, so no overflow
    e = np.exp(a - m)
    s = e.sum(axis=1, keepdims=True)
    value = (np.log(s) + m - (a * onehot).sum(axis=1, keepdims=True)).sum() * (1.0 / n)
    p = e / s - onehot
    return _node(value, (features, lambda g: g / n * p @ w),
                 (classifier, lambda g: (f.T @ (g / n * p)).T))


def _checked_roles(pseudo, n_c: int, candidates, n_u: int, c: int):
    """Pseudo labels (n_c,) and the boolean (n_u, C) candidate matrix, checked."""
    pseudo = np.asarray(pseudo, dtype=np.int64)
    if len(pseudo) != n_c:
        raise ShapeError("pseudo labels and confident embeddings disagree in length")
    cand = np.asarray(candidates, dtype=bool)
    if cand.shape != (n_u, c):
        raise ShapeError(f"candidate matrix must be ({n_u}, {c}), got {cand.shape}")
    return pseudo, cand


def _proxy_contrast(z_a, proxies, weights, negatives) -> Tensor:
    """The proxy-contrastive loss of PCL (Yao et al., CVPR 2022) that UPC and
    SC share; they differ only in anchors, positives and negative masks.

    Returns mean_i log(1 + sum_j m_ij exp(a_i . k_j) exp(-pos_i)) for anchor
    rows a_i of z_a, positive logits pos_i = sum_y weights_iy (a_i . w_y)
    over the proxy rows w_y, and the j running over every (keys, mask) side
    in `negatives`, mask 0/1 of shape (n_a, n_keys). UPC's weights are
    one-hot pseudo labels, SC's the surrogate weights. A side without keys
    adds nothing. This is log(exp(pos) + rest) - pos, arranged so an anchor
    with no negatives contributes log(1) = 0 exactly instead of rounding
    noise.

    One tape node. With r_i = g exp(-pos_i) / (n_a (1 + rest_i)), P = -r rest
    weights and W the masked exp(a_i . k_j) of a side, the gradient is
    P @ proxies plus, over sides, (r W) @ keys for z_a; (z_a.T @ P).T for
    the proxies; and (r W).T @ z_a for each side's keys.
    """
    za, w = value_of(z_a), value_of(proxies)
    pos = (za @ w.T * weights).sum(axis=1, keepdims=True)
    live = [(keys, mask) for keys, mask in negatives if keys.shape[0]]
    ks = [value_of(keys) for keys, _ in live]
    ws = [np.exp(za @ k.T) * mask for k, (_, mask) in zip(ks, live)]
    rest = sum(w_side.sum(axis=1, keepdims=True) for w_side in ws)
    e_neg = np.exp(-pos)
    inner = 1.0 + rest * e_neg
    n = len(inner)
    r = e_neg / (n * inner)   # d value / d rest, per anchor

    def positive_share(g):   # d value / d (a_i . w_y)
        return -g * r * rest * weights

    return _node(np.log(inner).sum() * (1.0 / n),
                 (z_a, lambda g: sum(((g * r * w_side) @ k for k, w_side in zip(ks, ws)),
                                     positive_share(g) @ w)),
                 (proxies, lambda g: (za.T @ positive_share(g)).T),
                 *((keys, lambda g, w_side=w_side: (g * r * w_side).T @ za)
                   for (keys, _), w_side in zip(live, ws)))


def upc_negative_masks(pseudo, candidates) -> tuple[np.ndarray, np.ndarray]:
    """0/1 negative-pair selections for the confident-anchor loss.

    Returns (vs_confident, vs_unconfident): vs_confident[i, j] = 1 when
    confident j carries a different pseudo label than anchor i, and
    vs_unconfident[i, j] = 1 when unconfident j's candidate row K[j]
    excludes anchor i's pseudo label. These are the masks the loss itself
    consumes.
    """
    pseudo = np.asarray(pseudo, dtype=np.int64)
    cand = np.asarray(candidates, dtype=bool)
    vs_confident = (pseudo[:, None] != pseudo[None, :]).astype(np.float64)
    vs_unconfident = (~cand[:, pseudo].T).astype(np.float64)
    return vs_confident, vs_unconfident


def upc_loss(z_uc, w, pseudo, z_uu, candidates) -> Tensor:
    """Contrastive pull of confident embeddings toward their pseudo proxies.

    Anchor i (confident) pairs with w_{pseudo_i}. Negatives: confident j with
    a different pseudo label, plus unconfident j whose candidate row
    (`candidates`, the (n_uu, C) matrix K) excludes pseudo_i. Returns a
    scalar Tensor (call .item() for the value, .backward() for gradients),
    or a plain float64 when no input is a Tensor; with no confident samples
    the result is a zero leaf.
    """
    c = w.shape[0]
    pseudo, candidates = _checked_roles(pseudo, z_uc.shape[0], candidates, z_uu.shape[0], c)
    if len(pseudo) == 0:
        return Tensor(0.0)
    vs_confident, vs_unconfident = upc_negative_masks(pseudo, candidates)
    return _proxy_contrast(z_uc, w, _onehot(pseudo, c),
                           [(z_uc, vs_confident), (z_uu, vs_unconfident)])


def _surrogate_weights(conf_u: np.ndarray, candidates) -> np.ndarray:
    """Per-row proxy weights, zero outside the candidate set."""
    return np.where(candidates, conf_u, 0.0)


def sc_anchor_indices(candidates) -> np.ndarray:
    """Unconfident rows that qualify as anchors: at least one candidate."""
    return np.flatnonzero(np.asarray(candidates, dtype=bool).any(axis=1))


def sc_negative_masks(candidates, pseudo) -> tuple[np.ndarray, np.ndarray]:
    """0/1 negative-pair selections for the unconfident-anchor loss.

    One row per anchor, sc_anchor_indices(candidates). vs_confident[a, j] = 1
    when confident j's pseudo label falls outside anchor a's candidate row;
    vs_unconfident[a, j] = 1 when unconfident j's candidate row shares no
    class with anchor a's. These are the masks the loss itself consumes.
    """
    pseudo = np.asarray(pseudo, dtype=np.int64)
    cand = np.asarray(candidates, dtype=bool)
    cand_a = cand[sc_anchor_indices(cand)]
    vs_confident = (~cand_a[:, pseudo]).astype(np.float64)
    # shared-candidate counts are small integers, exact in float64
    shared = cand_a.astype(np.float64) @ cand.T.astype(np.float64)
    vs_unconfident = (shared == 0.0).astype(np.float64)
    return vs_confident, vs_unconfident


def sc_loss(z_uu, w, weights, candidates, z_uc, pseudo) -> Tensor:
    """Contrastive pull of unconfident embeddings toward their surrogate class.

    Anchors are unconfident samples with at least one candidate in
    `candidates`, the (n_uu, C) matrix K; rows with none are skipped as
    anchors but still obey the negative rules. An anchor's positive is its
    surrogate class, the mix of proxy rows w (C, d) by its row of
    `weights` (n_uu, C), the surrogate weights. Negatives: confident j whose
    pseudo label the anchor excludes, plus unconfident j whose candidate row
    shares no class with the anchor's.
    """
    n_uu, c = z_uu.shape[0], w.shape[0]
    pseudo, candidates = _checked_roles(pseudo, z_uc.shape[0], candidates, n_uu, c)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n_uu, c):
        raise ShapeError(f"surrogate weights must be {(n_uu, c)}, got {weights.shape}")
    anchors = sc_anchor_indices(candidates)
    if anchors.size == 0:
        return Tensor(0.0)
    vs_confident, vs_unconfident = sc_negative_masks(candidates, pseudo)
    return _proxy_contrast(gather_rows(z_uu, anchors), w, weights[anchors],
                           [(z_uc, vs_confident), (z_uu, vs_unconfident)])


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

    sup = _cross_entropy(featurize(tp, x_l), tp.classifier, y_l) if len(y_l) else Tensor(0.0)

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
        unsup = _cross_entropy(gather_rows(f, n + ci), tp.classifier, partition.pseudo_labels)
    if (flags.upc or flags.sc) and n:
        w = project_proxies(tp)
        z = project_features(tp, f)
        z_uc = gather_rows(z, np.concatenate([ci, n + ci]))
        z_uu = gather_rows(z, np.concatenate([ui, n + ui]))
        pseudo2 = np.concatenate([partition.pseudo_labels, partition.pseudo_labels])
        cands2 = np.concatenate([partition.candidates, partition.candidates])
        if flags.upc:
            upc = upc_loss(z_uc, w, pseudo2, z_uu, cands2)
        if flags.sc:
            sc = sc_loss(z_uu, w, np.concatenate([partition.weights] * 2), cands2, z_uc, pseudo2)

    terms = {"l_sup": sup, "l_unsup": unsup, "l_upc": upc, "l_sc": sc}
    terms["l_total"] = sum_terms(terms.values())
    return terms, partition, tp


def total_loss(state, batch, views, flags: MethodFlags,
               tau: float) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    """Equal-weight sum of the enabled terms, with gradients."""
    terms, _, tp = build_loss_graph(state, batch, views, flags, tau)
    terms["l_total"].backward()
    return LossBreakdown(**{name: t.item() for name, t in terms.items()}), param_gradients(tp)
