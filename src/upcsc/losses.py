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
expression over K and the pseudo labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, concat_rows, exp, gather_rows, log, mean, row_logsumexp
from .errors import ConfigError, ShapeError
from .model import featurize, project_features, project_proxies
from .numerics import as_matrix, softmax_rows
from .synthdata import strong_augment, weak_augment


@dataclass(frozen=True)
class MethodFlags:
    """Which terms beyond supervised CE participate in the total loss."""
    unsup: bool = True
    upc: bool = True
    sc: bool = True


@dataclass(frozen=True, eq=False)
class BatchPartition:
    """Roles of the rows of one unlabeled batch, as arrays.

    confident_indices (n_c,) are batch rows in increasing order and
    pseudo_labels (n_c,) their labels. unconfident_indices (n_u,) are the
    remaining rows in increasing order and candidates is the candidate
    matrix K, boolean of shape (n_u, C), one row per unconfident sample.
    """
    confident_indices: np.ndarray
    pseudo_labels: np.ndarray
    unconfident_indices: np.ndarray
    candidates: np.ndarray
    threshold: float

    # batch rows of each role, so len() counts the role (bench/tracer.py does)
    @property
    def confident(self) -> np.ndarray:
        return self.confident_indices

    @property
    def unconfident(self) -> np.ndarray:
        return self.unconfident_indices

    @property
    def degenerate_uniform(self) -> int:
        """Unconfident samples with no candidate class (row exactly uniform)."""
        return int(np.count_nonzero(~self.candidates.any(axis=1)))


def check_threshold(tau: float, num_classes: int) -> None:
    if not (1.0 / num_classes < tau < 1.0):
        raise ConfigError(f"threshold {tau} must lie strictly between 1/{num_classes} and 1")


def partition_unlabeled(conf, tau: float) -> BatchPartition:
    """Split confidence rows into confident (max >= tau) and unconfident rest.

    Pseudo labels break argmax ties toward the lowest class index. Candidate
    membership is strict (> 1/C), so an exactly uniform row gets an empty set.
    """
    conf = as_matrix(conf)
    c = conf.shape[1]
    if c < 2:
        raise ShapeError("confidence matrix needs at least two columns")
    check_threshold(tau, c)
    is_confident = conf.max(axis=1) >= tau
    ci = np.flatnonzero(is_confident)
    ui = np.flatnonzero(~is_confident)
    return BatchPartition(ci, conf[ci].argmax(axis=1), ui, conf[ui] > 1.0 / c, tau)


@dataclass(frozen=True)
class LossBreakdown:
    l_sup: float
    l_unsup: float
    l_upc: float
    l_sc: float
    l_total: float
    n_confident: int
    n_unconfident: int
    degenerate_uniform: int


class _TensorParams:
    """ModelState mirrored as autograd leaves, shaped like the state itself so
    the model forward functions work on it unchanged."""

    def __init__(self, state):
        self.dims = state.dims
        self.leaves = {name: Tensor(arr) for name, arr in state.param_items()}
        lv = self.leaves
        self.featurizer = [(lv[f"featurizer.{i}.weight"], lv[f"featurizer.{i}.bias"])
                           for i in range(len(state.featurizer))]
        self.classifier = lv["classifier.weight"]
        self.feature_projector = (lv["feature_projector.weight"], lv["feature_projector.bias"])
        self.classifier_projector = (lv["classifier_projector.weight"], lv["classifier_projector.bias"])

    def gradient_set(self) -> dict[str, np.ndarray]:
        """One gradient array per parameter name; zeros where none flowed."""
        return {name: t.grad if t.grad is not None else np.zeros_like(t.data)
                for name, t in self.leaves.items()}


def _cross_entropy(logits: Tensor, labels) -> Tensor:
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("label out of range")
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    picked = (logits * onehot).sum(axis=1, keepdims=True)
    return mean(row_logsumexp(logits) - picked)


def _candidate_matrix(candidates, n: int, c: int = 0) -> np.ndarray:
    """Boolean (n, C) candidate matrix; an empty sequence stands for n = 0."""
    cand = np.asarray(candidates, dtype=bool)
    if cand.size == 0 and cand.ndim < 2:
        cand = cand.reshape(0, c)
    if cand.ndim != 2 or len(cand) != n or (c and cand.shape[1] != c):
        raise ShapeError(f"candidate matrix must be ({n}, C), got {cand.shape}")
    return cand


def _proxy_contrast(z_a: Tensor, pos: Tensor, negatives) -> Tensor:
    """The proxy-contrastive loss of PCL (Yao et al., CVPR 2022) that UPC and
    SC share; they differ only in anchors, positives and negative masks.

    Returns mean_i log(1 + sum_j m_ij exp(a_i . k_j) exp(-pos_i)) for anchor
    rows a_i of z_a, positive logits pos (n_a, 1), and the j running over
    every (keys, mask) side in `negatives`, mask 0/1 of shape (n_a, n_keys).
    A side without keys is skipped; at least one side must have keys. This is
    log(exp(pos) + rest) - pos, arranged so an anchor with no negatives
    contributes log(1) = 0 exactly instead of rounding noise.
    """
    sides = [(exp(z_a @ keys.T) * mask).sum(axis=1, keepdims=True)
             for keys, mask in negatives if keys.shape[0]]
    rest = sum(sides[1:], sides[0])
    return mean(log(1.0 + rest * exp(-pos)))


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
    pseudo = np.asarray(pseudo, dtype=np.int64)
    n_uc, n_uu = z_uc.shape[0], z_uu.shape[0]
    if len(pseudo) != n_uc:
        raise ShapeError("pseudo labels and confident embeddings disagree in length")
    c = w.shape[0]
    candidates = _candidate_matrix(candidates, n_uu, c)
    if n_uc == 0:
        return Tensor(0.0)
    if pseudo.min() < 0 or pseudo.max() >= c:
        raise ValueError("pseudo label out of range")
    onehot = np.zeros((n_uc, c))
    onehot[np.arange(n_uc), pseudo] = 1.0
    pos = (z_uc @ w.T * onehot).sum(axis=1, keepdims=True)
    vs_confident, vs_unconfident = upc_negative_masks(pseudo, candidates)
    return _proxy_contrast(z_uc, pos, [(z_uc, vs_confident), (z_uu, vs_unconfident)])


def _surrogate_weights(conf_u: np.ndarray, candidates) -> np.ndarray:
    """Per-row proxy weights, zero outside the candidate set."""
    return np.where(candidates, conf_u, 0.0)


def sc_anchor_indices(candidates) -> np.ndarray:
    """Unconfident rows that qualify as anchors: at least one candidate."""
    return np.flatnonzero(np.asarray(candidates, dtype=bool).any(axis=1))


def sc_negative_masks(candidates, pseudo) -> tuple[np.ndarray, np.ndarray]:
    """0/1 negative-pair selections for the unconfident-anchor loss.

    Row order follows sc_anchor_indices(candidates). vs_confident[a, j] = 1
    when confident j's pseudo label falls outside anchor a's candidate row;
    vs_unconfident[a, j] = 1 when unconfident j's candidate row shares no
    class with anchor a's. These are the masks the loss itself consumes.
    """
    pseudo = np.asarray(pseudo, dtype=np.int64)
    cand = np.asarray(candidates, dtype=bool)
    cand_a = cand[cand.any(axis=1)]
    vs_confident = (~cand_a[:, pseudo]).astype(np.float64)
    # shared-candidate counts are small integers, exact in float64
    shared = cand_a.astype(np.float64) @ cand.T.astype(np.float64)
    vs_unconfident = (shared == 0.0).astype(np.float64)
    return vs_confident, vs_unconfident


def sc_loss(z_uu, surrogates, candidates, z_uc, pseudo) -> Tensor:
    """Contrastive pull of unconfident embeddings toward their surrogate class.

    Anchors are unconfident samples with at least one candidate in
    `candidates`, the (n_uu, C) matrix K; rows with none are skipped as
    anchors but still obey the negative rules. Negatives: confident j whose
    pseudo label the anchor excludes, plus unconfident j whose candidate row
    shares no class with the anchor's.
    """
    pseudo = np.asarray(pseudo, dtype=np.int64)
    candidates = _candidate_matrix(candidates, z_uu.shape[0])
    if surrogates.shape != z_uu.shape:
        raise ShapeError("surrogates must align with unconfident embeddings")
    if len(pseudo) != z_uc.shape[0]:
        raise ShapeError("pseudo labels and confident embeddings disagree in length")
    anchors = sc_anchor_indices(candidates)
    if anchors.size == 0:
        return Tensor(0.0)
    vs_confident, vs_unconfident = sc_negative_masks(candidates, pseudo)
    z_a = gather_rows(z_uu, anchors)
    pos = (z_a * gather_rows(surrogates, anchors)).sum(axis=1, keepdims=True)
    return _proxy_contrast(z_a, pos, [(z_uc, vs_confident), (z_uu, vs_unconfident)])


def build_loss_graph(state, batch, flags: MethodFlags, tau: float, rng,
                     sigma_weak: float = 0.05, sigma_strong: float = 0.5,
                     strong_dropout: float = 0.2, confidences=None):
    """Assemble every loss term on one tape.

    Returns (terms, partition, tensor_params) with terms a dict of scalar
    Tensors for sup/unsup/upc/sc. Augmentations are drawn before any flag is
    consulted and shared quantities are computed one way only, so switching
    terms on or off never perturbs the others.

    Both the weak and the strong view of each unlabeled sample enter the
    contrastive terms, inheriting the sample's weak-view role.

    `confidences` substitutes for the weak-view confidence matrix. The losses
    treat that matrix as a constant input (no gradient flows through it), so
    finite-difference probes pass the base point's matrix here to hold the
    constant actually constant while parameters are perturbed.
    """
    tp = _TensorParams(state)
    x_l = np.asarray(batch.labeled_x, dtype=np.float64)
    y_l = np.asarray(batch.labeled_y, dtype=np.int64)
    x_u = np.asarray(batch.unlabeled_x, dtype=np.float64)

    sup = _cross_entropy(featurize(tp, x_l) @ tp.classifier.T, y_l) if len(y_l) else Tensor(0.0)

    xw = weak_augment(x_u, rng, sigma_weak)
    xs = strong_augment(x_u, rng, sigma_strong, strong_dropout)
    c = state.dims.num_classes
    if len(x_u):
        f_w = featurize(tp, xw)
        f_s = featurize(tp, xs)
        if confidences is None:
            conf = softmax_rows(f_w.data @ state.classifier.T)
        else:
            conf = as_matrix(confidences)
            if conf.shape != (len(x_u), c):
                raise ShapeError(f"pinned confidences must be {(len(x_u), c)}, got {conf.shape}")
        part = partition_unlabeled(conf, tau)
    else:
        part = partition_unlabeled(np.zeros((0, c)), tau)

    unsup = upc = sc = Tensor(0.0)
    ci = part.confident_indices
    ui = part.unconfident_indices
    if flags.unsup and ci.size:
        unsup = _cross_entropy(gather_rows(f_s, ci) @ tp.classifier.T, part.pseudo_labels)
    if (flags.upc or flags.sc) and len(x_u):
        w = project_proxies(tp)
        z_w = project_features(tp, f_w)
        z_s = project_features(tp, f_s)
        z_uc = concat_rows([gather_rows(z_w, ci), gather_rows(z_s, ci)])
        z_uu = concat_rows([gather_rows(z_w, ui), gather_rows(z_s, ui)])
        pseudo2 = np.concatenate([part.pseudo_labels, part.pseudo_labels])
        cands2 = np.concatenate([part.candidates, part.candidates])
        if flags.upc:
            upc = upc_loss(z_uc, w, pseudo2, z_uu, cands2)
        if flags.sc:
            weights = _surrogate_weights(conf[ui], part.candidates)
            surrogates = np.concatenate([weights, weights]) @ w
            sc = sc_loss(z_uu, surrogates, cands2, z_uc, pseudo2)

    terms = {"sup": sup, "unsup": unsup, "upc": upc, "sc": sc}
    return terms, part, tp


def total_loss(state, batch, flags: MethodFlags, tau: float, rng,
               sigma_weak: float = 0.05, sigma_strong: float = 0.5,
               strong_dropout: float = 0.2) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    """Equal-weight sum of the enabled terms, with gradients."""
    terms, part, tp = build_loss_graph(state, batch, flags, tau, rng,
                                       sigma_weak, sigma_strong, strong_dropout)
    total = terms["sup"] + terms["unsup"] + terms["upc"] + terms["sc"]
    total.backward()
    breakdown = LossBreakdown(
        l_sup=terms["sup"].item(),
        l_unsup=terms["unsup"].item(),
        l_upc=terms["upc"].item(),
        l_sc=terms["sc"].item(),
        l_total=total.item(),
        n_confident=len(part.confident_indices),
        n_unconfident=len(part.unconfident_indices),
        degenerate_uniform=part.degenerate_uniform,
    )
    return breakdown, tp.gradient_set()
