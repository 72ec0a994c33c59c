"""Partitioning, the contrastive objectives, and the combined loss graph."""

import gc
import math
import weakref
from dataclasses import fields

import numpy as np
import pytest

from oracles import (confidence_sets, gather_rows, pcl_reference_loss,
                     reference_contrastive_terms, role_partition, stacked_partition, with_params)

from upcsc.autograd import Tensor
from upcsc.errors import ConfigError, ShapeError
from upcsc.losses import (BatchPartition, LossBreakdown, MethodFlags, _cross_entropy,
                          build_loss_graph, contrastive_terms,
                          param_gradients, partition_unlabeled, sc_anchor_rows, sc_loss,
                          sc_negative_masks, total_loss, upc_loss, upc_negative_masks)
from upcsc.model import (ModelDims, ModelState, class_confidence, featurize, init_model,
                         project_features, project_proxies)
from upcsc.numerics import l2_normalize_rows, softmax_rows, substream
from upcsc.synthdata import BenchmarkConfig, TrainBatch, augment_views

DIMS = ModelDims(input_dim=5, hidden_dims=(6,), feature_dim=4, num_classes=3)
ALL = MethodFlags(True, True, True)
SUP_ONLY = MethodFlags(False, False, False)
UNSUP_ONLY = MethodFlags(True, False, False)


def sharp_state(boost=6.0):
    # positive hidden bias: with only 6 hidden units a zero-bias ReLU layer
    # occasionally silences a whole row, and the projector refuses zero rows
    state = init_model(DIMS, seed=2)
    state.classifier[:] = state.classifier * boost
    return with_params(state, {"featurizer.0.bias": state.featurizer[0][1] + 1.5})


def random_batch(seed, n_l=4, n_u=8):
    rng = substream(seed)
    return TrainBatch(rng.standard_normal((n_l, DIMS.input_dim)),
                      rng.integers(0, DIMS.num_classes, n_l),
                      rng.standard_normal((n_u, DIMS.input_dim)))


def unit_rows(seed, n, d):
    return l2_normalize_rows(substream(seed).standard_normal((n, d)))


def views_of(x_u, seed, **noise):
    """augment_views of x_u from substream(seed), at BenchmarkConfig's noise
    settings where `noise` does not override them."""
    return augment_views(x_u, substream(seed), BenchmarkConfig(**noise))


def term_and_grads(state, batch, views, name, flags, tau):
    """One build_loss_graph term's value, its gradients and the partition."""
    terms, part, tp = build_loss_graph(state, batch, views, flags, tau)
    terms[name].backward()
    return terms[name].item(), param_gradients(tp), part


def sup_term(state, x, y):
    """terms["l_sup"] on a batch with no unlabeled rows."""
    batch = TrainBatch(x, y, np.zeros((0, x.shape[1])))
    return term_and_grads(state, batch, np.zeros((0, x.shape[1])), "l_sup", SUP_ONLY, 0.65)[:2]


def unsup_term(state, x_u, tau, views):
    """terms["l_unsup"] on a batch with no labeled rows."""
    batch = TrainBatch(np.zeros((0, x_u.shape[1])), np.zeros(0, dtype=int), x_u)
    return term_and_grads(state, batch, views, "l_unsup", UNSUP_ONLY, tau)


def max_abs(grads):
    return max(float(np.abs(g).max()) for g in grads.values())


def onehot(labels, c):
    return np.eye(c, dtype=bool)[np.asarray(labels, dtype=int)]


def surrogate(conf, cand):
    """The surrogate weights of rows with candidate sets cand: conf on K, 0 off it."""
    return np.where(cand, conf, 0.0)


def cand_matrix(sets, c=3):
    """Boolean candidate matrix K with one row per class set."""
    out = np.zeros((len(sets), c), dtype=bool)
    for a, classes in enumerate(sets):
        for y in classes:
            out[a, y] = True
    return out


# ---------------------------------------------------------------- partition

def test_partition_hand_case():
    conf = np.array([
        [0.96, 0.02, 0.02],   # confident, pseudo 0
        [0.50, 0.40, 0.10],   # candidates {0, 1}
        [1 / 3, 1 / 3, 1 / 3],  # exactly uniform: empty candidate set
    ])
    part = partition_unlabeled(conf, tau=0.9)
    assert part.confident.tolist() == [0]
    assert part.unconfident.tolist() == [1, 2]
    assert part.classes.tolist() == [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
    assert part.positives.tolist() == [[1.0, 0.0, 0.0], [0.50, 0.40, 0.0], [0.0, 0.0, 0.0]]


def test_partition_threshold_boundary_is_inclusive():
    conf = np.array([[0.9, 0.05, 0.05], [0.89999, 0.05001, 0.05]])
    part = partition_unlabeled(conf, tau=0.9)
    assert part.confident.tolist() == [0]
    assert part.unconfident.tolist() == [1]


def test_partition_argmax_tie_lowest_index():
    part = partition_unlabeled(np.array([[0.48, 0.48, 0.04]]), tau=0.4)
    assert part.confident.tolist() == [0]
    assert part.classes.tolist() == part.positives.tolist() == [[1.0, 0.0, 0.0]]


def test_partition_rejects_bad_tau():
    conf = np.array([[0.5, 0.3, 0.2]])
    with pytest.raises(ConfigError):
        partition_unlabeled(conf, tau=1.0)
    with pytest.raises(ConfigError):
        partition_unlabeled(conf, tau=1 / 3)
    with pytest.raises(ConfigError):
        partition_unlabeled(conf, tau=0.2)


# ------------------------------------------- supervised term (terms["l_sup"])

def test_sup_term_matches_manual_ce():
    state = sharp_state()
    rng = substream(7)
    x = rng.standard_normal((6, DIMS.input_dim))
    y = rng.integers(0, DIMS.num_classes, 6)
    value, grads = sup_term(state, x, y)
    logits = featurize(state, x) @ state.classifier.T
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
    manual = float(np.mean(lse - logits[np.arange(6), y]))
    assert value == pytest.approx(manual, abs=1e-12)
    assert grads["classifier.weight"].shape == state.classifier.shape
    assert max_abs(grads) > 0


def test_sup_term_empty_batch():
    state = sharp_state()
    value, grads = sup_term(state, np.zeros((0, DIMS.input_dim)), np.zeros(0, dtype=int))
    assert value == 0.0
    assert max_abs(grads) == 0.0


def test_sup_term_permutation_equivariant():
    state = sharp_state()
    rng = substream(8)
    x = rng.standard_normal((6, DIMS.input_dim))
    y = rng.integers(0, DIMS.num_classes, 6)
    perm = np.array([2, 0, 1])
    inv = np.argsort(perm)
    permuted = with_params(state, {"classifier.weight": state.classifier[perm]})
    base, _ = sup_term(state, x, y)
    relabeled, _ = sup_term(permuted, x, inv[y])
    assert abs(base - relabeled) <= 1e-12


# ---------------------------------------- consistency term (terms["l_unsup"])

def test_unsup_term_no_confident_is_zero():
    state = init_model(DIMS, seed=3)  # unboosted: confidences stay diffuse
    x_u = substream(9).standard_normal((10, DIMS.input_dim))
    value, grads, part = unsup_term(state, x_u, tau=0.999999, views=views_of(x_u, 10))
    assert value == 0.0
    assert max_abs(grads) == 0.0
    assert len(part.confident) == 0
    assert len(part.unconfident) == 10


def test_unsup_term_empty_batch():
    state = sharp_state()
    x_u = np.zeros((0, DIMS.input_dim))
    value, grads, part = unsup_term(state, x_u, tau=0.9, views=views_of(x_u, 11))
    assert value == 0.0 and max_abs(grads) == 0.0
    assert part.confident.size == 0 and part.unconfident.size == 0
    assert part.classes.shape == part.positives.shape == (0, DIMS.num_classes)


def test_unsup_term_compositional_oracle():
    # partitioning the weak views (rows [0, n) of the views) and feeding the
    # confident rows' strong views (rows n + i) to the supervised kernel must
    # reproduce value and gradients exactly. The views are featurized stacked,
    # as the graph does, because some BLAS kernel sets (OpenBLAS's Haswell
    # ones) round a product row by its place in the product
    state = sharp_state()
    x_u = substream(12).standard_normal((10, DIMS.input_dim))
    views = views_of(x_u, 13)
    value, grads, part = unsup_term(state, x_u, tau=0.9, views=views)
    assert 0 < len(part.confident) < len(x_u)  # both roles occur

    conf = class_confidence(state, featurize(state, views[:len(x_u)]))
    part2 = partition_unlabeled(conf, 0.9)
    ci = part2.confident
    assert np.array_equal(ci, part.confident)
    tp = ModelState(DIMS, {name: Tensor(a) for name, a in state.param_items()})
    strong = gather_rows(featurize(tp, views), len(x_u) + ci)
    pseudo = [y for _, y in confidence_sets(conf, 0.9)[0]]
    expect = _cross_entropy(strong, tp.classifier, pseudo, np.arange(len(ci)))
    expect.backward()
    assert value == expect.item()
    expect_grads = param_gradients(tp)
    for name, g in grads.items():
        assert np.array_equal(g, expect_grads[name]), name


def test_unsup_term_near_zero_when_predictions_match():
    # identity featurizer, huge aligned proxies: strong views keep the argmax
    dims = ModelDims(input_dim=2, hidden_dims=(), feature_dim=2, num_classes=2)
    state = with_params(init_model(dims, seed=0), {
        "featurizer.0.weight": np.eye(2) * 5.0, "featurizer.0.bias": np.zeros(2),
        "classifier.weight": np.array([[10.0, 0.0], [0.0, 10.0]])})
    x_u = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.1], [0.1, 1.0]])
    views = views_of(x_u, 14, sigma_weak=0.01, sigma_strong=0.01, strong_dropout=0.0)
    value, _, part = unsup_term(state, x_u, tau=0.9, views=views)
    assert len(part.confident) == 4
    assert value < 1e-3


# ------------------------------------------------------------- pcl reference

def test_pcl_single_sample_zero():
    z = unit_rows(20, 1, 4)
    w = unit_rows(21, 3, 4)
    assert pcl_reference_loss(z, w, [1]) == 0.0


def test_pcl_hand_value():
    # orthogonal unit embeddings, positives perfectly aligned
    z = np.eye(2)
    w = np.eye(2)
    expect = -math.log(math.e / (math.e + 1.0))
    assert pcl_reference_loss(z, w, [0, 1]) == pytest.approx(expect, abs=1e-12)
    assert expect == pytest.approx(0.3133, abs=5e-5)


def test_pcl_same_label_no_negatives():
    z = unit_rows(22, 4, 3)
    w = unit_rows(23, 2, 3)
    assert pcl_reference_loss(z, w, [1, 1, 1, 1]) == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------------------ upc loss

def test_upc_exclusion_gates_unconfident_negatives():
    z_uc = unit_rows(24, 1, 4)
    w = unit_rows(25, 3, 4)
    z_uu = unit_rows(26, 2, 4)
    # first unconfident still considers class 0; second excludes it
    cands = cand_matrix([{0, 1}, {1, 2}])
    value = upc_loss(np.vstack([z_uc, z_uu]), w, stacked_partition([0], cands)).item()
    pos = float(z_uc[0] @ w[0])
    rest = math.exp(float(z_uc[0] @ z_uu[1]))
    expect = math.log(math.exp(pos) + rest) - pos
    assert value == pytest.approx(expect, abs=1e-12)


def test_upc_no_negatives_is_zero():
    z = unit_rows(27, 3, 4)
    w = unit_rows(28, 2, 4)
    value = upc_loss(z, w, stacked_partition([1, 1, 1], cand_matrix([], c=2))).item()
    assert abs(value) <= 1e-12


def test_upc_no_confident_returns_constant_zero():
    out = upc_loss(unit_rows(30, 2, 4), unit_rows(29, 3, 4),
                   stacked_partition([], cand_matrix([{0}, {1}])))
    assert out.item() == 0.0


def test_upc_gradients_flow_to_inputs():
    # confident rows 0-2 as anchors, unconfident rows 3-4 as keys
    z = Tensor(np.vstack([unit_rows(31, 3, 4), unit_rows(33, 2, 4)]))
    w = Tensor(unit_rows(32, 3, 4))
    cands = cand_matrix([{1}, {2}])
    out = upc_loss(z, w, stacked_partition([0, 1, 2], cands))
    out.backward()
    assert np.abs(z.grad[:3]).max() > 0
    assert np.abs(w.grad).max() > 0
    assert np.abs(z.grad[3:]).max() > 0


def test_plain_inputs_give_the_tensor_path_bytes():
    # one code path: plain arrays run the very ops the tape runs
    for seed in range(20):
        rng = substream(40, seed)
        n_c, n_u = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        z = np.vstack([unit_rows(41 + seed, n_c, 4), unit_rows(61 + seed, n_u, 4)])
        w = unit_rows(81, 3, 4)
        pseudo = rng.integers(0, 3, n_c)
        cands = rng.random((n_u, 3)) < 0.5
        weights = rng.random((n_u, 3))
        part = stacked_partition(pseudo, cands, weights)
        plain = (upc_loss(z, w, part), sc_loss(z, w, part))
        taped = (upc_loss(Tensor(z), Tensor(w), part), sc_loss(Tensor(z), Tensor(w), part))
        for p, t in zip(plain, taped):
            assert p.item() == t.item(), seed


def misfit(part, **fields):
    """part with `fields` replaced, past BatchPartition's lack of checks."""
    return BatchPartition(**{**vars(part), **fields})


def test_upc_shape_validation():
    z, w = np.vstack([unit_rows(34, 2, 4), unit_rows(36, 2, 4)]), unit_rows(35, 3, 4)
    part = stacked_partition([0, 1], cand_matrix([{0}, {1}]))
    upc_loss(z, w, part)
    with pytest.raises(ShapeError):  # the partition covers every row of z
        upc_loss(z[:3], w, part)
    with pytest.raises(ShapeError):  # the two roles cover every row of z
        upc_loss(z, w, misfit(part, confident=part.confident[:1]))
    with pytest.raises(ShapeError):  # one class set per row
        upc_loss(z, w, misfit(part, classes=part.classes[:3]))
    with pytest.raises(ShapeError):  # class sets need one column per class
        upc_loss(z, w, misfit(part, classes=np.zeros((4, 4))))


# where labels and rows enter: fancy indexing would wrap a label of -1 onto the
# last class, and the scatter of selected rows is a plain assignment
@pytest.mark.parametrize("call, message", [
    (lambda: _cross_entropy(np.zeros((2, 3)), np.eye(3), [0, -1], np.arange(2)),
     "label out of range"),
    (lambda: _cross_entropy(np.zeros((2, 3)), np.eye(3), [0, 3], np.arange(2)),
     "label out of range"),
    (lambda: _cross_entropy(np.zeros((3, 3)), np.eye(3), [0, 1], rows=[2, 0]),
     "strictly increasing"),
    (lambda: _cross_entropy(np.zeros((3, 3)), np.eye(3), [0, 1], rows=[1, 1]),
     "strictly increasing"),
], ids=["ce_label_-1", "ce_label_C", "unsorted_rows", "repeated_rows"])
def test_labels_and_rows_are_checked_where_they_enter(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ------------------------------------------------------- surrogate + sc loss

def test_surrogate_class_hand_value_and_batched_agreement():
    w = unit_rows(40, 3, 5)
    conf = np.array([[0.40, 0.35, 0.25], [0.20, 0.36, 0.44]])
    cand = cand_matrix([{0, 1}, {1, 2}])
    positives = partition_unlabeled(conf, tau=0.9).positives
    assert positives.tolist() == surrogate(conf, cand).tolist()
    expect = np.array([0.40 * w[0] + 0.35 * w[1], 0.36 * w[1] + 0.44 * w[2]])
    assert np.allclose(positives @ w, expect, atol=1e-15)


def test_surrogate_class_empty_candidate_rejected():
    # an exactly uniform row has no surrogate class: zero weights, and it is
    # no SC anchor
    conf = np.array([[0.4, 0.3, 0.3], [1 / 3, 1 / 3, 1 / 3]])
    cand = cand_matrix([{0}, set()])
    part = partition_unlabeled(conf, tau=0.9)
    assert part.positives.tolist() == surrogate(conf, cand).tolist()
    assert part.positives[1].tolist() == [0.0, 0.0, 0.0]
    assert sc_anchor_rows(part).tolist() == [0]
    assert sc_anchor_rows(stacked_partition([2], cand)).tolist() == [1]


def test_surrogate_norm_bounded_by_one():
    rng = substream(42)
    for _ in range(100):
        c = int(rng.integers(2, 7))
        w = l2_normalize_rows(rng.standard_normal((c, 6)))
        conf = softmax_rows(rng.standard_normal((1, c)) * 2)
        cand = conf > 1 / c
        part = partition_unlabeled(conf, tau=0.999)
        if not cand.any() or len(part.confident):
            continue
        assert part.positives.tolist() == surrogate(conf, cand).tolist()
        assert np.linalg.norm(part.positives @ w) <= 1.0 + 1e-12


def test_sc_loss_hand_value_with_both_negative_kinds():
    z_uu = unit_rows(43, 2, 4)
    z_uc = unit_rows(44, 2, 4)
    w = unit_rows(45, 3, 4)
    sets = ({0}, {1, 2})  # disjoint from each other
    pseudo = [0, 1]  # pseudo 1 is excluded by anchor 0; pseudo 0 is not
    conf = np.array([[0.5, 0.2, 0.3], [0.2, 0.45, 0.35]])
    weights = surrogate(conf, cand_matrix(sets))
    surrogates = weights @ w
    value = sc_loss(np.vstack([z_uc, z_uu]), w,
                    stacked_partition(pseudo, cand_matrix(sets), weights)).item()

    expect_terms = []
    for i in range(2):
        pos = float(z_uu[i] @ surrogates[i])
        rest = 0.0
        for j in range(2):  # confident negatives
            if pseudo[j] not in sets[i]:
                rest += math.exp(float(z_uu[i] @ z_uc[j]))
        for j in range(2):  # unconfident negatives
            if sets[i].isdisjoint(sets[j]):
                rest += math.exp(float(z_uu[i] @ z_uu[j]))
        expect_terms.append(math.log(math.exp(pos) + rest) - pos)
    assert value == pytest.approx(np.mean(expect_terms), abs=1e-12)
    assert value > 0  # both anchors really saw negatives


def test_sc_loss_degenerate_rows_skip_anchor_but_stay_negative():
    z_uu = unit_rows(46, 3, 4)
    w = unit_rows(47, 3, 4)
    cands = cand_matrix([{0}, set(), {0, 1}])
    conf = np.full((3, 3), 1 / 3)
    conf[0] = [0.5, 0.25, 0.25]
    conf[2] = [0.4, 0.4, 0.2]
    weights = surrogate(conf, cands)
    surrogates = weights @ w
    value = sc_loss(z_uu, w, stacked_partition([], cands, weights)).item()
    # anchors are rows 0 and 2; the empty-set row 1 is disjoint from both, so
    # each anchor has exactly one negative: row 1
    expect = []
    for i in (0, 2):
        pos = float(z_uu[i] @ surrogates[i])
        rest = math.exp(float(z_uu[i] @ z_uu[1]))
        expect.append(math.log(math.exp(pos) + rest) - pos)
    assert value == pytest.approx(np.mean(expect), abs=1e-12)


def test_sc_loss_no_anchors_zero():
    value = sc_loss(unit_rows(48, 2, 4), unit_rows(51, 3, 4),
                    stacked_partition([], cand_matrix([set(), set()]), np.zeros((2, 3)))).item()
    assert value == 0.0


def test_sc_shape_validation():
    z, w = np.vstack([unit_rows(54, 2, 4), unit_rows(52, 2, 4)]), unit_rows(53, 3, 4)
    part = stacked_partition([0, 1], cand_matrix([{0}, {1}]), np.full((2, 3), 0.5))
    sc_loss(z, w, part)
    with pytest.raises(ShapeError):  # class sets need one column per proxy
        sc_loss(z, w, misfit(part, classes=np.zeros((4, 4))))
    with pytest.raises(ShapeError):  # one positive row per row
        sc_loss(z, w, misfit(part, positives=part.positives[:3]))
    with pytest.raises(ShapeError):  # one positive column per proxy
        sc_loss(z, w, misfit(part, positives=np.full((4, 4), 0.5)))
    with pytest.raises(ShapeError):  # one class set per row
        sc_loss(z, w, misfit(part, classes=part.classes[:3]))


def test_sc_with_one_hot_candidates_is_upc_with_roles_swapped():
    # one candidate per unconfident row makes its surrogate a single proxy;
    # SC over those anchors then selects exactly UPC's pairs with the roles
    # of the two embedding sets swapped, only summed in the other row order
    for seed in range(50):
        rng = substream(500 + seed)
        c = int(rng.integers(2, 6))
        d = int(rng.integers(2, 7))
        n_u, n_c = int(rng.integers(1, 9)), int(rng.integers(0, 9))
        w = l2_normalize_rows(rng.standard_normal((c, d)))
        p_u, p_c = rng.integers(0, c, n_u), rng.integers(0, c, n_c)
        z_u = l2_normalize_rows(rng.standard_normal((n_u, d)))
        z_c = l2_normalize_rows(rng.standard_normal((n_c, d)))
        sc_z, upc_z = Tensor(np.vstack([z_c, z_u])), Tensor(np.vstack([z_u, z_c]))
        sc = sc_loss(sc_z, w, stacked_partition(p_c, onehot(p_u, c)))
        upc = upc_loss(upc_z, w, stacked_partition(p_u, onehot(p_c, c)))
        assert abs(sc.item() - upc.item()) <= 1e-12
        sc.backward()
        upc.backward()
        swapped = np.vstack([upc_z.grad[n_u:], upc_z.grad[:n_u]])
        assert np.allclose(sc_z.grad, swapped, rtol=0.0, atol=1e-12)


def test_sc_loss_no_negatives_zero():
    # single anchor, overlapping sets everywhere, no confident samples
    z_uu = unit_rows(49, 2, 4)
    w = unit_rows(50, 3, 4)
    cands = cand_matrix([{0, 1}, {1, 2}])
    conf = np.array([[0.4, 0.4, 0.2], [0.2, 0.4, 0.4]])
    value = sc_loss(z_uu, w, stacked_partition([], cands, surrogate(conf, cands))).item()
    assert abs(value) <= 1e-12


def random_roles(rng, n_rows, c, p_confident, p_candidate):
    """A BatchPartition of n_rows rows: each confident with p_confident, and
    each class a candidate of an unconfident row with p_candidate."""
    is_confident = rng.random(n_rows) < p_confident
    ci, ui = np.flatnonzero(is_confident), np.flatnonzero(~is_confident)
    cand = rng.random((len(ui), c)) < p_candidate
    return role_partition(ci, rng.integers(0, c, len(ci)), ui, cand,
                          np.where(cand, rng.random(cand.shape), 0.0))


def single_anchor(rng, n_rows, c, p_confident, p_candidate):
    """One confident row among unconfident rows that are all exactly uniform."""
    return stacked_partition([c - 1], np.zeros((n_rows - 1, c), dtype=bool))


ROLE_CASES = {   # name: (partition maker, P(confident), P(candidate))
    "mixed": (random_roles, 0.4, 0.4),
    "no confident rows": (random_roles, 0.0, 0.5),
    "no unconfident rows": (random_roles, 1.0, 0.5),
    "only uniform unconfident rows": (random_roles, 0.5, 0.0),
    "a single anchor": (single_anchor, 0.0, 0.0),
}


@pytest.mark.parametrize("flags", [ALL, MethodFlags(True, True, False),
                                   MethodFlags(True, False, True)], ids=["both", "upc", "sc"])
@pytest.mark.parametrize("case", ROLE_CASES)
def test_contrastive_terms_match_the_per_role_reference(case, flags):
    # one kernel over one anchors x rows product against two per-role nodes
    # over gathered copies: values and input gradients, term by term, agree
    # to 1e-12 relative (summation order differs)
    make, p_confident, p_candidate = ROLE_CASES[case]
    for seed in range(40):
        rng = substream(600, seed)
        n_rows, c, d = int(rng.integers(1, 13)), int(rng.integers(2, 6)), int(rng.integers(2, 6))
        part = make(rng, n_rows, c, p_confident, p_candidate)
        z, w = unit_rows(601 + seed, n_rows, d), unit_rows(701 + seed, c, d)
        for t, name in enumerate(("l_upc", "l_sc")):
            got_in = (Tensor(z.copy()), Tensor(w.copy()))
            want_in = (Tensor(z.copy()), Tensor(w.copy()))
            got = contrastive_terms(*got_in, part, flags)[t]
            want = reference_contrastive_terms(*want_in, part, flags)[t]
            assert abs(got.item() - want.item()) <= 1e-12 * abs(want.item()), (case, seed, name)
            got.backward()
            want.backward()
            for a, b in zip(got_in, want_in):
                a, b = (np.zeros_like(x.data) if x.grad is None else x.grad for x in (a, b))
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), (case, seed, name)


# ---------------------------------------------------------------- total loss

def test_loss_graph_terms_follow_the_breakdown_and_end_at_their_sum():
    state = sharp_state()
    batch = random_batch(58)
    views = views_of(batch.unlabeled_x, 59, strong_dropout=0.05)
    terms, _, _ = build_loss_graph(state, batch, views, ALL, 0.65)
    assert list(terms) == [f.name for f in fields(LossBreakdown)]
    *parts, total = (t.item() for t in terms.values())
    assert total == parts[0] + parts[1] + parts[2] + parts[3]
    breakdown, _ = total_loss(state, batch, views, ALL, 0.65)
    assert breakdown == LossBreakdown(*parts, total)


def test_total_loss_supervised_only_equals_supervised():
    state = sharp_state()
    batch = random_batch(60)
    breakdown, grads = total_loss(state, batch, views_of(batch.unlabeled_x, 61), SUP_ONLY, 0.65)
    expect_value, expect_grads = sup_term(state, batch.labeled_x, batch.labeled_y)
    assert breakdown.l_total == expect_value
    assert breakdown.l_unsup == 0.0 and breakdown.l_upc == 0.0 and breakdown.l_sc == 0.0
    for name, g in grads.items():
        assert np.array_equal(g, expect_grads[name]), name


def test_total_loss_ablation_identity():
    # switching the contrastive terms on must not change the baseline terms
    state = sharp_state()
    for seed in range(10):
        batch = random_batch(70 + seed)
        views = views_of(batch.unlabeled_x, 80 + seed, strong_dropout=0.05)
        base, _ = total_loss(state, batch, views, MethodFlags(True, False, False), 0.65)
        full, _ = total_loss(state, batch, views, ALL, 0.65)
        assert abs(base.l_sup - full.l_sup) <= 1e-12
        assert abs(base.l_unsup - full.l_unsup) <= 1e-12
        assert base.l_total == base.l_sup + base.l_unsup


def test_total_loss_empty_unlabeled():
    state = sharp_state()
    batch = TrainBatch(substream(90).standard_normal((4, DIMS.input_dim)),
                       substream(91).integers(0, 3, 4),
                       np.zeros((0, DIMS.input_dim)))
    views = views_of(batch.unlabeled_x, 92)
    breakdown, grads = total_loss(state, batch, views, ALL, 0.65)
    _, part, _ = build_loss_graph(state, batch, views, ALL, 0.65)
    assert len(part.confident) == 0 and len(part.unconfident) == 0
    assert breakdown.l_unsup == 0.0 and breakdown.l_upc == 0.0 and breakdown.l_sc == 0.0
    assert breakdown.l_total == breakdown.l_sup
    assert max_abs(grads) > 0  # supervised part still trains


def test_both_views_of_a_row_take_its_weak_view_role():
    # rows i and n + i of the stacked views, the two views of unlabeled row
    # i, take row i's class set and positives: the graph's UPC and SC are
    # the kernel's over the stacked projections in the roles the set oracle
    # gives the weak views, each role written out once per view
    state = sharp_state()
    batch = random_batch(120, n_u=10)
    views = views_of(batch.unlabeled_x, 121, strong_dropout=0.05)
    terms, _, _ = build_loss_graph(state, batch, views, ALL, 0.65)
    n, f = len(batch.unlabeled_x), featurize(state, views)
    conf = class_confidence(state, f[:n])
    confident, unconfident = confidence_sets(conf, 0.65)
    assert confident and any(cand for _, cand in unconfident)   # both terms have anchors
    ci, ui = [i for i, _ in confident], [i for i, _ in unconfident]
    cand = cand_matrix([cand for _, cand in unconfident])
    part = role_partition(ci + [n + i for i in ci], [y for _, y in confident] * 2,
                          ui + [n + i for i in ui], np.vstack([cand, cand]),
                          np.vstack([surrogate(conf[ui], cand)] * 2))
    upc, sc = contrastive_terms(project_features(state, f), project_proxies(state), part, ALL)
    assert (terms["l_upc"].item(), terms["l_sc"].item()) == (upc.item(), sc.item())


def test_build_loss_graph_counts_degenerate_uniform():
    state = sharp_state()
    batch = random_batch(110, n_u=3)
    conf = np.full((3, 3), 1 / 3)
    conf[0] = [0.97, 0.02, 0.01]
    conf[1] = [0.6, 0.3, 0.1]
    terms, part, _ = build_loss_graph(state, batch, views_of(batch.unlabeled_x, 111), ALL, 0.65,
                                      partition=partition_unlabeled(conf, 0.65))
    assert (~part.classes.any(axis=1)).sum() == 1
    assert len(part.confident) == 1 and len(part.unconfident) == 2
    assert np.isfinite(terms["l_sc"].item())


def test_build_loss_graph_rejects_bad_pinned_shape():
    state = sharp_state()
    batch = random_batch(112, n_u=3)
    with pytest.raises(ShapeError):
        build_loss_graph(state, batch, views_of(batch.unlabeled_x, 113), ALL, 0.65,
                         partition=partition_unlabeled(np.full((2, 3), 1 / 3), 0.65))


@pytest.mark.parametrize("rows,cols", [(3, 5), (6, 4), (12, 5), (0, 5)])
def test_build_loss_graph_rejects_views_of_the_wrong_shape(rows, cols):
    # 3 unlabeled rows need 6 views of the 5 input features
    state = sharp_state()
    batch = random_batch(118, n_u=3)
    views = substream(119).standard_normal((rows, cols))
    with pytest.raises(ShapeError, match=r"views must be \(6, 5\)"):
        build_loss_graph(state, batch, views, ALL, 0.65)
    with pytest.raises(ShapeError):
        total_loss(state, batch, views, ALL, 0.65)


def test_pinning_the_natural_confidences_changes_nothing():
    # feeding back the partition the graph computed must reproduce every
    # term bit for bit; the pin only matters when parameters move afterward
    state = sharp_state()
    batch = random_batch(114)
    views = views_of(batch.unlabeled_x, 115, strong_dropout=0.05)
    free_terms, free_part, _ = build_loss_graph(state, batch, views, ALL, 0.65)
    xw = views[:len(batch.unlabeled_x)]
    natural = partition_unlabeled(class_confidence(state, featurize(state, xw)), 0.65)
    pinned_terms, pinned_part, _ = build_loss_graph(state, batch, views, ALL, 0.65,
                                                    partition=free_part)
    assert pinned_part is free_part
    for field in (f.name for f in fields(BatchPartition)):
        assert np.array_equal(getattr(natural, field), getattr(free_part, field)), field
    for name in ("l_sup", "l_unsup", "l_upc", "l_sc"):
        assert pinned_terms[name].item() == free_terms[name].item(), name


def _reachable_nodes(root):
    # weak references to every tape node reached from root, leaves included
    found, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        found.append(weakref.ref(node))
        stack.extend(p for p, _ in node._inputs)
    return found


def test_loss_graph_is_freed_without_the_cycle_collector():
    # a finished step's tape must die by reference counting alone; a node
    # that references itself keeps the whole upstream graph, arrays and
    # grads included, alive until the cyclic collector happens to run
    state = sharp_state()
    gc.collect()
    gc.disable()
    try:
        batch = random_batch(116)
        views = views_of(batch.unlabeled_x, 117, strong_dropout=0.05)
        terms, _, tp = build_loss_graph(state, batch, views, ALL, 0.65)
        terms["l_total"].backward()
        refs = _reachable_nodes(terms["l_total"])
        assert len(refs) > 20   # the fused graph has 26 nodes
        del terms, tp
        assert [ref for ref in refs if ref() is not None] == []
    finally:
        gc.enable()


def test_negative_mask_shapes_on_empty_sides():
    vs_c, vs_u = upc_negative_masks(stacked_partition([0, 1], cand_matrix([])))
    assert vs_c.shape == (2, 2) and vs_u.shape == (2, 0)
    svs_c, svs_u = sc_negative_masks(stacked_partition([], cand_matrix([{0}])))
    assert svs_c.shape == (1, 0) and svs_u.shape == (1, 1)
    assert sc_negative_masks(stacked_partition([0], cand_matrix([set()])))[0].shape == (0, 1)
