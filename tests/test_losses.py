"""Partitioning, the contrastive objectives, and the combined loss graph."""

import gc
import math
import weakref

import numpy as np
import pytest

from oracles import pcl_reference_loss, with_params

from upcsc.autograd import Tensor, gather_rows
from upcsc.errors import ConfigError, ShapeError
from upcsc.losses import (MethodFlags, _cross_entropy, _surrogate_weights, build_loss_graph,
                          param_gradients, partition_unlabeled, sc_anchor_indices,
                          sc_loss, sc_negative_masks, sum_terms, total_loss, upc_loss,
                          upc_negative_masks)
from upcsc.model import ModelDims, ModelState, class_confidence, featurize, init_model
from upcsc.numerics import l2_normalize_rows, softmax_rows, substream
from upcsc.synthdata import TrainBatch, strong_augment, weak_augment

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


def term_and_grads(state, batch, name, flags, tau, rng, **knobs):
    """One build_loss_graph term's value, its gradients and the partition."""
    terms, part, tp = build_loss_graph(state, batch, flags, tau, rng, **knobs)
    terms[name].backward()
    return terms[name].item(), param_gradients(tp), part


def sup_term(state, x, y):
    """terms["sup"] on a batch with no unlabeled rows."""
    batch = TrainBatch(x, y, np.zeros((0, x.shape[1])))
    return term_and_grads(state, batch, "sup", SUP_ONLY, 0.65, substream(0))[:2]


def unsup_term(state, x_u, tau, rng, **knobs):
    """terms["unsup"] on a batch with no labeled rows."""
    batch = TrainBatch(np.zeros((0, x_u.shape[1])), np.zeros(0, dtype=int), x_u)
    return term_and_grads(state, batch, "unsup", UNSUP_ONLY, tau, rng, **knobs)


def max_abs(grads):
    return max(float(np.abs(g).max()) for g in grads.values())


def onehot(labels, c):
    return np.eye(c, dtype=bool)[np.asarray(labels, dtype=int)]


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
    assert part.confident_indices.tolist() == [0]
    assert part.pseudo_labels.tolist() == [0]
    assert part.unconfident_indices.tolist() == [1, 2]
    assert part.candidates.tolist() == [[True, True, False], [False, False, False]]
    assert (~part.candidates.any(axis=1)).sum() == 1


def test_partition_threshold_boundary_is_inclusive():
    conf = np.array([[0.9, 0.05, 0.05], [0.89999, 0.05001, 0.05]])
    part = partition_unlabeled(conf, tau=0.9)
    assert part.confident_indices.tolist() == [0]
    assert part.unconfident_indices.tolist() == [1]


def test_partition_argmax_tie_lowest_index():
    part = partition_unlabeled(np.array([[0.48, 0.48, 0.04]]), tau=0.4)
    assert part.confident_indices.tolist() == [0]
    assert part.pseudo_labels.tolist() == [0]


def test_partition_rejects_bad_tau():
    conf = np.array([[0.5, 0.3, 0.2]])
    with pytest.raises(ConfigError):
        partition_unlabeled(conf, tau=1.0)
    with pytest.raises(ConfigError):
        partition_unlabeled(conf, tau=1 / 3)
    with pytest.raises(ConfigError):
        partition_unlabeled(conf, tau=0.2)


def test_partition_matches_bruteforce_sets():
    rng = substream(301)
    for _ in range(200):
        n = int(rng.integers(0, 9))
        c = int(rng.integers(2, 6))
        conf = softmax_rows(rng.standard_normal((n, c)) * 3) if n else np.zeros((0, c))
        tau = float(rng.uniform(1 / c + 0.01, 0.99))
        part = partition_unlabeled(conf, tau)
        expect_conf, expect_unconf = [], []
        for i in range(n):
            row = conf[i]
            if max(row) >= tau:
                expect_conf.append((i, int(np.argmax(row))))
            else:
                expect_unconf.append((i, frozenset(y for y in range(c) if row[y] > 1 / c)))
        got_conf = list(zip(part.confident_indices.tolist(), part.pseudo_labels.tolist()))
        got_unconf = [(i, frozenset(np.flatnonzero(row).tolist()))
                      for i, row in zip(part.unconfident_indices.tolist(), part.candidates)]
        assert got_conf == expect_conf
        assert got_unconf == expect_unconf
        assert part.candidates.shape == (len(expect_unconf), c)


# ------------------------------------------- supervised term (terms["sup"])

def test_supervised_loss_matches_manual_ce():
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


def test_supervised_loss_empty_batch():
    state = sharp_state()
    value, grads = sup_term(state, np.zeros((0, DIMS.input_dim)), np.zeros(0, dtype=int))
    assert value == 0.0
    assert max_abs(grads) == 0.0


def test_supervised_loss_permutation_equivariant():
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


# ---------------------------------------- consistency term (terms["unsup"])

def test_consistency_loss_no_confident_is_zero():
    state = init_model(DIMS, seed=3)  # unboosted: confidences stay diffuse
    x_u = substream(9).standard_normal((10, DIMS.input_dim))
    value, grads, part = unsup_term(state, x_u, tau=0.999999, rng=substream(10))
    assert value == 0.0
    assert max_abs(grads) == 0.0
    assert len(part.confident_indices) == 0
    assert len(part.unconfident_indices) == 10


def test_consistency_loss_empty_batch():
    state = sharp_state()
    value, grads, part = unsup_term(state, np.zeros((0, DIMS.input_dim)),
                                    tau=0.9, rng=substream(11))
    assert value == 0.0 and max_abs(grads) == 0.0
    assert part.confident_indices.size == 0 and part.unconfident_indices.size == 0
    assert part.candidates.shape == (0, DIMS.num_classes)


def test_consistency_loss_compositional_oracle():
    # replaying the graph's rng order (weak views of the full batch, then
    # strong views of the full batch) and feeding the confident rows' strong
    # views to the supervised kernel must reproduce value and gradients
    # exactly. The views are featurized stacked, strong view i at row n + i,
    # because that is where the graph places them, and some BLAS kernel sets
    # (OpenBLAS's Haswell ones) round a product row by its place in the product
    state = sharp_state()
    x_u = substream(12).standard_normal((10, DIMS.input_dim))
    value, grads, part = unsup_term(state, x_u, tau=0.9, rng=substream(13))
    assert 0 < len(part.confident_indices) < len(x_u)  # both roles occur

    replay = substream(13)
    xw = weak_augment(x_u, replay, 0.05)
    xs = strong_augment(x_u, replay, 0.5, 0.2)
    conf = class_confidence(state, featurize(state, xw))
    part2 = partition_unlabeled(conf, 0.9)
    ci = part2.confident_indices
    assert np.array_equal(ci, part.confident_indices)
    tp = ModelState(DIMS, {name: Tensor(a) for name, a in state.param_items()})
    strong = gather_rows(featurize(tp, np.concatenate([xw, xs])), len(x_u) + ci)
    expect = _cross_entropy(strong, tp.classifier, part2.pseudo_labels)
    expect.backward()
    assert value == expect.item()
    expect_grads = param_gradients(tp)
    for name, g in grads.items():
        assert np.array_equal(g, expect_grads[name]), name


def test_consistency_loss_near_zero_when_predictions_match():
    # identity featurizer, huge aligned proxies: strong views keep the argmax
    dims = ModelDims(input_dim=2, hidden_dims=(), feature_dim=2, num_classes=2)
    state = with_params(init_model(dims, seed=0), {
        "featurizer.0.weight": np.eye(2) * 5.0, "featurizer.0.bias": np.zeros(2),
        "classifier.weight": np.array([[10.0, 0.0], [0.0, 10.0]])})
    x_u = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.1], [0.1, 1.0]])
    value, _, part = unsup_term(state, x_u, tau=0.9, rng=substream(14),
                                sigma_weak=0.01, sigma_strong=0.01, strong_dropout=0.0)
    assert len(part.confident_indices) == 4
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

def test_upc_reduces_to_pcl_without_unconfident():
    for seed in range(50):
        rng = substream(400 + seed)
        n = int(rng.integers(1, 9))
        c = int(rng.integers(2, 6))
        d = int(rng.integers(2, 7))
        z = l2_normalize_rows(rng.standard_normal((n, d)))
        w = l2_normalize_rows(rng.standard_normal((c, d)))
        labels = rng.integers(0, c, n)
        value = upc_loss(z, w, labels, np.zeros((0, d)), ()).item()
        assert abs(value - pcl_reference_loss(z, w, labels)) <= 1e-12


def test_upc_exclusion_gates_unconfident_negatives():
    z_uc = unit_rows(24, 1, 4)
    w = unit_rows(25, 3, 4)
    z_uu = unit_rows(26, 2, 4)
    # first unconfident still considers class 0; second excludes it
    cands = cand_matrix([{0, 1}, {1, 2}])
    value = upc_loss(z_uc, w, [0], z_uu, cands).item()
    pos = float(z_uc[0] @ w[0])
    rest = math.exp(float(z_uc[0] @ z_uu[1]))
    expect = math.log(math.exp(pos) + rest) - pos
    assert value == pytest.approx(expect, abs=1e-12)


def test_upc_no_negatives_is_zero():
    z = unit_rows(27, 3, 4)
    w = unit_rows(28, 2, 4)
    value = upc_loss(z, w, [1, 1, 1], np.zeros((0, 4)), ()).item()
    assert abs(value) <= 1e-12


def test_upc_no_confident_returns_constant_zero():
    out = upc_loss(np.zeros((0, 4)), unit_rows(29, 3, 4), [], unit_rows(30, 2, 4),
                   cand_matrix([{0}, {1}]))
    assert out.item() == 0.0


def test_upc_gradients_flow_to_inputs():
    z_uc = Tensor(unit_rows(31, 3, 4))
    w = Tensor(unit_rows(32, 3, 4))
    z_uu = Tensor(unit_rows(33, 2, 4))
    cands = cand_matrix([{1}, {2}])
    out = upc_loss(z_uc, w, [0, 1, 2], z_uu, cands)
    out.backward()
    assert np.abs(z_uc.grad).max() > 0
    assert np.abs(w.grad).max() > 0
    assert np.abs(z_uu.grad).max() > 0


def test_plain_inputs_give_the_tensor_path_bytes():
    # one code path: plain arrays run the very ops the tape runs
    for seed in range(20):
        rng = substream(40, seed)
        n_c, n_u = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        z_uc, z_uu, w = unit_rows(41 + seed, n_c, 4), unit_rows(61 + seed, n_u, 4), unit_rows(81, 3, 4)
        pseudo = rng.integers(0, 3, n_c)
        cands = rng.random((n_u, 3)) < 0.5
        weights = rng.random((n_u, 3))
        plain = (upc_loss(z_uc, w, pseudo, z_uu, cands),
                 sc_loss(z_uu, w, weights, cands, z_uc, pseudo))
        taped = (upc_loss(Tensor(z_uc), Tensor(w), pseudo, Tensor(z_uu), cands),
                 sc_loss(Tensor(z_uu), Tensor(w), weights, cands, Tensor(z_uc), pseudo))
        for p, t in zip(plain, taped):
            assert p.item() == t.item(), seed


def test_upc_shape_validation():
    with pytest.raises(ShapeError):
        upc_loss(unit_rows(34, 2, 4), unit_rows(35, 3, 4), [0], np.zeros((0, 4)), ())
    with pytest.raises(ShapeError):
        upc_loss(unit_rows(34, 2, 4), unit_rows(35, 3, 4), [0, 1],
                 unit_rows(36, 2, 4), cand_matrix([set()]))
    with pytest.raises(ShapeError):  # candidate rows need one column per class
        upc_loss(unit_rows(34, 2, 4), unit_rows(35, 3, 4), [0, 1],
                 unit_rows(36, 2, 4), cand_matrix([{0}, {1}], c=4))


# ------------------------------------------------------- surrogate + sc loss

def test_surrogate_class_hand_value_and_batched_agreement():
    w = unit_rows(40, 3, 5)
    conf = np.array([[0.40, 0.35, 0.25], [0.20, 0.30, 0.50]])
    cand = cand_matrix([{0, 1}, {1, 2}])
    expect = np.array([0.40 * w[0] + 0.35 * w[1], 0.30 * w[1] + 0.50 * w[2]])
    assert np.allclose(_surrogate_weights(conf, cand) @ w, expect, atol=1e-15)


def test_surrogate_class_empty_candidate_rejected():
    # an exactly uniform row has no surrogate class: zero weights, and it is
    # no SC anchor
    cand = cand_matrix([{0}, set()])
    weights = _surrogate_weights(np.array([[0.4, 0.3, 0.3], [1 / 3, 1 / 3, 1 / 3]]), cand)
    assert weights[1].tolist() == [0.0, 0.0, 0.0]
    assert sc_anchor_indices(cand).tolist() == [0]


def test_surrogate_norm_bounded_by_one():
    rng = substream(42)
    for _ in range(100):
        c = int(rng.integers(2, 7))
        w = l2_normalize_rows(rng.standard_normal((c, 6)))
        conf = softmax_rows(rng.standard_normal((1, c)) * 2)
        cand = conf > 1 / c
        if not cand.any():
            continue
        assert np.linalg.norm(_surrogate_weights(conf, cand) @ w) <= 1.0 + 1e-12


def test_sc_loss_hand_value_with_both_negative_kinds():
    z_uu = unit_rows(43, 2, 4)
    z_uc = unit_rows(44, 2, 4)
    w = unit_rows(45, 3, 4)
    sets = ({0}, {1, 2})  # disjoint from each other
    pseudo = [0, 1]  # pseudo 1 is excluded by anchor 0; pseudo 0 is not
    conf = np.array([[0.5, 0.2, 0.3], [0.2, 0.45, 0.35]])
    weights = _surrogate_weights(conf, cand_matrix(sets))
    surrogates = weights @ w
    value = sc_loss(z_uu, w, weights, cand_matrix(sets), z_uc, pseudo).item()

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
    weights = _surrogate_weights(conf, cands)
    surrogates = weights @ w
    value = sc_loss(z_uu, w, weights, cands, np.zeros((0, 4)), []).item()
    # anchors are rows 0 and 2; the empty-set row 1 is disjoint from both, so
    # each anchor has exactly one negative: row 1
    expect = []
    for i in (0, 2):
        pos = float(z_uu[i] @ surrogates[i])
        rest = math.exp(float(z_uu[i] @ z_uu[1]))
        expect.append(math.log(math.exp(pos) + rest) - pos)
    assert value == pytest.approx(np.mean(expect), abs=1e-12)


def test_sc_loss_no_anchors_zero():
    value = sc_loss(unit_rows(48, 2, 4), unit_rows(51, 3, 4), np.zeros((2, 3)),
                    cand_matrix([set(), set()]), np.zeros((0, 4)), []).item()
    assert value == 0.0


def test_sc_shape_validation():
    z_uu, w = unit_rows(52, 2, 4), unit_rows(53, 3, 4)
    cands, weights = cand_matrix([{0}, {1}]), np.full((2, 3), 0.5)
    with pytest.raises(ShapeError):  # candidate rows need one column per proxy
        sc_loss(z_uu, w, weights, cand_matrix([{0}, {1}], c=4), np.zeros((0, 4)), [])
    with pytest.raises(ShapeError):  # one weight row per unconfident sample
        sc_loss(z_uu, w, weights[:1], cands, np.zeros((0, 4)), [])
    with pytest.raises(ShapeError):  # one weight column per proxy
        sc_loss(z_uu, w, np.full((2, 4), 0.5), cands, np.zeros((0, 4)), [])
    with pytest.raises(ShapeError):
        sc_loss(z_uu, w, weights, cands, unit_rows(54, 2, 4), [0])


def test_sc_with_one_hot_candidates_is_upc_with_roles_swapped():
    # one candidate per unconfident row makes its surrogate a single proxy;
    # SC over those anchors then selects exactly UPC's pairs with the roles
    # of the two embedding sets swapped, only summed in the other side order
    for seed in range(50):
        rng = substream(500 + seed)
        c = int(rng.integers(2, 6))
        d = int(rng.integers(2, 7))
        n_u, n_c = int(rng.integers(1, 9)), int(rng.integers(0, 9))
        w = l2_normalize_rows(rng.standard_normal((c, d)))
        p_u, p_c = rng.integers(0, c, n_u), rng.integers(0, c, n_c)
        z_u = l2_normalize_rows(rng.standard_normal((n_u, d)))
        z_c = l2_normalize_rows(rng.standard_normal((n_c, d)))
        sc_in, upc_in = (Tensor(z_u), Tensor(z_c)), (Tensor(z_u), Tensor(z_c))
        sc = sc_loss(sc_in[0], w, onehot(p_u, c).astype(float), onehot(p_u, c), sc_in[1], p_c)
        upc = upc_loss(upc_in[0], w, p_u, upc_in[1], onehot(p_c, c))
        assert abs(sc.item() - upc.item()) <= 1e-12
        sc.backward()
        upc.backward()
        for a, b in zip(sc_in, upc_in):
            if a.grad is not None or b.grad is not None:
                assert np.allclose(a.grad, b.grad, rtol=0.0, atol=1e-12)


def test_sc_loss_no_negatives_zero():
    # single anchor, overlapping sets everywhere, no confident samples
    z_uu = unit_rows(49, 2, 4)
    w = unit_rows(50, 3, 4)
    cands = cand_matrix([{0, 1}, {1, 2}])
    conf = np.array([[0.4, 0.4, 0.2], [0.2, 0.4, 0.4]])
    value = sc_loss(z_uu, w, _surrogate_weights(conf, cands), cands, np.zeros((0, 4)),
                    []).item()
    assert abs(value) <= 1e-12


# ---------------------------------------------------------------- total loss

def test_total_loss_breakdown_sums_exactly():
    state = sharp_state()
    for seed in range(20):
        # low dropout: at 5 input features the default rate can zero a whole
        # row, which the projector rejects by design
        breakdown, _ = total_loss(state, random_batch(seed), ALL, 0.65, substream(seed),
                                  strong_dropout=0.05)
        assert breakdown.l_total == breakdown.l_sup + breakdown.l_unsup + \
            breakdown.l_upc + breakdown.l_sc
        for term in (breakdown.l_sup, breakdown.l_unsup, breakdown.l_upc, breakdown.l_sc):
            assert term >= 0.0


def test_total_loss_supervised_only_equals_supervised():
    state = sharp_state()
    batch = random_batch(60)
    breakdown, grads = total_loss(state, batch, SUP_ONLY, 0.65, substream(61))
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
        base, _ = total_loss(state, batch, MethodFlags(True, False, False),
                             0.65, substream(80 + seed), strong_dropout=0.05)
        full, _ = total_loss(state, batch, ALL, 0.65, substream(80 + seed),
                             strong_dropout=0.05)
        assert abs(base.l_sup - full.l_sup) <= 1e-12
        assert abs(base.l_unsup - full.l_unsup) <= 1e-12
        assert base.l_total == base.l_sup + base.l_unsup


def test_total_loss_empty_unlabeled():
    state = sharp_state()
    batch = TrainBatch(substream(90).standard_normal((4, DIMS.input_dim)),
                       substream(91).integers(0, 3, 4),
                       np.zeros((0, DIMS.input_dim)))
    breakdown, grads = total_loss(state, batch, ALL, 0.65, substream(92))
    _, part, _ = build_loss_graph(state, batch, ALL, 0.65, substream(92))
    assert len(part.confident_indices) == 0 and len(part.unconfident_indices) == 0
    assert breakdown.l_unsup == 0.0 and breakdown.l_upc == 0.0 and breakdown.l_sc == 0.0
    assert breakdown.l_total == breakdown.l_sup
    assert max_abs(grads) > 0  # supervised part still trains


def test_total_loss_class_permutation_equivariance():
    state = sharp_state()
    rng = substream(95)
    perm = np.array([1, 2, 0])
    inv = np.argsort(perm)
    for seed in range(10):
        batch = random_batch(100 + seed)
        base, _ = total_loss(state, batch, ALL, 0.65, substream(200 + seed),
                             strong_dropout=0.05)
        permuted_state = with_params(state, {"classifier.weight": state.classifier[perm]})
        permuted_batch = TrainBatch(batch.labeled_x, inv[batch.labeled_y], batch.unlabeled_x)
        other, _ = total_loss(permuted_state, permuted_batch, ALL, 0.65,
                              substream(200 + seed), strong_dropout=0.05)
        assert abs(base.l_total - other.l_total) <= 1e-12
        assert abs(base.l_upc - other.l_upc) <= 1e-12
        assert abs(base.l_sc - other.l_sc) <= 1e-12


def test_build_loss_graph_counts_degenerate_uniform():
    state = sharp_state()
    batch = random_batch(110, n_u=3)
    conf = np.full((3, 3), 1 / 3)
    conf[0] = [0.97, 0.02, 0.01]
    conf[1] = [0.6, 0.3, 0.1]
    terms, part, _ = build_loss_graph(state, batch, ALL, 0.65, substream(111),
                                      partition=partition_unlabeled(conf, 0.65))
    assert (~part.candidates.any(axis=1)).sum() == 1
    assert len(part.confident_indices) == 1 and len(part.unconfident_indices) == 2
    assert np.isfinite(terms["sc"].item())


def test_build_loss_graph_rejects_bad_pinned_shape():
    state = sharp_state()
    batch = random_batch(112, n_u=3)
    with pytest.raises(ShapeError):
        build_loss_graph(state, batch, ALL, 0.65, substream(113),
                         partition=partition_unlabeled(np.full((2, 3), 1 / 3), 0.65))


def test_pinning_the_natural_confidences_changes_nothing():
    # feeding back the partition the graph computed must reproduce every
    # term bit for bit; the pin only matters when parameters move afterward
    state = sharp_state()
    batch = random_batch(114)
    knobs = dict(sigma_weak=0.05, sigma_strong=0.5, strong_dropout=0.05)
    free_terms, free_part, _ = build_loss_graph(state, batch, ALL, 0.65,
                                                substream(115), **knobs)
    replay = substream(115)
    xw = weak_augment(batch.unlabeled_x, replay, knobs["sigma_weak"])
    natural = partition_unlabeled(class_confidence(state, featurize(state, xw)), 0.65)
    pinned_terms, pinned_part, _ = build_loss_graph(state, batch, ALL, 0.65,
                                                    substream(115),
                                                    partition=free_part, **knobs)
    assert pinned_part is free_part
    for field in ("confident_indices", "pseudo_labels", "unconfident_indices", "candidates",
                  "weights"):
        assert np.array_equal(getattr(natural, field), getattr(free_part, field)), field
    for name in ("sup", "unsup", "upc", "sc"):
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
        terms, _, tp = build_loss_graph(state, random_batch(116), ALL, 0.65, substream(117),
                                        strong_dropout=0.05)
        total = sum_terms(terms.values())
        total.backward()
        refs = _reachable_nodes(total)
        assert len(refs) > 20   # the fused graph has 28 nodes
        del terms, tp, total
        assert [ref for ref in refs if ref() is not None] == []
    finally:
        gc.enable()


def test_negative_mask_shapes_on_empty_sides():
    vs_c, vs_u = upc_negative_masks([0, 1], cand_matrix([]))
    assert vs_c.shape == (2, 2) and vs_u.shape == (2, 0)
    svs_c, svs_u = sc_negative_masks(cand_matrix([{0}]), [])
    assert svs_c.shape == (1, 0) and svs_u.shape == (1, 1)
    assert sc_negative_masks(cand_matrix([set()]), [0])[0].shape == (0, 1)
