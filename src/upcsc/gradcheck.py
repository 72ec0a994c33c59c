"""Finite-difference audit of every loss term's analytic gradients.

The losses take the weak-view confidence matrix as a constant input: the
partition, pseudo labels, candidate sets, and surrogate weights all come from
it and none of them carries gradient. A central-difference probe therefore
pins that matrix at the base point, so both sides differentiate the same
function of the parameters.

ReLU kinks are the one genuine nondifferentiability left, so draws are
rejected until every preactivation clears a margin much larger than the
perturbation. Draws must also make every term active, otherwise the
comparison would be 0 vs 0.
"""

from __future__ import annotations

import numpy as np

from .autograd import linear, relu
from .errors import DegenerateInputError
from .losses import MethodFlags, build_loss_graph, param_gradients, sum_terms
from .model import ModelDims, class_confidence, featurize, init_model
from .numerics import max_relative_error, substream
from .synthdata import TrainBatch, strong_augment, weak_augment

LOSS_NAMES = ("sup", "unsup", "upc", "sc", "total")

SMALL_DIMS = ModelDims(input_dim=5, hidden_dims=(6,), feature_dim=4, num_classes=3)
TAU = 0.65
FD_STEP = 1e-5          # central-difference step on every parameter coordinate
RELU_MARGIN = 1e-3      # min |preactivation| so an FD_STEP perturbation cannot cross a kink
MAX_ATTEMPTS = 500      # draws per case before find_checkable_case gives up
MIN_TERM_VALUE = 0.05   # each gated term must be visibly nonzero
CLASSIFIER_BOOST = 6.0  # sharpens confidences so both batch roles occur
KNOBS = {"sigma_weak": 0.05, "sigma_strong": 0.5, "strong_dropout": 0.2}
_ALL_FLAGS = MethodFlags(unsup=True, upc=True, sc=True)

_TAG_STATE = 9101
_TAG_BATCH = 9102
_TAG_AUG = 9103


def pinned_confidences(state, batch, rng_keys) -> np.ndarray:
    """The weak-view confidence matrix the loss would compute at this point,
    bit for bit from two unlabeled rows up. The loss forwards both views
    stacked, and a one-row stack rounds differently from a lone weak
    forward, so a one-row batch raises ValueError."""
    if len(batch.unlabeled_x) < 2:
        raise ValueError("pinned confidences need at least two unlabeled rows")
    rng = substream(*rng_keys)
    xw = weak_augment(batch.unlabeled_x, rng, KNOBS["sigma_weak"])
    return class_confidence(state, featurize(state, xw))


def _term_values(state, batch, rng_keys, conf) -> dict[str, float]:
    terms, _, _ = build_loss_graph(state, batch, _ALL_FLAGS, TAU,
                                   substream(*rng_keys), confidences=conf, **KNOBS)
    values = {name: t.item() for name, t in terms.items()}
    values["total"] = values["sup"] + values["unsup"] + values["upc"] + values["sc"]
    return values


def _analytic_gradients(state, batch, rng_keys, conf) -> dict[str, dict[str, np.ndarray]]:
    grads = {}
    for name in LOSS_NAMES:
        # fresh graph per backward pass: gradients accumulate on a tape
        terms, _, tp = build_loss_graph(state, batch, _ALL_FLAGS, TAU,
                                        substream(*rng_keys), confidences=conf, **KNOBS)
        node = terms[name] if name != "total" else sum_terms(terms.values())
        node.backward()
        grads[name] = param_gradients(tp)
    return grads


def _fd_gradients(values_fn, params) -> dict[str, dict[str, np.ndarray]]:
    """Central differences of every value values_fn(params) returns, by name,
    in one sweep over the parameter coordinates.

    Perturbs the parameter arrays in place and restores them, so values_fn
    must read the current arrays on every call (and must be deterministic).
    """
    out: dict[str, dict[str, np.ndarray]] = {}
    for pname, arr in params.param_items():
        flat = arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            plus = values_fn(params)
            flat[i] = orig - FD_STEP
            minus = values_fn(params)
            flat[i] = orig
            for name in plus:
                grad = out.setdefault(name, {}).setdefault(pname, np.zeros_like(arr))
                grad.reshape(-1)[i] = (plus[name] - minus[name]) / (2.0 * FD_STEP)
    return out


def _relu_margin(state, batch, rng_keys) -> float:
    """Smallest |preactivation| over the two forwards the losses run: the
    labeled batch, and the weak views stacked over the strong ones.

    Views are drawn in the same stream order the loss uses (weak over the
    full batch, then strong), so the checked forwards are the checked loss's.
    """
    rng = substream(*rng_keys)
    xw = weak_augment(batch.unlabeled_x, rng, KNOBS["sigma_weak"])
    xs = strong_augment(batch.unlabeled_x, rng, KNOBS["sigma_strong"], KNOBS["strong_dropout"])
    margins = []
    for x in (batch.labeled_x, np.concatenate([xw, xs])):
        h = x
        for w, b in state.featurizer[:-1]:
            h = linear(h, w, b)
            margins.append(np.abs(h).min())
            h = relu(h)
    return float(min(margins))


def find_checkable_case(case_seed: int):
    """Draw (state, batch, rng_keys) safe for finite differencing.

    Attempts cycle until the ReLU margin clears RELU_MARGIN and every loss
    term is active (confident and unconfident samples both present, with
    usable negatives).
    """
    for attempt in range(MAX_ATTEMPTS):
        srng = substream(_TAG_STATE, case_seed, attempt)
        state = init_model(SMALL_DIMS, seed=int(srng.integers(2**31)))
        state.classifier[:] = state.classifier * CLASSIFIER_BOOST
        brng = substream(_TAG_BATCH, case_seed, attempt)
        batch = TrainBatch(
            labeled_x=brng.standard_normal((4, SMALL_DIMS.input_dim)),
            labeled_y=brng.integers(0, SMALL_DIMS.num_classes, size=4),
            unlabeled_x=brng.standard_normal((8, SMALL_DIMS.input_dim)),
        )
        rng_keys = (_TAG_AUG, case_seed, attempt)
        conf = pinned_confidences(state, batch, rng_keys)
        try:
            values = _term_values(state, batch, rng_keys, conf)
        except DegenerateInputError:
            # dropout can zero an entire row at these tiny dims; redraw
            continue
        if min(values["unsup"], values["upc"], values["sc"]) < MIN_TERM_VALUE:
            continue
        if _relu_margin(state, batch, rng_keys) < RELU_MARGIN:
            continue
        return state, batch, rng_keys
    raise RuntimeError(f"no finite-difference-safe draw found for case {case_seed}")


def check_losses(num_draws: int = 20, seed: int = 0) -> dict[str, float]:
    """Worst relative error per loss term across num_draws random cases."""
    worst = {name: 0.0 for name in LOSS_NAMES}
    for k in range(num_draws):
        state, batch, rng_keys = find_checkable_case(seed * 10_000 + k)
        conf = pinned_confidences(state, batch, rng_keys)
        analytic = _analytic_gradients(state, batch, rng_keys, conf)
        fd = _fd_gradients(lambda st: _term_values(st, batch, rng_keys, conf), state)
        for name in LOSS_NAMES:
            worst[name] = max(worst[name], max_relative_error(analytic[name], fd[name]))
    return worst
