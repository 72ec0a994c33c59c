"""Finite-difference audit of every loss term's analytic gradients.

The losses read the weak-view confidences only through the batch partition
(roles, class sets and positive weights), a constant input that carries no
gradient. A central-difference probe therefore pins the partition the base
point's own graph made, so both sides differentiate the same function of
the parameters.

The probe is the 4-point central stencil, whose truncation error is O(h^4),
and a coordinate passes when the analytic gradient a and the stencil f agree
to a relative TOLERANCE, plus the stencil's own rounding noise: a few ulps of
the term's value F, divided by the step.

ReLU kinks are the one genuine nondifferentiability left, so draws are
rejected until every preactivation clears a margin much larger than the
perturbation. Draws must also make every term active, otherwise the
comparison would be 0 vs 0.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DegenerateInputError
from .losses import MethodFlags, build_loss_graph, param_gradients
from .model import ModelDims, init_model, layer_outputs
from .numerics import substream
from .synthdata import BenchmarkConfig, TrainBatch, augment_views

SMALL_DIMS = ModelDims(input_dim=5, hidden_dims=(6,), feature_dim=4, num_classes=3)
TAU = 0.65
FD_STEP = 1e-5          # finite-difference step on every parameter coordinate
TOLERANCE = 1e-4        # relative agreement a coordinate must reach above the noise
NOISE_ULPS = 10.0       # rounding noise allowed, in ulps of max(|F|, 1), over FD_STEP
RELU_MARGIN = 1e-3      # min |preactivation| so a 2 * FD_STEP perturbation cannot cross a kink
MAX_ATTEMPTS = 500      # draws per case before find_checkable_case gives up
MIN_TERM_VALUE = 0.05   # each gated term must be visibly nonzero
CLASSIFIER_BOOST = 6.0  # sharpens confidences so both batch roles occur
_ALL_FLAGS = MethodFlags(unsup=True, upc=True, sc=True)

_TAG_STATE = 9101
_TAG_BATCH = 9102
_TAG_AUG = 9103


def _term_values(state, batch, views, partition) -> dict[str, float]:
    terms = build_loss_graph(state, batch, views, _ALL_FLAGS, TAU, partition)[0]
    return {name: t.item() for name, t in terms.items()}


def _analytic_gradients(state, batch, views, partition) -> dict[str, np.ndarray]:
    grads = {}
    for name in _term_values(state, batch, views, partition):
        # fresh graph per backward pass: gradients accumulate on a tape
        terms, _, tp = build_loss_graph(state, batch, views, _ALL_FLAGS, TAU, partition)
        terms[name].backward()
        grads[name] = np.concatenate([g.ravel() for g in param_gradients(tp).values()])
    return grads


def _fd_gradients(values_fn, params) -> dict[str, np.ndarray]:
    """4-point central differences, (-f(x+2h) + 8f(x+h) - 8f(x-h) + f(x-2h)) / 12h,
    of every value values_fn(params) returns, by name, in one sweep: one flat
    vector over every parameter, in declaration order.

    Perturbs the parameter arrays in place and restores them, so values_fn
    must read the current arrays on every call (and must be deterministic).
    """
    slopes = []
    for _, arr in params.param_items():
        flat = arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            at = []
            for offset in (2.0, 1.0, -1.0, -2.0):
                flat[i] = orig + offset * FD_STEP
                at.append(values_fn(params))
            flat[i] = orig
            slopes.append({name: (-at[0][name] + 8.0 * at[1][name] - 8.0 * at[2][name]
                                  + at[3][name]) / (12.0 * FD_STEP) for name in at[0]})
    return {name: np.array([s[name] for s in slopes]) for name in slopes[0]}


def _error_ratio(analytic: np.ndarray, fd: np.ndarray, value: float) -> float:
    """max over coordinates of |a - f| over its allowance,
    TOLERANCE * max(|a|, |f|) + NOISE_ULPS * eps * max(|F|, 1) / FD_STEP,
    for a term of value F at the base point; a coordinate passes at <= 1."""
    noise = NOISE_ULPS * np.finfo(np.float64).eps * max(abs(value), 1.0) / FD_STEP
    allowance = TOLERANCE * np.maximum(np.abs(analytic), np.abs(fd)) + noise
    return float(np.max(np.abs(analytic - fd) / allowance))


def _relu_margin(state, batch, views) -> float:
    """Smallest |preactivation| over the two forwards the losses run: the
    labeled batch, and the weak views stacked over the strong ones."""
    return float(min(np.abs(h).min() for x in (batch.labeled_x, views)
                     for h in list(layer_outputs(state, x))[:-1]))


def find_checkable_case(case_seed: int):
    """Draw (state, batch, views, partition) safe for finite differencing,
    with the partition the draw's own unpinned graph made.

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
        views = augment_views(batch.unlabeled_x, substream(_TAG_AUG, case_seed, attempt),
                              BenchmarkConfig())
        try:
            terms, partition, _ = build_loss_graph(state, batch, views, _ALL_FLAGS, TAU)
        except DegenerateInputError:
            # dropout can zero an entire row at these tiny dims; redraw
            continue
        if (min(terms[name].item() for name in ("l_unsup", "l_upc", "l_sc")) >= MIN_TERM_VALUE
                and _relu_margin(state, batch, views) >= RELU_MARGIN):
            return state, batch, views, partition
    raise RuntimeError(f"no finite-difference-safe draw found for case {case_seed}")


def check_losses(num_draws: int = 20, seed: int = 0) -> dict[str, tuple[float, bool]]:
    """Per loss term, (its worst coordinate's |a - f| as a share of its
    allowance over num_draws cases, whether every coordinate passes)."""
    if num_draws < 1:
        raise ConfigError(f"draws must be >= 1, got {num_draws}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    worst: dict[str, float] = {}
    for k in range(num_draws):
        state, batch, views, partition = find_checkable_case(seed * 10_000 + k)
        values = _term_values(state, batch, views, partition)
        analytic = _analytic_gradients(state, batch, views, partition)
        fd = _fd_gradients(lambda st: _term_values(st, batch, views, partition), state)
        for name, grad in analytic.items():
            worst[name] = max(worst.get(name, 0.0), _error_ratio(grad, fd[name], values[name]))
    return {name: (ratio, ratio <= 1.0) for name, ratio in worst.items()}
