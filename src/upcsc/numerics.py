"""Dense float64 helpers, seeded substreams, the LR schedule, and SGD.

A "matrix" throughout the package is a 2-D C-contiguous float64 numpy array.
Heavy lifting (products, reductions) is delegated to numpy; the functions
here add the shape/domain checks the rest of the package relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .autograd import Tensor
from .errors import ShapeError, DegenerateInputError

NORM_EPS = 1e-12


def substream(*keys: int) -> np.random.Generator:
    """Independent PCG64 stream keyed by a tuple of integers.

    Every random decision in the package draws from a stream derived this
    way, so any single step or run can be replayed without replaying the
    whole experiment.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(keys))))


def as_matrix(x) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting other ranks."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with max subtraction; every row sums to 1."""
    m = as_matrix(m)
    if m.size == 0:
        raise ShapeError("softmax_rows requires a nonempty matrix")
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def l2_normalize_rows(m):
    """Scale every row to unit Euclidean norm.

    Accepts a plain matrix or an autograd Tensor (the projector path in the
    losses differentiates through this). A row with norm <= 1e-12 is a hard
    error: collapsing embeddings should fail loudly, not be clamped.
    """
    sq = (m * m).sum(axis=1, keepdims=True)
    raw = sq.data if isinstance(sq, Tensor) else sq
    if raw.size and raw.min() <= NORM_EPS**2:
        raise DegenerateInputError("zero-norm row cannot be normalized")
    return m / sq**0.5


@dataclass(frozen=True)
class LrSchedule:
    base_rate: float
    total_steps: int

    def __post_init__(self):
        if self.base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")


def cosine_lr(schedule: LrSchedule, step: int) -> float:
    """Half-cosine decay from base_rate at step 0 to 0 at total_steps."""
    if not 0 <= step <= schedule.total_steps:
        raise ValueError(f"step {step} outside [0, {schedule.total_steps}]")
    return schedule.base_rate * 0.5 * (1.0 + math.cos(math.pi * step / schedule.total_steps))


def sgd_step(params, grads: Mapping[str, np.ndarray], rates: Mapping[str, float]):
    """theta <- theta - rate(group) * grad, returning a new parameter set.

    `params` is any object with param_items() / group_of() / with_params()
    (see ModelState) and `grads` maps each parameter name to its gradient.
    Rates are looked up per parameter group; a missing group is an error.
    """
    updated = {}
    for name, arr in params.param_items():
        g = grads[name]
        if g.shape != arr.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {arr.shape} for {name}")
        updated[name] = arr - rates[params.group_of(name)] * g
    return params.with_params(updated)


def max_relative_error(a: Mapping[str, np.ndarray], b: Mapping[str, np.ndarray],
                       floor: float = 1e-8) -> float:
    """max over coordinates of |a-b| / max(|a|, |b|, floor), matching names."""
    worst = 0.0
    for name, ga in a.items():
        gb = b[name]
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gb)), floor)
        if ga.size:
            worst = max(worst, float(np.max(np.abs(ga - gb) / denom)))
    return worst
