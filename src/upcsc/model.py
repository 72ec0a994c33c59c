"""MLP featurizer, bias-free proxy classifier, and the two projection heads.

Parameters live in a ModelState of plain numpy arrays. The forward ops below
duck-type over the parameter arrays, so the loss code can substitute autograd
Tensors for the same fields and reuse these functions unchanged.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .autograd import Tensor
from .errors import ConfigError, ShapeError
from .numerics import l2_normalize_rows, softmax_rows, substream

MAGIC = b"UPCS"
FORMAT_VERSION = 1

# parameter-name prefix -> learning-rate group
_GROUPS = (
    ("featurizer.", "backbone"),
    ("classifier.", "classifier"),
    ("feature_projector.", "projectors"),
    ("classifier_projector.", "projectors"),
)


@dataclass(frozen=True)
class ModelDims:
    input_dim: int = 32
    hidden_dims: tuple[int, ...] = (64,)
    feature_dim: int = 64
    num_classes: int = 7

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1 or self.feature_dim < 1:
            raise ConfigError("input_dim and feature_dim must be positive")
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigError("hidden layer widths must be positive")
        if self.num_classes < 2:
            raise ConfigError("need at least two classes")

    def layer_widths(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) for each featurizer layer, ending at feature_dim."""
        widths = [self.input_dim, *self.hidden_dims, self.feature_dim]
        return list(zip(widths[:-1], widths[1:]))


class ModelState:
    """All trainable arrays, in a fixed declaration order.

    featurizer: list of (weight (d_in, d_out), bias (d_out,)) pairs
    classifier: (num_classes, feature_dim) proxy matrix, no bias
    feature_projector / classifier_projector: single linear (W, b) heads
    """

    def __init__(self, dims: ModelDims, featurizer, classifier, feature_projector,
                 classifier_projector):
        self.dims = dims
        self.featurizer = [(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))
                           for w, b in featurizer]
        self.classifier = np.asarray(classifier, dtype=np.float64)
        self.feature_projector = tuple(np.asarray(a, dtype=np.float64) for a in feature_projector)
        self.classifier_projector = tuple(np.asarray(a, dtype=np.float64) for a in classifier_projector)
        self._check_shapes()

    def _check_shapes(self):
        chain = self.dims.layer_widths()
        if len(self.featurizer) != len(chain):
            raise ShapeError("featurizer layer count does not match dims")
        for (w, b), (d_in, d_out) in zip(self.featurizer, chain):
            if w.shape != (d_in, d_out) or b.shape != (d_out,):
                raise ShapeError(f"featurizer layer shape {w.shape}/{b.shape} != {(d_in, d_out)}")
        d_f, c = self.dims.feature_dim, self.dims.num_classes
        if self.classifier.shape != (c, d_f):
            raise ShapeError(f"classifier shape {self.classifier.shape} != {(c, d_f)}")
        for w, b in (self.feature_projector, self.classifier_projector):
            if w.shape != (d_f, d_f) or b.shape != (d_f,):
                raise ShapeError("projector shapes must be (d_f, d_f) and (d_f,)")

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) pairs in declaration order; arrays are the live ones."""
        items = []
        for i, (w, b) in enumerate(self.featurizer):
            items.append((f"featurizer.{i}.weight", w))
            items.append((f"featurizer.{i}.bias", b))
        items.append(("classifier.weight", self.classifier))
        items.append(("feature_projector.weight", self.feature_projector[0]))
        items.append(("feature_projector.bias", self.feature_projector[1]))
        items.append(("classifier_projector.weight", self.classifier_projector[0]))
        items.append(("classifier_projector.bias", self.classifier_projector[1]))
        return items

    @staticmethod
    def group_of(name: str) -> str:
        for prefix, group in _GROUPS:
            if name.startswith(prefix):
                return group
        raise KeyError(f"unknown parameter {name!r}")

    def with_params(self, arrays: dict[str, np.ndarray]) -> "ModelState":
        """New state taking any array present in `arrays`, copying the rest."""
        def pick(name, current):
            return arrays.get(name, current).copy()
        feats = [(pick(f"featurizer.{i}.weight", w), pick(f"featurizer.{i}.bias", b))
                 for i, (w, b) in enumerate(self.featurizer)]
        return ModelState(
            self.dims,
            feats,
            pick("classifier.weight", self.classifier),
            (pick("feature_projector.weight", self.feature_projector[0]),
             pick("feature_projector.bias", self.feature_projector[1])),
            (pick("classifier_projector.weight", self.classifier_projector[0]),
             pick("classifier_projector.bias", self.classifier_projector[1])),
        )

    def copy(self) -> "ModelState":
        return self.with_params({})


def init_model(dims: ModelDims, seed: int) -> ModelState:
    """Uniform(-a, a) weights with a = sqrt(6 / (fan_in + fan_out)), zero biases."""
    rng = substream(seed)

    def layer(d_in, d_out):
        bound = np.sqrt(6.0 / (d_in + d_out))
        return rng.uniform(-bound, bound, size=(d_in, d_out)), np.zeros(d_out)

    featurizer = [layer(d_in, d_out) for d_in, d_out in dims.layer_widths()]
    c_bound = np.sqrt(6.0 / (dims.feature_dim + dims.num_classes))
    classifier = rng.uniform(-c_bound, c_bound, size=(dims.num_classes, dims.feature_dim))
    return ModelState(dims, featurizer, classifier,
                      layer(dims.feature_dim, dims.feature_dim),
                      layer(dims.feature_dim, dims.feature_dim))


def _relu(v):
    return v.relu() if isinstance(v, Tensor) else np.maximum(v, 0.0)


def featurize(state, x):
    """Featurizer forward pass: linear layers with ReLU between, none after the last."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != state.dims.input_dim:
        raise ShapeError(f"featurize expects (n, {state.dims.input_dim}), got {x.shape}")
    h = x
    last = len(state.featurizer) - 1
    for i, (w, b) in enumerate(state.featurizer):
        h = h @ w + b
        if i < last:
            h = _relu(h)
    return h


def class_confidence(state, features) -> np.ndarray:
    """Row-wise softmax over proxy logits features @ classifier.T."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != state.dims.feature_dim:
        raise ShapeError(f"expected (n, {state.dims.feature_dim}) features, got {features.shape}")
    return softmax_rows(features @ np.asarray(state.classifier).T)


def project_features(state, features):
    """z = l2-normalized feature projection; differentiable when given Tensors."""
    w, b = state.feature_projector
    return l2_normalize_rows(features @ w + b)


def project_proxies(state):
    """w_y = l2-normalized projection of each classifier proxy row."""
    w, b = state.classifier_projector
    return l2_normalize_rows(state.classifier @ w + b)


def _param_count(dims: ModelDims) -> int:
    """Number of float64 values save_model writes for a model of these dims."""
    d_f = dims.feature_dim
    featurizer = sum((d_in + 1) * d_out for d_in, d_out in dims.layer_widths())
    return featurizer + dims.num_classes * d_f + 2 * (d_f + 1) * d_f


def save_model(state: ModelState, path) -> None:
    """Flat little-endian binary dump; loads back bit-exactly."""
    dims = state.dims
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", dims.input_dim))
        fh.write(struct.pack("<I", len(dims.hidden_dims)))
        for h in dims.hidden_dims:
            fh.write(struct.pack("<I", h))
        fh.write(struct.pack("<I", dims.feature_dim))
        fh.write(struct.pack("<I", dims.num_classes))
        for _, arr in state.param_items():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_model(path) -> ModelState:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise ValueError("not a model file (bad magic)")
    off = 4

    def read_u32():
        nonlocal off
        if off + 4 > len(raw):
            raise ValueError("truncated model file header")
        (v,) = struct.unpack_from("<I", raw, off)
        off += 4
        return v

    version = read_u32()
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version}")
    input_dim = read_u32()
    n_hidden = read_u32()
    hidden = tuple(read_u32() for _ in range(n_hidden))
    dims = ModelDims(input_dim, hidden, read_u32(), read_u32())
    expected = off + 8 * _param_count(dims)
    if len(raw) < expected:
        raise ValueError("truncated model file payload")
    if len(raw) > expected:
        raise ValueError("trailing bytes after model payload")

    arrays = {}
    template = init_model(dims, seed=0)
    for name, arr in template.param_items():
        arrays[name] = np.frombuffer(raw, dtype="<f8", count=arr.size, offset=off).reshape(arr.shape).copy()
        off += arr.size * 8
    return template.with_params(arrays)
