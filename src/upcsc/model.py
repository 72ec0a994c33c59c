"""MLP featurizer, bias-free proxy classifier, and the two projection heads.

Parameters live in a ModelState: numpy arrays by name, laid out by one table,
param_layout(dims). The forward ops below are autograd ops, which return
plain arrays on plain inputs, so the loss code can build a ModelState of
autograd Tensors over the same arrays and reuse these functions unchanged.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .autograd import linear, relu
from .errors import DataError, ShapeError, bounded, check_fields
from .numerics import heap_rows, l2_normalize_rows, softmax_rows, substream

MAGIC = b"UPCS"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class ModelDims:
    input_dim: int = bounded(32, least=1)
    hidden_dims: tuple[int, ...] = bounded((64,), least=1)
    feature_dim: int = bounded(64, least=1)
    num_classes: int = bounded(7, least=2)

    def __post_init__(self):
        check_fields(self)

    def layer_widths(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) for each featurizer layer, ending at feature_dim."""
        widths = [self.input_dim, *self.hidden_dims, self.feature_dim]
        return list(zip(widths[:-1], widths[1:]))


def param_layout(dims: ModelDims) -> dict[str, tuple[tuple[int, ...], str]]:
    """Parameter name -> (shape, learning-rate group), in declaration order:
    the order of init_model's draws, save_model's payload and param_items()."""
    layout = {}
    for i, (d_in, d_out) in enumerate(dims.layer_widths()):
        layout[f"featurizer.{i}.weight"] = ((d_in, d_out), "backbone")
        layout[f"featurizer.{i}.bias"] = ((d_out,), "backbone")
    d_f = dims.feature_dim
    layout["classifier.weight"] = ((dims.num_classes, d_f), "classifier")
    for head in ("feature_projector", "classifier_projector"):
        layout[f"{head}.weight"] = ((d_f, d_f), "projectors")
        layout[f"{head}.bias"] = ((d_f,), "projectors")
    return layout


class ModelState:
    """All trainable parameters by name, laid out as param_layout(dims): float64
    arrays, or Tensors over them on the loss code's tape. The properties give
    featurizer, a tuple of (weight (d_in, d_out), bias (d_out,)) pairs;
    classifier, the (num_classes, feature_dim) proxy matrix with no bias; and
    feature_projector / classifier_projector, single linear (W, b) heads.
    """

    def __init__(self, dims: ModelDims, params: dict):
        layout = param_layout(dims)
        got = [(name, a.shape) for name, a in params.items()]
        want = [(name, shape) for name, (shape, _) in layout.items()]
        if got != want:
            raise ShapeError(f"parameters {got} do not match the layout {want}")
        self.dims = dims
        self.params = params
        self._layout = layout

    @property
    def featurizer(self) -> tuple:
        p = self.params
        return tuple((p[f"featurizer.{i}.weight"], p[f"featurizer.{i}.bias"])
                     for i in range(len(self.dims.hidden_dims) + 1))

    @property
    def classifier(self):
        return self.params["classifier.weight"]

    @property
    def feature_projector(self) -> tuple:
        return self.params["feature_projector.weight"], self.params["feature_projector.bias"]

    @property
    def classifier_projector(self) -> tuple:
        return self.params["classifier_projector.weight"], self.params["classifier_projector.bias"]

    def param_items(self):
        """(name, array) pairs in declaration order; arrays are the live ones."""
        return self.params.items()

    def group_of(self, name: str) -> str:
        return self._layout[name][1]


def init_model(dims: ModelDims, seed: int) -> ModelState:
    """Uniform(-a, a) weights with a = sqrt(6 / (fan_in + fan_out)), zero biases,
    drawn in declaration order."""
    rng = substream(seed)
    params = {}
    for name, (shape, _) in param_layout(dims).items():
        bound = np.sqrt(6.0 / sum(shape))
        params[name] = rng.uniform(-bound, bound, shape) if len(shape) == 2 else np.zeros(shape)
    return ModelState(dims, params)


def _inputs(state, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != state.dims.input_dim:
        raise ShapeError(f"featurize expects (n, {state.dims.input_dim}), got {x.shape}")
    return x


def layer_outputs(state, x):
    """Yields each featurizer layer's output before its ReLU; the last is the features."""
    x = _inputs(state, x)
    for w, b in state.featurizer[:-1]:
        x = linear(x, w, b)
        yield x
        x = relu(x)
    yield linear(x, *state.featurizer[-1])


def featurize(state, x):
    """layer_outputs' last entry; islice drops each hidden one as it comes."""
    # list() runs it to its end: closing it suspended, once per call, faulted in more pages
    return list(islice(layer_outputs(state, x), len(state.dims.hidden_dims), None))[0]


def class_confidence(state, features) -> np.ndarray:
    """Row-wise softmax over proxy logits features @ classifier.T."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != state.dims.feature_dim:
        raise ShapeError(f"expected (n, {state.dims.feature_dim}) features, got {features.shape}")
    return softmax_rows(features @ np.asarray(state.classifier).T)


# OpenBLAS computes a product's rows in small groups, and a row at another
# place in its group, or in the short group at the end, can round differently
# (its Haswell and Nehalem kernels do). A block that starts on a multiple of
# ROW_ALIGN rows keeps every row where the whole product has it.
ROW_ALIGN = 16


def block_rows(dims: ModelDims) -> int:
    """Rows per block of score_rows: the largest multiple of ROW_ALIGN that,
    with ROW_ALIGN - 1 rows more, still fits numerics.heap_rows of the
    widest layer, so every block's arrays come from the heap. Layers too wide
    for that get blocks of ROW_ALIGN rows, which are mapped."""
    rows = heap_rows(max(dims.input_dim, *dims.hidden_dims, dims.feature_dim, dims.num_classes))
    return max(ROW_ALIGN, (rows + 1) // ROW_ALIGN * ROW_ALIGN - ROW_ALIGN)


def score_rows(state, x) -> np.ndarray:
    """class_confidence(state, featurize(state, x)) of plain arrays, scored in
    blocks of block_rows rows, whose arrays malloc serves from the heap, so
    scoring a large pool maps no fresh pages.

    Every block starts on a multiple of ROW_ALIGN, and the last one starts
    at least block_rows rows before the end, overlapping the one before if
    need be. A short block could take another kernel than the whole product
    (a one-row product takes numpy's matrix-vector path; OpenBLAS has
    small-matrix kernels), and those round differently. Bit for bit at the
    default dims only: other dims can move last bits, never the argmax."""
    x = _inputs(state, x)
    block = block_rows(state.dims)
    out = np.empty((len(x), state.dims.num_classes))
    last = max(0, len(x) - block) // ROW_ALIGN * ROW_ALIGN
    for lo in range(0, last, block):
        out[lo:lo + block] = class_confidence(state, featurize(state, x[lo:lo + block]))
    # an empty x reaches class_confidence too, which rejects it
    out[last:] = class_confidence(state, featurize(state, x[last:]))
    return out


def project_features(state, features):
    """z = l2-normalized feature projection; differentiable when given Tensors."""
    w, b = state.feature_projector
    return l2_normalize_rows(linear(features, w, b))


def project_proxies(state):
    """w_y = l2-normalized projection of each classifier proxy row."""
    w, b = state.classifier_projector
    return l2_normalize_rows(linear(state.classifier, w, b))


def _header(dims: ModelDims) -> bytes:
    """model.bin's header: MAGIC, then little-endian u32s for the version,
    input_dim, the hidden-layer count, each width, feature_dim, num_classes."""
    words = (FORMAT_VERSION, dims.input_dim, len(dims.hidden_dims), *dims.hidden_dims,
             dims.feature_dim, dims.num_classes)
    return MAGIC + struct.pack(f"<{len(words)}I", *words)


def save_model(state: ModelState, path) -> None:
    """model.bin: the header, then each parameter as little-endian float64 in
    param_layout order; loads back bit-exactly."""
    with open(path, "wb") as fh:
        fh.write(_header(state.dims))
        for _, arr in state.param_items():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_model(path) -> ModelState:
    """The ModelState save_model wrote to `path`; a malformed file raises
    DataError naming it, before any ModelState is built."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        if raw[:4] != MAGIC:
            raise ValueError("not a model file (bad magic)")
        version, input_dim, n_hidden = struct.unpack_from("<3I", raw, 4)
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version}")
        # widths from byte 16 on; a huge count raises struct.error at once, allocating nothing
        *hidden, feature_dim, num_classes = struct.unpack_from(f"<{n_hidden + 2}I", raw, 16)
        dims = ModelDims(input_dim, tuple(hidden), feature_dim, num_classes)
        layout = param_layout(dims)
        sizes = [math.prod(shape) for shape, _ in layout.values()]
        offset = len(_header(dims))
        if len(raw) < offset + 8 * sum(sizes):
            raise ValueError("truncated model file payload")
        if len(raw) > offset + 8 * sum(sizes):
            raise ValueError("trailing bytes after model payload")
    except struct.error as exc:
        raise DataError(f"{path}: truncated model file header") from exc
    except ValueError as exc:   # ModelDims' ConfigError among them
        raise DataError(f"{path}: {exc}") from exc
    chunks = np.split(np.frombuffer(raw, "<f8", offset=offset), np.cumsum(sizes)[:-1])
    return ModelState(dims, {name: chunk.reshape(shape).copy()
                             for (name, (shape, _)), chunk in zip(layout.items(), chunks)})
