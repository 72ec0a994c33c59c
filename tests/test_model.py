"""ModelState construction, forward ops, and serialization."""

import struct

import numpy as np
import pytest

from oracles import with_params
from upcsc import model
from upcsc.autograd import Tensor
from upcsc.errors import ConfigError, ShapeError
from upcsc.model import (FORMAT_VERSION, MAGIC, ROW_ALIGN, ModelDims, ModelState, block_rows,
                         class_confidence, featurize, init_model, load_model, param_layout,
                         project_features, project_proxies, save_model, score_rows)
from upcsc.numerics import MMAP_THRESHOLD, heap_rows, substream

DIMS = ModelDims(input_dim=3, hidden_dims=(4,), feature_dim=2, num_classes=3)


def test_dims_validation():
    with pytest.raises(ConfigError):
        ModelDims(input_dim=0)
    with pytest.raises(ConfigError):
        ModelDims(hidden_dims=(8, 0))
    with pytest.raises(ConfigError):
        ModelDims(num_classes=1)


def test_init_is_seeded_and_in_xavier_bounds():
    a = init_model(DIMS, seed=9)
    b = init_model(DIMS, seed=9)
    c = init_model(DIMS, seed=10)
    for (name, wa), (_, wb) in zip(a.param_items(), b.param_items()):
        assert np.array_equal(wa, wb), name
    assert any(not np.array_equal(wa, wc)
               for (_, wa), (_, wc) in zip(a.param_items(), c.param_items()))
    for (w, _), (d_in, d_out) in zip(a.featurizer, DIMS.layer_widths()):
        bound = np.sqrt(6.0 / (d_in + d_out))
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.5 * bound  # actually spread out, not degenerate
    for _, bias in a.featurizer:
        assert np.array_equal(bias, np.zeros_like(bias))
    cb = np.sqrt(6.0 / (DIMS.feature_dim + DIMS.num_classes))
    assert np.abs(a.classifier).max() <= cb


def test_param_items_order_and_groups():
    state = init_model(DIMS, seed=0)
    names = [n for n, _ in state.param_items()]
    assert names == [
        "featurizer.0.weight", "featurizer.0.bias",
        "featurizer.1.weight", "featurizer.1.bias",
        "classifier.weight",
        "feature_projector.weight", "feature_projector.bias",
        "classifier_projector.weight", "classifier_projector.bias",
    ]
    assert state.group_of("featurizer.1.weight") == "backbone"
    assert state.group_of("classifier.weight") == "classifier"
    assert state.group_of("feature_projector.bias") == "projectors"
    assert state.group_of("classifier_projector.weight") == "projectors"
    with pytest.raises(KeyError):
        state.group_of("nonsense")


@pytest.mark.parametrize("dims", [ModelDims(4, (), 3, 2), ModelDims(4, (5, 6), 3, 2)])
def test_init_draws_weights_in_declaration_order(dims):
    # the order every output byte depends on, written out by hand
    rng = substream(7)

    def weight(d_in, d_out):
        bound = np.sqrt(6.0 / (d_in + d_out))
        return rng.uniform(-bound, bound, size=(d_in, d_out))

    widths = [dims.input_dim, *dims.hidden_dims, dims.feature_dim]
    expect = {}
    for i, (d_in, d_out) in enumerate(zip(widths[:-1], widths[1:])):
        expect[f"featurizer.{i}.weight"] = weight(d_in, d_out)
        expect[f"featurizer.{i}.bias"] = np.zeros(d_out)
    expect["classifier.weight"] = weight(dims.num_classes, dims.feature_dim)
    for head in ("feature_projector", "classifier_projector"):
        expect[f"{head}.weight"] = weight(dims.feature_dim, dims.feature_dim)
        expect[f"{head}.bias"] = np.zeros(dims.feature_dim)
    state = init_model(dims, seed=7)
    assert list(state.params) == list(expect)
    for name, arr in state.param_items():
        assert arr.tobytes() == expect[name].tobytes(), name


def test_state_rejects_params_that_do_not_match_the_layout():
    good = dict(init_model(DIMS, seed=0).param_items())
    missing = {k: v for k, v in good.items() if k != "classifier.weight"}
    extra = {**good, "classifier.bias": np.zeros(DIMS.num_classes)}
    names = list(good)
    misordered = {k: good[k] for k in [names[1], names[0], *names[2:]]}
    wrong_shape = {**good, "feature_projector.bias": np.zeros(DIMS.feature_dim + 1)}
    for params in (missing, extra, misordered, wrong_shape):
        with pytest.raises(ShapeError):
            ModelState(DIMS, params)
    assert list(ModelState(DIMS, good).param_items()) == list(good.items())
    assert list(param_layout(DIMS)) == names


def test_featurizer_view_is_read_only():
    state = init_model(DIMS, seed=0)
    with pytest.raises(TypeError):
        state.featurizer[0] = (np.zeros((3, 4)), np.zeros(4))
    with pytest.raises(AttributeError):
        state.classifier = np.zeros((3, 2))


def test_with_params_replaces_without_aliasing():
    state = init_model(DIMS, seed=0)
    new_cls = np.ones_like(state.classifier)
    other = with_params(state, {"classifier.weight": new_cls})
    assert np.array_equal(other.classifier, new_cls)
    assert other.classifier is not new_cls
    other.featurizer[0][0][0, 0] += 100.0
    assert state.featurizer[0][0][0, 0] != other.featurizer[0][0][0, 0]


def test_featurize_matches_manual_forward():
    state = init_model(DIMS, seed=3)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 3))
    (w0, b0), (w1, b1) = state.featurizer
    manual = np.maximum(x @ w0 + b0, 0.0) @ w1 + b1
    assert np.allclose(featurize(state, x), manual, atol=1e-14)


def test_featurize_on_arrays_matches_the_tape_bit_for_bit():
    # plain arrays and the tape run the same forward, and the caller's input
    # is left alone
    dims = ModelDims(input_dim=3, hidden_dims=(4, 5), feature_dim=2, num_classes=3)
    state = init_model(dims, seed=6)
    x = np.random.default_rng(5).standard_normal((9, 3))
    x_before = x.copy()
    tape = ModelState(dims, {name: Tensor(a) for name, a in state.param_items()})
    assert np.array_equal(featurize(state, x), featurize(tape, x).data)
    assert np.array_equal(x, x_before)


def test_featurize_no_activation_after_last_layer():
    # with enough random inputs some feature coordinates must go negative
    state = init_model(DIMS, seed=3)
    x = np.random.default_rng(2).standard_normal((50, 3))
    assert featurize(state, x).min() < 0


def test_featurize_rejects_wrong_width():
    state = init_model(DIMS, seed=0)
    with pytest.raises(ShapeError):
        featurize(state, np.ones((2, 4)))


def test_class_confidence_rows_normalized_and_equivariant():
    state = init_model(DIMS, seed=4)
    x = np.random.default_rng(3).standard_normal((8, 3))
    feats = featurize(state, x)
    conf = class_confidence(state, feats)
    assert np.allclose(conf.sum(axis=1), 1.0, atol=1e-12)
    perm = np.array([2, 0, 1])
    permuted = with_params(state, {"classifier.weight": state.classifier[perm]})
    conf_p = class_confidence(permuted, feats)
    assert np.allclose(conf_p, conf[:, perm], atol=1e-14)


@pytest.mark.parametrize("width", [1, 7, 32, 64, 100, 4096])
def test_heap_rows_is_the_most_rows_below_the_mapping_threshold(width):
    def chunk(rows):   # glibc's request2size: a size field, rounded up to 16 bytes
        return (8 * rows * width + 8 + 15) & ~15
    rows = heap_rows(width)
    assert chunk(rows) < MMAP_THRESHOLD <= chunk(rows + 1)


# 240 at the default widths: a last block of up to 255 rows of the 64-wide
# hidden layer stays below the mapping threshold (256 rows are exactly 128 KiB).
# B + ROW_ALIGN rows are the fewest scored in two blocks
B = block_rows(ModelDims())


@pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, B + ROW_ALIGN, 2 * B + 1, 700, 2730])
def test_score_rows_equals_the_unblocked_scores_bit_for_bit(n, monkeypatch):
    state = init_model(ModelDims(), seed=7)
    x = 3.0 * np.random.default_rng(n).standard_normal((n, 32))
    expect = class_confidence(state, featurize(state, x))
    blocks = []

    def recording_featurize(st, rows):
        blocks.append(((rows.ctypes.data - x.ctypes.data) // x.strides[0], len(rows)))
        return featurize(st, rows)

    monkeypatch.setattr(model, "featurize", recording_featurize)
    assert np.array_equal(score_rows(state, x), expect)
    # the blocks cover x in order, each starts on a multiple of ROW_ALIGN,
    # fits below the mapping threshold, and has min(n, B) rows or more, so
    # none has one row unless x has one
    ends = [0] + [lo + size for lo, size in blocks]
    assert all(lo <= end for (lo, _), end in zip(blocks, ends)) and ends[-1] == n
    assert all(lo % ROW_ALIGN == 0 and min(n, B) <= size <= heap_rows(64)
               for lo, size in blocks)


def test_score_rows_rejects_what_class_confidence_rejects():
    state = init_model(DIMS, seed=0)
    with pytest.raises(ShapeError):
        score_rows(state, np.ones((2, 4)))
    with pytest.raises(ShapeError):
        score_rows(state, np.ones((0, 3)))


def test_projections_unit_norm_and_tensor_passthrough():
    state = init_model(DIMS, seed=5)
    x = np.random.default_rng(4).standard_normal((6, 3))
    z = project_features(state, featurize(state, x))
    assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)
    w = project_proxies(state)
    assert w.shape == (DIMS.num_classes, DIMS.feature_dim)
    assert np.allclose(np.linalg.norm(w, axis=1), 1.0, atol=1e-12)
    tp = ModelState(DIMS, {name: Tensor(a) for name, a in state.param_items()})
    zt = project_features(tp, featurize(tp, x))
    assert isinstance(zt, Tensor)
    assert np.allclose(zt.data, z, atol=1e-14)
    assert isinstance(project_proxies(tp), Tensor)


def test_save_load_round_trip_bit_exact(tmp_path):
    state = init_model(ModelDims(6, (5, 4), 3, 4), seed=11)
    path = tmp_path / "model.bin"
    save_model(state, path)
    back = load_model(path)
    assert back.dims == state.dims
    for (name, a), (_, b) in zip(state.param_items(), back.param_items()):
        assert a.tobytes() == b.tobytes(), name


def test_load_rejects_corrupt_files(tmp_path):
    state = init_model(DIMS, seed=0)
    path = tmp_path / "model.bin"
    save_model(state, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError):
        load_model(bad_magic)

    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(raw[:-16])
    with pytest.raises(ValueError):
        load_model(truncated)

    trailing = tmp_path / "trailing.bin"
    trailing.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(ValueError):
        load_model(trailing)

    bad_version = tmp_path / "bad_version.bin"
    bad_version.write_bytes(raw[:4] + b"\x63\x00\x00\x00" + raw[8:])
    with pytest.raises(ValueError):
        load_model(bad_version)


def test_load_checks_payload_size_before_building_a_model(tmp_path, monkeypatch):
    def no_state(*args, **kwargs):
        pytest.fail("ModelState built before the payload size was checked")

    monkeypatch.setattr(model, "ModelState", no_state)
    # at u32 dims the payload size overflows int64
    for huge in (2 ** 31, 0xFFFFFFFF):
        header = MAGIC + struct.pack("<6I", FORMAT_VERSION, huge, 1, huge, huge, huge)
        path = tmp_path / "huge.bin"
        path.write_bytes(header + b"\x00" * 16)
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)
