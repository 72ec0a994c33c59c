"""Config fuzzer: every config key, drawn inside and just outside its range,
through `upcsc train` in-process.

A draw must train (exit 0), fail as a config error that names one of the
drawn keys (exit 2), or fail at run time naming the run and the step
(exit 1); a failure leaves neither --out nor a staging directory behind.
"""

import contextlib
import io
import os
import re
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import DESK_CONFIG, config_text
from upcsc.cli import main
from upcsc.harness import _KEY_OWNERS, METHODS

# a desk-size run that trains; each draw overrides a few of these keys
BASE = {**DESK_CONFIG, "hidden_dims": 16, "epochs": 1, "steps_per_epoch": 2, "seeds": 0}


def _floats(lo, hi):
    """Numbers in [lo, hi], their ends, and the non-finite ones."""
    return st.one_of(st.floats(lo, hi), st.sampled_from([lo, hi, -1e-9, -0.0, 0.0, "nan", "inf"]))


def _int_lists(lo, hi):
    # "," is the empty tuple in a config file
    return st.lists(st.integers(lo, hi), max_size=3).map(lambda xs: ",".join(map(str, xs)) or ",")


_LEARNING_RATE = st.one_of(st.sampled_from([0.0, -1e-3, 50.0]), st.floats(1e-4, 1.0))

# every config key -> values on both sides of its bounds, small enough to run fast
VALUES = {
    "num_domains": st.integers(0, 4),
    "num_classes": st.integers(0, 6),
    "latent_dim": st.integers(-1, 10),
    "samples_per_class_per_domain": st.integers(-1, 50),
    "labels_per_class": st.integers(-1, 20),
    "master_seed": st.one_of(st.integers(-2, 5), st.just(2**70)),
    "class_separation": _floats(-1.0, 10.0),
    "rotation_max_angle": _floats(-1.0, 3.0),
    "scale_log_range": _floats(-1.0, 2.0),
    "shift_sigma": _floats(-1.0, 3.0),
    "noise_sigma": _floats(-1.0, 3.0),
    "sigma_weak": _floats(-1.0, 1.0),
    "sigma_strong": _floats(-1.0, 2.0),
    "strong_dropout": _floats(-0.5, 1.0),
    "hidden_dims": _int_lists(-1, 12),
    "feature_dim": st.integers(-1, 10),
    "method": st.sampled_from([*sorted(METHODS), "fixmatch+xyz"]),
    "tau": _floats(0.0, 1.1),
    "epochs": st.integers(-1, 2),
    "steps_per_epoch": st.integers(-1, 3),
    "labeled_per_domain": st.integers(-1, 12),
    "unlabeled_per_domain": st.integers(-1, 12),
    "lr_backbone": _LEARNING_RATE,
    "lr_classifier": _LEARNING_RATE,
    "lr_projectors": _LEARNING_RATE,
    "seeds": _int_lists(-1, 3),
}

DRAWS = st.lists(st.sampled_from(sorted(VALUES)), min_size=1, max_size=3, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({key: VALUES[key] for key in keys}))


def test_the_fuzzer_draws_every_config_key():
    assert set(VALUES) == set(_KEY_OWNERS) and set(BASE) <= set(VALUES)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example({"num_domains": 1})
# each failed at run time naming no run or step; see test_harness.py
@example({"scale_log_range": -0.0})
@example({"class_separation": 1e300, "steps_per_epoch": 1})
# overflowed while generating the data, naming no key, run or step
@example({"scale_log_range": 1000.0})
@given(DRAWS)
def test_train_exits_0_or_names_a_key_or_the_run_and_step(draw):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "fuzz.cfg")
        with open(config, "w") as fh:
            fh.write(config_text({**BASE, **draw}))
        out = os.path.join(tmp, "out")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["train", "--config", config, "--out", out])
        left = sorted(os.listdir(tmp))
    message = err.getvalue()
    if code == 0:
        return
    assert left == ["fuzz.cfg"], (draw, message)
    if code == 2:
        assert any(f"'{key}'" in message for key in draw), (draw, message)
    else:
        run_id = f"{draw.get('method', 'fixmatch+upcsc')}-t0-s0"
        assert code == 1 and re.search(rf"{re.escape(run_id)}\b.* step \d+", message), \
            (draw, message)
