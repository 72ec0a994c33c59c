"""The benchmark tracer finds the functions it wraps by name, and a few of its
wrappers count what those functions return: a rename in the package must fail
here, not only in a traced benchmark run."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from upcsc.losses import partition_unlabeled

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_is_a_callable_of_the_package():
    tracer = load_tracer()
    assert tracer.TARGETS
    missing = [f"{module}.{attr}" for _, module, attr in tracer.TARGETS
               if not module.startswith("upcsc.")
               or not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_every_tracer_observer_reads_what_its_target_returns():
    # rows 0 and 3 confident, row 1 with two candidates, row 2 exactly uniform
    conf = np.array([[0.8, 0.1, 0.1], [0.45, 0.45, 0.1], [1 / 3, 1 / 3, 1 / 3],
                     [0.1, 0.1, 0.8]])
    part = partition_unlabeled(conf, 0.6)
    args = {"partition_unlabeled": (conf, 0.6), "upc_negative_masks": (part,),
            "sc_negative_masks": (part,)}
    tracer = load_tracer()
    targets = {name: (module, attr) for name, module, attr in tracer.TARGETS}
    counts = Counter()
    for name, observe in tracer.OBSERVERS.items():
        module, attr = targets[name]
        observe(getattr(importlib.import_module(module), attr)(*args[attr]), counts)
    assert counts["n_confident"] + counts["n_unconfident"] == len(conf)
    for key in ("sc_anchors", "negative_pairs", "pairs_examined"):
        assert type(counts[key]) is int, key
    # UPC: 2 anchors x 4 rows, 2 + 3 negatives; SC: row 1 alone, 2 negatives
    assert (counts["sc_anchors"], counts["negative_pairs"], counts["pairs_examined"]) == (1, 7, 12)
