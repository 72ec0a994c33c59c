"""The benchmark tracer finds the functions it wraps by name, and a few of its
wrappers count what those functions return: a rename in the package must fail
here, not only in a traced benchmark run. Four of its targets, upc_loss,
sc_loss, upc_negative_masks and sc_negative_masks, are no step's code: the
steps run contrastive_terms and negative_pairs, and this file alone pins the
four to those entries, so that what the tracer times stays what they do."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from oracles import package_pair_selections
from upcsc.autograd import Tensor
from upcsc.losses import (MethodFlags, contrastive_terms, partition_unlabeled, sc_loss,
                          sc_negative_masks, upc_loss, upc_negative_masks)
from upcsc.numerics import l2_normalize_rows, softmax_rows, substream

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


# random batches of 1 to 12 rows, then only uniform rows and only confident ones
PARTITIONS = [*(partition_unlabeled(softmax_rows(substream(70, n).standard_normal((n, 4)) * 2.5),
                                    0.6) for n in (1, 5, 9, 12)),
              partition_unlabeled(np.full((3, 3), 1 / 3), 0.5),
              partition_unlabeled(np.eye(3), 0.9)]


@pytest.mark.parametrize("k", range(len(PARTITIONS)))
def test_the_four_tracer_only_targets_are_the_live_entries(k):
    # the loss entries give contrastive_terms' term with only that term on,
    # value and input gradients bit for bit; the mask entries give the
    # column blocks of negative_pairs over that term's anchors
    part = PARTITIONS[k]
    (n, c), rng = part.classes.shape, substream(71, k)
    z, w = (l2_normalize_rows(rng.standard_normal((rows, 5))) for rows in (n, c))
    terms = ((upc_loss, MethodFlags(upc=True, sc=False)),
             (sc_loss, MethodFlags(upc=False, sc=True)))
    for t, (entry, flags) in enumerate(terms):
        got_in, want_in = ((Tensor(z.copy()), Tensor(w.copy())) for _ in range(2))
        got, want = entry(*got_in, part), contrastive_terms(*want_in, part, flags)[t]
        assert got.item() == want.item(), (k, t)
        got.backward()
        want.backward()
        for a, b in zip(got_in, want_in):
            assert (a.grad is None and b.grad is None) or np.array_equal(a.grad, b.grad), (k, t)
    picked = package_pair_selections(part)
    for term, masks in (("upc", upc_negative_masks(part)), ("sc", sc_negative_masks(part))):
        for side, block in zip(("confident", "unconfident"), masks):
            assert (block.shape, block.tolist()) == picked[f"{term}_vs_{side}"], (k, term, side)
