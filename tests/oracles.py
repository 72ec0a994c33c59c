"""Plain-loop reference implementations the tests check the package against,
the test-side scalar node that seeds a backward pass and the row gather node
the per-role reference composes, and helpers that only tests call.

The confidence rule's one set oracle lives here: confidence_sets restates it
row by row with Python sets, pair_selections derives every pair selection of
the losses from those sets, and confidence_counts the statistics' counts.
Acceptance criteria 3 and 4 and the property tests assert through it, each on
its own draws; the property tests draw theirs from confidence_rows.
"""

import ctypes
import math
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from upcsc.analysis import ConfidenceLog
from upcsc.autograd import Tensor, _node, value_of
from upcsc.errors import ConfigError, DataError, ShapeError
from upcsc.losses import BatchPartition, confidence_roles, negative_pairs, sc_anchor_rows
from upcsc.model import ModelDims, ModelState, init_model
from upcsc.numerics import _loaded_library_paths, _openblas_functions, as_matrix
from upcsc.synthdata import DomainBenchmark


# this checkout's package source, which every child interpreter imports first
SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(*args, expect=0, **env) -> subprocess.CompletedProcess:
    """A fresh interpreter run on `args` with SRC first on its PYTHONPATH and
    `env` added to its environment, its output as text; fails, showing the
    child's stderr, unless it exits with `expect`."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], env={**os.environ, **env, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert proc.returncode == expect, (
        f"exit code {proc.returncode}, expected {expect}; stderr:\n{proc.stderr}")
    return proc


# the desk-size setup the run-level tests share: 3 domains of 4 classes, 40
# samples per class per domain, 4 of them labeled; latent_dim 8 keeps the chance
# of strong-augment dropout zeroing a whole row negligible. Each test file sets
# its own hidden_dims, epochs, steps_per_epoch and seeds on top.
DESK_CONFIG = {"num_domains": 3, "num_classes": 4, "latent_dim": 8,
               "samples_per_class_per_domain": 40, "labels_per_class": 4, "master_seed": 3,
               "feature_dim": 6, "tau": 0.6, "labeled_per_domain": 4, "unlabeled_per_domain": 6}


def config_text(keys) -> str:
    """A config file's text: one `key = value` line for each of `keys`."""
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


def seeded(out, s):
    """The scalar sum(out * s) as one node, so out.grad becomes s on backward."""
    return _node((out.data * s).sum(), (out, lambda g: g * s))


def gather_rows(t, idx):
    """The rows t[idx] as one node; idx has no repeats, so the gradient
    scatters back to those rows by plain assignment. The per-role reference
    composes its terms from it."""
    a = value_of(t)

    def vjp(g):
        full = np.zeros_like(a)
        full[idx] = g
        return full

    return _node(a[idx], (t, vjp))


def pcl_reference_loss(z, w, labels) -> float:
    """Plain-loop proxy contrastive loss over fully labeled embeddings.

    Positive pair (z_i, w_{y_i}); negatives are embeddings of samples with a
    different label. Kept deliberately naive to serve as a value oracle.
    """
    z = as_matrix(z)
    w = as_matrix(w)
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != len(z):
        raise ShapeError("labels and embeddings disagree in length")
    if z.shape[1] != w.shape[1]:
        raise ShapeError("embedding and proxy widths differ")
    if len(z) == 0:
        raise DataError("reference loss needs at least one sample")
    total = 0.0
    for i in range(len(z)):
        pos = math.exp(float(z[i] @ w[labels[i]]))
        rest = 0.0
        for j in range(len(z)):
            if labels[j] != labels[i]:
                rest += math.exp(float(z[i] @ z[j]))
        total += -math.log(pos / (pos + rest))
    return total / len(z)


def role_partition(confident, pseudo, unconfident, candidates, weights=None) -> BatchPartition:
    """The BatchPartition that gives rows `confident` the pseudo labels
    `pseudo` and rows `unconfident` the rows of the candidate matrix K as
    class sets, with `weights` as their positives; those surrogate weights
    default to K as 0/1 floats. The two tables are built from these terms,
    one row at a time, and nothing is checked."""
    cand = np.asarray(candidates, dtype=bool)
    weights = cand if weights is None else np.asarray(weights, np.float64)
    n, c = len(confident) + len(unconfident), cand.shape[1]
    classes, positives = np.zeros((n, c)), np.zeros((n, c))
    for i, y in zip(confident, pseudo, strict=True):
        classes[i, y] = positives[i, y] = 1.0
    for i, row, weight in zip(unconfident, cand, weights, strict=True):
        classes[i], positives[i] = row, weight
    return BatchPartition(np.asarray(confident, dtype=np.intp),
                          np.asarray(unconfident, dtype=np.intp), classes, positives)


def stacked_partition(pseudo, candidates, weights=None) -> BatchPartition:
    """role_partition's BatchPartition of rows stacked as one confident row
    per pseudo label over one unconfident row per row of K."""
    n_c, n_u = len(pseudo), len(candidates)
    return role_partition(np.arange(n_c), pseudo, np.arange(n_c, n_c + n_u), candidates, weights)


def confidence_sets(conf, tau) -> tuple[list, list]:
    """The confidence rule row by row, as the method states it: a row whose
    top score reaches tau is confident, its pseudo label the first class at
    that top; any other row is unconfident, its candidate set the classes
    scored strictly above 1/C. ([(row, pseudo label)], [(row, candidate set)])."""
    c = conf.shape[1]
    confident, unconfident = [], []
    for i, row in enumerate(conf.tolist()):
        top = max(row)
        if top >= tau:
            confident.append((i, row.index(top)))
        else:
            unconfident.append((i, frozenset(y for y in range(c) if row[y] > 1 / c)))
    return confident, unconfident


def partition_sets(part) -> tuple[list, list]:
    """A BatchPartition's class sets read back as confidence_sets' two lists;
    a confident row's set must hold exactly its one pseudo label."""
    def pseudo_label(i):
        (y,) = np.flatnonzero(part.classes[i]).tolist()
        return y

    return ([(i, pseudo_label(i)) for i in part.confident.tolist()],
            [(i, frozenset(np.flatnonzero(part.classes[i]).tolist()))
             for i in part.unconfident.tolist()])


def _mask(anchors, keys, selects) -> tuple:
    return (len(anchors), len(keys)), [[float(selects(a, k)) for k in keys] for a in anchors]


def pair_selections(conf, tau) -> dict[str, object]:
    """Every pair selection of the losses, from confidence_sets' own sets; each
    mask as (shape, rows of 0.0/1.0). UPC's confident anchors take as
    negatives the confident rows of another pseudo label and the unconfident
    rows whose set excludes theirs. SC's anchors are the unconfident rows with
    a candidate; they take the confident rows whose pseudo label their set
    excludes and the unconfident rows whose set shares no class with theirs."""
    confident, unconfident = confidence_sets(conf, tau)
    pseudo = [y for _, y in confident]
    cands = [cand for _, cand in unconfident]
    anchors = [cand for cand in cands if cand]
    return {"upc_vs_confident": _mask(pseudo, pseudo, lambda y_i, y_j: y_j != y_i),
            "upc_vs_unconfident": _mask(pseudo, cands, lambda y_i, c_j: y_i not in c_j),
            "sc_anchors": [i for i, cand in unconfident if cand],
            "sc_vs_confident": _mask(anchors, pseudo, lambda c_a, y_j: y_j not in c_a),
            "sc_vs_unconfident": _mask(anchors, cands, lambda c_a, c_j: c_a.isdisjoint(c_j))}


def package_pair_selections(part) -> dict[str, object]:
    """pair_selections' dict from the package's one pair rule on a partition:
    the confident and unconfident column blocks of negative_pairs over each
    term's anchors, whose boolean rows compare equal to the oracle's 0.0/1.0
    rows."""
    anchors = sc_anchor_rows(part)
    out = {"sc_anchors": anchors.tolist()}
    for term, rows in (("upc", part.confident), ("sc", anchors)):
        mask = negative_pairs(part.classes, rows)
        for side, cols in (("confident", part.confident), ("unconfident", part.unconfident)):
            out[f"{term}_vs_{side}"] = (mask[:, cols].shape, mask[:, cols].tolist())
    return out


def reference_proxy_contrast(z_a, proxies, weights, negatives):
    """The proxy-contrastive kernel as one node per term, over (keys, mask)
    sides: mean_i log(1 + sum_j m_ij exp(a_i . k_j) exp(-pos_i)) for anchor
    rows a_i of z_a, pos_i = sum_y weights_iy (a_i . w_y), and j over every
    side's keys; a side without keys adds nothing."""
    za, w = value_of(z_a), value_of(proxies)
    pos = (za @ w.T * weights).sum(axis=1, keepdims=True)
    live = [(keys, mask) for keys, mask in negatives if keys.shape[0]]
    ks = [value_of(keys) for keys, _ in live]
    ws = [np.exp(za @ k.T) * mask for k, (_, mask) in zip(ks, live)]
    rest = sum(w_side.sum(axis=1, keepdims=True) for w_side in ws)
    e_neg = np.exp(-pos)
    inner = 1.0 + rest * e_neg
    n = len(inner)
    r = e_neg / (n * inner)   # d value / d rest, per anchor

    def positive_share(g):   # d value / d (a_i . w_y)
        return -g * r * rest * weights

    return _node(np.log(inner).sum() * (1.0 / n),
                 (z_a, lambda g: sum(((g * r * w_side) @ k for k, w_side in zip(ks, ws)),
                                     positive_share(g) @ w)),
                 (proxies, lambda g: (za.T @ positive_share(g)).T),
                 *((keys, lambda g, w_side=w_side: (g * r * w_side).T @ za)
                   for (keys, _), w_side in zip(live, ws)))


def reference_contrastive_terms(z, w, part, flags) -> tuple:
    """(l_upc, l_sc) over the rows of z in the roles of BatchPartition `part`,
    composed per role: each term its own reference_proxy_contrast node over
    gathered copies of the confident and unconfident rows, with the four
    role masks written out one expression each. A term that is off or has
    no anchor is a zero leaf."""
    c = w.shape[0]
    pseudo = part.classes[part.confident].argmax(axis=1)
    cand = part.classes[part.unconfident] > 0.0
    z_uc, z_uu = gather_rows(z, part.confident), gather_rows(z, part.unconfident)
    upc = sc = Tensor(0.0)
    if flags.upc and len(pseudo):
        vs_confident = (pseudo[:, None] != pseudo[None, :]).astype(np.float64)
        vs_unconfident = (~cand[:, pseudo].T).astype(np.float64)
        upc = reference_proxy_contrast(z_uc, w, np.eye(c)[pseudo],
                                       [(z_uc, vs_confident), (z_uu, vs_unconfident)])
    anchors = np.flatnonzero(cand.any(axis=1))
    if flags.sc and anchors.size:
        cand_a = cand[anchors]
        vs_confident = (~cand_a[:, pseudo]).astype(np.float64)
        shared = cand_a.astype(np.float64) @ cand.T.astype(np.float64)
        vs_unconfident = (shared == 0.0).astype(np.float64)
        sc = reference_proxy_contrast(gather_rows(z_uu, anchors), w,
                                      part.positives[part.unconfident[anchors]],
                                      [(z_uc, vs_confident), (z_uu, vs_unconfident)])
    return upc, sc


def confidence_counts(log, tau) -> tuple[int, list[int], list[bool]]:
    """(unconfident count, candidate-set sizes, whether the true class is a
    candidate) over a ConfidenceLog's unconfident rows by confidence_sets,
    sizes and hits in log order."""
    _, unconfident = confidence_sets(log.conf, tau)
    truth = log.truth.tolist()
    return (len(unconfident), [len(cand) for _, cand in unconfident],
            [truth[i] in cand for i, cand in unconfident])


PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def confidence_rows(draw, min_rows=0, max_rows=10):
    """(conf, tau): rows of small integer weights over 2..6 classes, normalised,
    so exact ties, exactly uniform rows (an all-zero draw) and scores of
    exactly 1/C occur often; tau is sometimes a row's own top score, to
    exercise the inclusive boundary."""
    c = draw(st.integers(2, 6))
    n = draw(st.integers(min_rows, max_rows))
    weights = draw(st.lists(st.lists(st.integers(0, 4), min_size=c, max_size=c),
                            min_size=n, max_size=n))
    rows = [[float(v) for v in ws] if any(ws) else [1.0] * c for ws in weights]
    conf = np.array(rows, dtype=np.float64).reshape(n, c)
    if n:
        conf = conf / conf.sum(axis=1, keepdims=True)
    on_boundary = [t for t in conf.max(axis=1).tolist() if 1 / c < t < 1] if n else []
    if on_boundary and draw(st.booleans()):
        tau = draw(st.sampled_from(on_boundary))
    else:
        tau = draw(st.floats(1 / c, 1.0, exclude_min=True, exclude_max=True))
    return conf, tau


def stats_rows_reference(log, tau) -> list[tuple]:
    """write_stats_csv's rows, from confidence_counts on one filtered copy of
    the log per epoch and per (epoch, domain)."""
    def rates(sub):
        n_unconfident, _, hits = confidence_counts(sub, tau)
        return n_unconfident / len(sub), sum(hits) / n_unconfident if n_unconfident else None

    rows = []
    for epoch in sorted(set(log.epochs.tolist())):
        elog = log.filter(epoch=epoch)
        uus, inclusion = [], []
        for domain in sorted(set(elog.domains.tolist())):
            mine = elog.domains == domain
            u, i = rates(ConfidenceLog(elog.epochs[mine], elog.domains[mine], elog.conf[mine],
                                       elog.truth[mine]))
            uus.append(u)
            rows.append(("uus_rate", epoch, domain, u))
            if i is not None:
                inclusion.append(i)
                rows.append(("inclusion_rate", epoch, domain, i))
        u, i = rates(elog)
        rows.append(("uus_rate_micro", epoch, -1, u))
        rows.append(("uus_rate_macro", epoch, -1, float(np.mean(uus))))
        if inclusion:
            rows.append(("inclusion_rate_micro", epoch, -1, i))
            rows.append(("inclusion_rate_macro", epoch, -1, float(np.mean(inclusion))))
    return rows


def candidate_set_sizes(log, tau) -> np.ndarray:
    """|candidate set| of each unconfident sample of a ConfidenceLog, in log
    order, by losses.confidence_roles."""
    if len(log) == 0:
        raise DataError("statistic over an empty log")
    is_confident, k = confidence_roles(log.conf, tau)
    return k[~is_confident].sum(axis=1)


def degenerate_uniform_count(log, tau) -> int:
    """Unconfident samples with an empty candidate set (exactly uniform rows)."""
    return int((candidate_set_sizes(log, tau) == 0).sum())


def mean_candidate_fraction(log, tau) -> float:
    """E[|candidate set|] / C over unconfident samples: the chance level that
    the inclusion rate should be compared against, and nan where that rate is."""
    sizes = candidate_set_sizes(log, tau)
    return float(sizes.mean()) / log.num_classes if sizes.size else math.nan


def tiny_state() -> ModelState:
    """A seeded model with one linear featurizer layer, 2 inputs and 2 classes."""
    return init_model(ModelDims(input_dim=2, hidden_dims=(), feature_dim=2, num_classes=2), seed=5)


def with_params(state, arrays) -> ModelState:
    """New ModelState taking any array present in `arrays`, copying the rest."""
    return ModelState(state.dims, {name: arrays.get(name, a).copy()
                                   for name, a in state.param_items()})


def relabeled(bench, perm) -> DomainBenchmark:
    """bench with every class y renamed perm[y]: each domain's labeled, test
    and quarantined unlabeled labels, and the prototypes' rows; the data stay."""
    perm = np.asarray(perm)
    prototypes = np.empty_like(bench.prototypes)
    prototypes[perm] = bench.prototypes
    domains = [replace(s, labeled_y=perm[s.labeled_y], unlabeled_truth=perm[s.unlabeled_truth],
                       test_y=perm[s.test_y]) for s in bench._domains]
    return DomainBenchmark(bench.config, prototypes, bench.specs, domains)


def invert(spec, x) -> np.ndarray:
    """Latent rows behind a DomainSpec's observations: spec.apply undone."""
    return ((x - spec.shift) @ spec.rotation) / spec.scale


def final_accuracies(result) -> dict[tuple[int, int], float]:
    """Final target accuracy of each run of a ProtocolResult, by (target, seed)."""
    return {(r.target, r.seed): r.final_accuracy for r in result.runs}


def paired_deltas(a, b) -> np.ndarray:
    """Final-accuracy differences a - b over matching (target, seed) pairs."""
    fa, fb = final_accuracies(a), final_accuracies(b)
    if fa.keys() != fb.keys():
        raise ConfigError("protocols cover different (target, seed) pairs")
    return np.asarray([fa[k] - fb[k] for k in sorted(fa)])


def blas_threads() -> dict[str, int]:
    """Thread count of each loaded OpenBLAS, keyed by its path."""
    return {path: get() for path, get in _openblas_functions("get", [], ctypes.c_int)}


def skip(reason: str) -> None:
    """Skip the calling test, with the reason in its output too."""
    print(f"skipped: {reason}")
    pytest.skip(reason)


def require_openblas() -> None:
    # by file name, not by blas_threads(): a loaded OpenBLAS whose thread
    # functions go unrecognised is unpinned, and must fail these tests
    if not any("openblas" in os.path.basename(path).lower()
               for path in _loaded_library_paths()):
        skip("no OpenBLAS loaded by numpy; its BLAS is not pinned")


# each x86-64 kernel set of a DYNAMIC_ARCH OpenBLAS, by the CPU flags it
# needs; OPENBLAS_CORETYPE picks the set when the process loads OpenBLAS,
# and a build without DYNAMIC_ARCH ignores it
KERNEL_FLAGS = {"Nehalem": {"sse4_2"}, "Sandybridge": {"avx"}, "Haswell": {"avx2", "fma"},
                "SkylakeX": {"avx512f", "avx512vl", "avx512bw", "avx512dq"}}


def require_kernel_set(kernel: str) -> None:
    """Skip unless numpy's OpenBLAS can run `kernel`'s kernels on this CPU."""
    require_openblas()
    if platform.machine() != "x86_64" or not os.path.exists("/proc/cpuinfo"):
        skip("not x86-64 Linux; no CPU flags to pick kernel sets by")
    with open("/proc/cpuinfo") as fh:
        flags = set(next(line for line in fh if line.startswith("flags")).split())
    if not KERNEL_FLAGS[kernel] <= flags:
        skip(f"this CPU cannot run OpenBLAS's {kernel} kernels")
