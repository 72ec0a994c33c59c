"""Plain-loop reference implementations the tests check the package against,
the test-side scalar node that seeds a backward pass, and helpers that only
tests call."""

import ctypes
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from upcsc.analysis import confidence_rates
from upcsc.autograd import _node
from upcsc.errors import ConfigError, DataError, ShapeError
from upcsc.losses import confidence_roles
from upcsc.model import ModelDims, ModelState, init_model
from upcsc.numerics import _loaded_library_paths, _openblas_functions, as_matrix


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


class UndefinedStatisticError(ValueError):
    """The requested statistic is undefined on this input (empty denominator)."""


def uus_rate(log, tau) -> float:
    """Fraction of samples of a ConfidenceLog below the confidence threshold."""
    return confidence_rates(log, tau)[0]


def inclusion_rate(log, tau) -> float:
    """Among the unconfident samples of a ConfidenceLog, how often the true
    class sits in the candidate set."""
    inclusion = confidence_rates(log, tau)[1]
    if math.isnan(inclusion):
        raise UndefinedStatisticError("no unconfident samples; inclusion rate undefined")
    return inclusion


def seeded(out, s):
    """The scalar sum(out * s) as one node, so out.grad becomes s on backward."""
    return _node((out.data * s).sum(), (out, lambda g: g * s))


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


def stats_rows_reference(log, tau) -> list[tuple]:
    """write_stats_csv's rows, one filtered copy of the log per epoch and per
    (epoch, domain), each statistic from the public per-log functions."""
    rows = []
    for epoch in sorted(set(log.epochs.tolist())):
        elog = log.filter(epoch=epoch)
        uus, inclusion = [], []
        for domain in sorted(set(elog.domains.tolist())):
            dlog = elog.filter(domain=domain)
            uus.append(uus_rate(dlog, tau))
            rows.append(("uus_rate", epoch, domain, uus[-1]))
            try:
                inclusion.append(inclusion_rate(dlog, tau))
                rows.append(("inclusion_rate", epoch, domain, inclusion[-1]))
            except UndefinedStatisticError:
                pass
        rows.append(("uus_rate_micro", epoch, -1, uus_rate(elog, tau)))
        rows.append(("uus_rate_macro", epoch, -1, float(np.mean(uus))))
        if inclusion:
            rows.append(("inclusion_rate_micro", epoch, -1, inclusion_rate(elog, tau)))
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
    inclusion_rate should be compared against."""
    sizes = candidate_set_sizes(log, tau)
    if sizes.size == 0:
        raise UndefinedStatisticError("no unconfident samples")
    return float(sizes.mean()) / log.num_classes


def tiny_state() -> ModelState:
    """A seeded model with one linear featurizer layer, 2 inputs and 2 classes."""
    return init_model(ModelDims(input_dim=2, hidden_dims=(), feature_dim=2, num_classes=2), seed=5)


def with_params(state, arrays) -> ModelState:
    """New ModelState taking any array present in `arrays`, copying the rest."""
    return ModelState(state.dims, {name: arrays.get(name, a).copy()
                                   for name, a in state.param_items()})


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
