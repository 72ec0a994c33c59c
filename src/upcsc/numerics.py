"""Dense float64 helpers, seeded substreams, the cosine learning rate, and SGD.

A "matrix" throughout the package is a 2-D C-contiguous float64 numpy array.
Heavy lifting (products, reductions) is delegated to numpy; the functions
here add the shape/domain checks the rest of the package relies on.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
from typing import Mapping

import numpy as np

from .autograd import _node, value_of
from .errors import ShapeError, DegenerateInputError

NORM_EPS = 1e-12


class _PhdrInfo(ctypes.Structure):
    # leading fields of struct dl_phdr_info from <link.h>
    _fields_ = [("addr", ctypes.c_void_p), ("name", ctypes.c_char_p)]


def _loaded_library_paths() -> list[str]:
    """Paths of the shared libraries loaded in this process, from the dynamic
    linker's dl_iterate_phdr; empty where libc has none (macOS, Windows)."""
    visitor_type = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.POINTER(_PhdrInfo), ctypes.c_size_t,
                                    ctypes.c_void_p)
    try:
        iterate = ctypes.CDLL(None).dl_iterate_phdr
    except (AttributeError, OSError, TypeError):
        return []
    iterate.argtypes, iterate.restype = [visitor_type, ctypes.c_void_p], ctypes.c_int
    paths = []

    @visitor_type
    def visit(info, size, data):
        if info.contents.name:
            paths.append(os.fsdecode(info.contents.name))
        return 0

    iterate(visit, None)
    return paths


def _openblas_functions(verb: str, argtypes, restype) -> list[tuple[str, object]]:
    """(path, `verb`_num_threads function) of every loaded OpenBLAS; the
    symbol carries a prefix in the scipy-openblas builds that numpy 2 wheels
    ship, and the 64 suffix in ILP64 builds (numpy 1.x wheels, for one)."""
    found = []
    for path in _loaded_library_paths():
        if "openblas" not in os.path.basename(path).lower():
            continue
        lib = ctypes.CDLL(path)
        for name in (f"openblas_{verb}_num_threads", f"openblas_{verb}_num_threads64_",
                     f"scipy_openblas_{verb}_num_threads64_",
                     f"scipy_openblas_{verb}_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.argtypes, fn.restype = argtypes, restype
                found.append((path, fn))
                break
    return found


def pin_blas_threads() -> None:
    """Run OpenBLAS on one thread in this process, whatever OPENBLAS_NUM_THREADS
    says. The thread count changes how products are blocked and so their
    rounding, and with worker processes it oversubscribes the cores; pinned,
    outputs do not depend on the core count and `--jobs` is the only
    parallelism.
    Without a loaded OpenBLAS (MKL or Accelerate builds) this does nothing."""
    for _, set_threads in _openblas_functions("set", [ctypes.c_int], None):
        set_threads(1)


# mallopt parameters from glibc's <malloc.h>
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 128 << 10   # glibc's starting value
# free memory the heap keeps at its top: one training step's small arrays,
# so a step reuses the pages the last one faulted in instead of trimming them.
# 7 multiples is the fewest at which a warmed default fixmatch+upcsc step
# stops faulting (at 6 it still faults about 3.5 pages in)
TRIM_THRESHOLD = 7 * MMAP_THRESHOLD
# bytes malloc adds to a request before it compares it with MMAP_THRESHOLD:
# the chunk's size field, then rounding up to 16 bytes
_MALLOC_OVERHEAD = 8 + 15


def pin_malloc_thresholds() -> None:
    """Hold glibc's malloc thresholds still: a block of MMAP_THRESHOLD bytes
    or more that the heap has no room for gets its own mapping, which goes
    back to the system when the block is freed, and the heap gives back free
    memory at its top beyond TRIM_THRESHOLD. glibc otherwise raises both
    each time it frees a large block, so later large arrays come from the
    heap and may stay resident after they are freed, by an amount that
    changes from run to run. Held, a process keeps about what its live
    arrays need, plus one step's working set. Without glibc this does
    nothing."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def heap_rows(width: int) -> int:
    """The most rows of `width` float64 columns whose array malloc serves
    from the heap, below MMAP_THRESHOLD, rather than from a fresh mapping."""
    return max(1, (MMAP_THRESHOLD - _MALLOC_OVERHEAD) // (8 * width))


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
    losses differentiates through this, as one tape node). A row with norm
    <= 1e-12 is a hard error: collapsing embeddings should fail loudly, not
    be clamped.
    """
    a = value_of(m)
    sq = (a * a).sum(axis=1, keepdims=True)
    if sq.size and sq.min() <= NORM_EPS**2:
        raise DegenerateInputError("zero-norm row cannot be normalized")
    norm = sq**0.5
    y = a / norm
    # y is a / |a| per row, so the vjp is g minus its component along y, over |a|
    return _node(y, (m, lambda g: (g - y * (g * y).sum(axis=1, keepdims=True)) / norm))


def cosine_lr(base_rate: float, step: int, total_steps: int) -> float:
    """Half-cosine decay from base_rate at step 0 to 0 at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return base_rate * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def sgd_step(params, grads: Mapping[str, np.ndarray], rates: Mapping[str, float]):
    """theta <- theta - rate(group) * grad, returning a new parameter set.

    `params` is a ModelState and `grads` maps each of its parameter names to
    a gradient of the same shape. Each name's rate is rates[group], with the
    group read from model.param_layout through params.group_of(name); a
    missing group is an error.
    """
    updated = {}
    for name, arr in params.param_items():
        g = grads[name]
        if g.shape != arr.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {arr.shape} for {name}")
        updated[name] = arr - rates[params.group_of(name)] * g
    return type(params)(params.dims, updated)

