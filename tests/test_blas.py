"""Process-wide settings made by `import upcsc`: one BLAS thread, so outputs
do not depend on the core count, and large blocks that go back to the system
when freed, so memory use does not depend on the history of frees, beside a
heap that keeps one training step's small arrays."""

import json
import multiprocessing
import os
import platform
import sys

import pytest

from oracles import (KERNEL_FLAGS, blas_threads, require_kernel_set, require_openblas, run_python,
                     skip)

# a 5-step default-dims run; its products are large enough for OpenBLAS to
# split them over threads when it may
FIVE_STEPS = """
import hashlib, json, sys
from upcsc.harness import TrainConfig, train_one
from upcsc.model import save_model
run = train_one(TrainConfig(epochs=1, steps_per_epoch=5), target=0, seed=0)
save_model(run.final_state, sys.argv[1])
rec = run.epochs[-1]
print(json.dumps({"model": hashlib.sha256(open(sys.argv[1], "rb").read()).hexdigest(),
                  "losses": [rec.l_sup, rec.l_unsup, rec.l_upc, rec.l_sc, rec.l_total]}))
"""


def _five_steps(tmp_path, threads: str) -> dict:
    out = run_python("-c", FIVE_STEPS, str(tmp_path / f"model{threads}.bin"),
                     OPENBLAS_NUM_THREADS=threads)
    return json.loads(out.stdout)


def test_outputs_do_not_depend_on_the_blas_thread_env(tmp_path):
    one, two = _five_steps(tmp_path, "1"), _five_steps(tmp_path, "2")
    assert one["model"] == two["model"]
    assert one["losses"] == two["losses"]


def test_blas_runs_on_one_thread_after_import():
    require_openblas()
    assert set(blas_threads().values()) == {1}


# argv[1] is this tests directory; prints the package modules a bare
# `import upcsc` loaded, then the BLAS thread counts and whether OpenBLAS is
# loaded at all
BARE_IMPORT = """
import json, os, sys
import upcsc
loaded = sorted(m for m in sys.modules if m == "upcsc" or m.startswith("upcsc."))
sys.path.insert(0, sys.argv[1])
from oracles import blas_threads
from upcsc.numerics import _loaded_library_paths
openblas = any("openblas" in os.path.basename(p).lower() for p in _loaded_library_paths())
print(json.dumps([loaded, "multiprocessing" in sys.modules, blas_threads(), openblas]))
"""


def test_a_bare_import_loads_only_the_pins_and_pins_blas():
    loaded, multiprocessing_loaded, threads, openblas = json.loads(
        run_python("-c", BARE_IMPORT, os.path.dirname(__file__)).stdout)
    assert loaded == ["upcsc", "upcsc.autograd", "upcsc.errors", "upcsc.numerics"]
    assert not multiprocessing_loaded
    assert set(threads.values()) == ({1} if openblas else set())


@pytest.mark.parametrize("method", [m for m in ("fork", "spawn")
                                    if m in multiprocessing.get_all_start_methods()])
def test_pool_workers_run_blas_on_one_thread(method):
    require_openblas()
    with multiprocessing.get_context(method).Pool(2) as pool:
        reports = [pool.apply(blas_threads) for _ in range(2)]
    assert [set(r.values()) for r in reports] == [{1}, {1}]


# score_rows against the whole product on each kernel set of KERNEL_FLAGS
# that this CPU can run. At every n here but 2B+1 the last block overlaps
# the one before; unaligned, it fails on the Haswell and Nehalem kernels,
# which round a row at another place in its group differently.
SCORE_BLOCKS = """
import numpy as np
from upcsc.model import ModelDims, block_rows, class_confidence, featurize, init_model, score_rows
state = init_model(ModelDims(), seed=7)
B = block_rows(ModelDims())
for n in (B + 16, B + 17, 2 * B + 1, 700, 2730):
    x = 3.0 * np.random.default_rng(n).standard_normal((n, 32))
    assert np.array_equal(score_rows(state, x), class_confidence(state, featurize(state, x))), n
"""


@pytest.mark.parametrize("kernel", KERNEL_FLAGS)
def test_score_rows_is_bit_exact_on_each_openblas_kernel_set(kernel):
    require_kernel_set(kernel)
    run_python("-c", SCORE_BLOCKS, OPENBLAS_CORETYPE=kernel)


# Frees a 16 MB block, then measures what an 8 MB block leaves resident after
# it is freed. Left to itself, glibc would raise its mapping threshold to 16 MB
# and its trim threshold to 32 MB on the first free, and serve the 8 MB block
# from the heap, which keeps it.
FREED_BLOCK = """
import numpy as np
import upcsc

def rss_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))

np.ones(2 << 20).sum()
before = rss_kb()
np.ones(1 << 20).sum()
print(rss_kb() - before)
"""


def test_freed_large_arrays_do_not_stay_resident():
    if platform.libc_ver()[0] != "glibc" or not os.path.exists("/proc/self/status"):
        skip("not glibc on Linux; malloc is left as it is")
    assert int(run_python("-c", FREED_BLOCK).stdout) < 1024   # kB; the block itself is 8192


# A warmed-up 2-epoch default run: each step's small arrays come from heap
# pages the steps before faulted in, and evaluation scores every pool in
# blocks that fit the heap. What faults is mostly each epoch's confidence
# log, about 350 pages in all; trimming the heap at twice the mapping
# threshold made it about 5.6k, and scoring whole pools as well about 10.8k.
WARM_RUN = """
import resource
from upcsc.harness import TrainConfig, train_one
from upcsc.synthdata import generate_benchmark

config = TrainConfig(epochs=2)
bench = generate_benchmark(config.benchmark)
train_one(config, target=0, seed=0, benchmark=bench)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train_one(config, target=0, seed=1, benchmark=bench)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_a_warmed_run_faults_in_few_pages():
    if platform.libc_ver()[0] != "glibc" or not sys.platform.startswith("linux"):
        skip("not glibc on Linux; malloc is left as it is")
    assert int(run_python("-c", WARM_RUN).stdout) < 2000   # minor page faults
