"""Process-wide settings made by `import upcsc`: one BLAS thread, so outputs
do not depend on the machine, and large blocks that go back to the system
when freed, so memory use does not depend on the history of frees."""

import json
import multiprocessing
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import upcsc
from upcsc import numerics

SRC = str(Path(upcsc.__file__).resolve().parent.parent)

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


def _five_steps(tmp_path, blas_threads: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", FIVE_STEPS,
                          str(tmp_path / f"model{blas_threads}.bin")],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_outputs_do_not_depend_on_the_blas_thread_env(tmp_path):
    one, two = _five_steps(tmp_path, "1"), _five_steps(tmp_path, "2")
    assert one["model"] == two["model"]
    assert one["losses"] == two["losses"]


def _require_openblas():
    if not numerics.blas_threads():
        reason = "no OpenBLAS loaded by numpy; its BLAS is not pinned"
        print(f"skipped: {reason}")
        pytest.skip(reason)


def test_blas_runs_on_one_thread_after_import():
    _require_openblas()
    assert set(numerics.blas_threads().values()) == {1}


@pytest.mark.parametrize("method", [m for m in ("fork", "spawn")
                                    if m in multiprocessing.get_all_start_methods()])
def test_pool_workers_run_blas_on_one_thread(method):
    _require_openblas()
    with multiprocessing.get_context(method).Pool(2) as pool:
        reports = [pool.apply(numerics.blas_threads) for _ in range(2)]
    assert [set(r.values()) for r in reports] == [{1}, {1}]


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
        reason = "not glibc on Linux; malloc is left as it is"
        print(f"skipped: {reason}")
        pytest.skip(reason)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", FREED_BLOCK],
                         env=env, capture_output=True, text=True, check=True)
    assert int(out.stdout) < 1024   # kB; the block itself is 8192
