"""Byte identity of the lab's outputs, against digests recorded for each
OpenBLAS kernel set, numpy version and set of numpy SIMD targets the CPU
runs, since outputs depend on all three: numpy's AVX2 loops for exp and
the like round differently from its AVX-512 ones.

A short fixed workload runs in a subprocess under each kernel set of
KERNEL_FLAGS that this CPU can run: a 2-epoch, one-seed protocol of every
method, a train + stats tree, and the lines gradcheck prints. A change meant
to keep every output byte passes unchanged. A change meant to move bytes
records them again, on a CPU that runs every kernel set, with

    PYTHONPATH=src python tests/test_digests.py

which rewrites digests.json with this machine's keys only: a byte change
leaves the digests of every other key stale.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import upcsc
from oracles import KERNEL_FLAGS, require_kernel_set, skip

SRC = str(Path(upcsc.__file__).resolve().parent.parent)
DIGESTS = Path(__file__).with_name("digests.json")

# argv[1] is an empty directory; prints {output path: sha256}
WORKLOAD = """
import contextlib, hashlib, io, json, os, sys
from upcsc import cli
from upcsc.harness import METHODS

work = sys.argv[1]
out = os.path.join(work, "out")
config = os.path.join(work, "short.cfg")
with open(config, "w") as fh:
    fh.write("epochs = 2\\nsteps_per_epoch = 10\\nseeds = 0\\n")
train = os.path.join(out, "train")
with contextlib.redirect_stdout(io.StringIO()):
    for method in METHODS:
        assert cli.main(["protocol", "--config", config, "--method", method,
                         "--out", os.path.join(out, method)]) == 0
    assert cli.main(["train", "--config", config, "--out", train]) == 0
    assert cli.main(["stats", "--confidences", os.path.join(train, "confidences.csv"),
                     "--truth-dir", os.path.join(train, "benchmark"), "--out", train]) == 0
gradcheck = io.StringIO()
with contextlib.redirect_stdout(gradcheck):
    cli.main(["gradcheck", "--seed", "0", "--draws", "2"])
digests = {"gradcheck stdout": hashlib.sha256(gradcheck.getvalue().encode()).hexdigest()}
for root, _, files in os.walk(out):
    for name in files:
        with open(os.path.join(root, name), "rb") as fh:
            digests[os.path.relpath(fh.name, out)] = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps(digests))
"""


def _key(kernel: str) -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:   # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    targets = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    return f"{kernel}, numpy {np.__version__} on {targets or 'its baseline'}"


def _digests(kernel: str, work) -> dict[str, str]:
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel,
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", WORKLOAD, str(work)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("kernel", KERNEL_FLAGS)
def test_outputs_match_the_recorded_digests(kernel, tmp_path):
    require_kernel_set(kernel)
    recorded = json.loads(DIGESTS.read_text())
    if _key(kernel) not in recorded:
        skip(f"no digests recorded for {_key(kernel)}")
    assert _digests(kernel, tmp_path) == recorded[_key(kernel)]


if __name__ == "__main__":
    import tempfile

    digests = {}
    for kernel in KERNEL_FLAGS:
        try:
            require_kernel_set(kernel)
        except pytest.skip.Exception:
            continue
        with tempfile.TemporaryDirectory() as work:
            digests[_key(kernel)] = dict(sorted(_digests(kernel, work).items()))
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"recorded {', '.join(digests)} in {DIGESTS}")
