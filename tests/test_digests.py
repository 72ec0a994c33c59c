"""Byte identity of the lab's outputs, against digests recorded for each
OpenBLAS kernel set, numpy version and set of numpy SIMD targets the CPU
runs, since outputs depend on all three: numpy's AVX2 loops for exp and
the like round differently from its AVX-512 ones.

A short fixed workload runs in a subprocess under each kernel set of
KERNEL_FLAGS that this CPU can run: a 2-epoch, one-seed protocol of every
method, a train + stats tree, and the lines gradcheck prints. It prints its
own key, since NPY_DISABLE_CPU_FEATURES changes the targets numpy enables.
Besides each native key, Haswell kernels are checked on numpy's X86_V3
(AVX2) targets alone: the key of an AVX2-only CPU, such as most CI runners.

A change meant to keep every output byte passes unchanged. A change meant
to move bytes records them again, on a CPU that runs every kernel set, with

    PYTHONPATH=src python tests/test_digests.py

which rewrites digests.json with this machine's keys only, for each kernel
set at each SIMD level reached by disabling targets from the top: a byte
change leaves the digests of every other key stale. It prints, for each key,
the outputs whose digest differs from the file it replaces, and the keys it
adds or drops.
"""

import json
from pathlib import Path

import pytest

from oracles import KERNEL_FLAGS, require_kernel_set, run_python, skip

DIGESTS = Path(__file__).with_name("digests.json")

# argv[1] is an empty directory; prints [key, {output path: sha256}], the
# key naming OPENBLAS_CORETYPE, the numpy version and its enabled SIMD targets
WORKLOAD = """
import contextlib, hashlib, io, json, os, sys
import numpy as np
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
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:   # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
targets = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
key = f"{os.environ['OPENBLAS_CORETYPE']}, numpy {np.__version__} on {targets or 'its baseline'}"
print(json.dumps([key, dict(sorted(digests.items()))]))
"""


def _enabled_targets() -> list[str]:
    """numpy's dispatch targets this process enables, lowest first."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:   # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]


def _digests(kernel: str, work, disabled=()) -> tuple[str, dict[str, str]]:
    """(key, digests) of the workload under `kernel` with numpy's `disabled`
    dispatch targets switched off."""
    env = {"NPY_DISABLE_CPU_FEATURES": " ".join(disabled)} if disabled else {}
    proc = run_python("-c", WORKLOAD, str(work), OPENBLAS_CORETYPE=kernel, **env)
    key, digests = json.loads(proc.stdout)
    return key, digests


def _check(kernel: str, work, disabled=()) -> None:
    key, digests = _digests(kernel, work, disabled)
    recorded = json.loads(DIGESTS.read_text())
    if key not in recorded:
        skip(f"no digests recorded for {key}")
    assert digests == recorded[key]


@pytest.mark.parametrize("kernel", KERNEL_FLAGS)
def test_outputs_match_the_recorded_digests(kernel, tmp_path):
    require_kernel_set(kernel)
    _check(kernel, tmp_path)


def test_outputs_on_avx2_targets_alone_match_the_recorded_digests(tmp_path):
    """Haswell kernels with numpy's targets above X86_V3 switched off: the
    key of an AVX2-only CPU, checked on any CPU that runs more."""
    require_kernel_set("Haswell")
    targets = _enabled_targets()
    if "X86_V3" not in targets:
        skip(f"numpy enables no X86_V3 target here, only {' '.join(targets) or 'its baseline'}")
    above = targets[targets.index("X86_V3") + 1:]
    if not above:
        skip("X86_V3 is this CPU's top target; the native Haswell key covers it")
    _check("Haswell", tmp_path, above)


if __name__ == "__main__":
    import tempfile

    targets = _enabled_targets()
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    digests = {}
    for kernel in KERNEL_FLAGS:
        try:
            require_kernel_set(kernel)
        except pytest.skip.Exception:
            continue
        # every SIMD level from the native one down to the baseline
        for top in range(len(targets), -1, -1):
            with tempfile.TemporaryDirectory() as work:
                key, sums = _digests(kernel, work, targets[top:])
            digests[key] = sums
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"recorded {len(digests)} keys in {DIGESTS}")
    for key, sums in digests.items():
        if key not in old:
            print(f"added {key}")
            continue
        moved = sorted(name for name in {*sums, *old[key]} if sums.get(name) != old[key].get(name))
        print(f"{key}: {', '.join(moved) or 'unchanged'}")
    for key in old.keys() - digests.keys():
        print(f"dropped {key}")
