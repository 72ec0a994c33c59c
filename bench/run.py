"""upcsc benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from `src/` of the
same checkout; nothing is installed. BENCHMARK.json at the root names the
workloads and the metrics, with their units.

--trace 0 measures the end-to-end metrics with tracing off: set-up time in
fresh interpreters, then repeated operations for about S seconds (at least
two). Every operation's outputs are checked and must be byte-identical to
the first one's, or to a serial run's for protocol_jobs2.

--trace 1 makes two traced operations, each after an untraced twin, and
reports the per-layer metrics: the traced outputs must equal the untraced
ones, every wrapper must be gone afterwards, and the counts must repeat
exactly.

The environment and a human-readable report go to stdout and to
.bench_work/; the last stdout line is the JSON result. The exit code is 0
when every operation and check passed, 1 when one failed, and 2 when the
checkout has no package to measure.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 11
MIN_OPERATIONS = 2
TRACED_OPERATIONS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _import_package() -> None:
    """Put this checkout's src/ first on the path, or exit 2 without a result."""
    if not (SRC / "upcsc" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'upcsc'}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import upcsc
    if Path(upcsc.__file__).resolve().parent != SRC / "upcsc":
        print(f"error: imported upcsc from {upcsc.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


class Ledger:
    """Operations attempted, and the reasons each failed operation failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, what: str, reason: str) -> None:
        self.failures.setdefault(what, []).append(reason)
        print(f"FAILED {what}: {reason}", file=sys.stderr)

    def run(self, what: str, fn, *args):
        """Count one attempted operation and call fn; returns (ok, result)."""
        self.attempted += 1
        return self.guard(what, fn, *args)

    def guard(self, what: str, fn, *args):
        """Call fn, recording an exception as a failure of `what`; returns (ok, result)."""
        try:
            return True, fn(*args)
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            if not isinstance(exc, workloads.CheckFailed):
                traceback.print_exc()
            self.fail(what, "".join(traceback.format_exception_only(type(exc), exc)).strip())
            return False, None


def _cpu_seconds() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _timed(fn):
    """(result, wall seconds, CPU seconds of this process and reaped children)."""
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    result = fn()
    t1, cpu1 = time.perf_counter(), _cpu_seconds()
    return result, t1 - t0, cpu1 - cpu0


def _peak_rss_mb() -> float:
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np
    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores_affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "loadavg_before": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_vars": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "mp_start_method": multiprocessing.get_start_method(),
        "commit": _git_commit(),
    }


def _probe_setup(seed: int, expected_digest: str) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), str(seed)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise workloads.CheckFailed(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out["digest"] != expected_digest:
        raise workloads.CheckFailed("set-up probe generated a different benchmark")
    return out["setup_s"]


class Reference:
    """The outputs every later operation must reproduce byte for byte."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.outputs = None

    def compare(self, what: str, outputs) -> bool:
        if self.outputs is None:
            self.outputs = outputs
            return True
        if outputs.digest == self.outputs.digest:
            return True
        reason = "outputs differ from the reference operation's"
        if outputs.lines is not None and self.outputs.lines is not None:
            pairs = zip(self.outputs.lines, outputs.lines)
            diff = next((i for i, (a, b) in enumerate(pairs) if a != b), None)
            if diff is not None:
                reason += (f"; first differing row {diff}: {self.outputs.lines[diff]!r} "
                           f"vs {outputs.lines[diff]!r}")
        self.ledger.fail(what, reason)
        return False


def _operate(ledger, ref, what, wl, fn):
    """Timed operation plus its untimed check; (wall, cpu) or None on failure."""
    ok, timed = ledger.run(what, _timed, fn)
    if not ok:
        return None
    result, wall, cpu = timed
    ok, outputs = ledger.guard(what, wl.check, result)
    if not ok or not ref.compare(what, outputs):
        return None
    return wall, cpu


def measure(wl, seconds: float, ledger: Ledger) -> tuple[dict, dict, dict]:
    """End-to-end metrics with tracing off, notes on them, and their samples."""
    expected = setup_probe.benchmark_digest(generate_benchmark(wl.config.benchmark))
    setups = []

    def probe_setup(count):
        for _ in range(count):
            ok, elapsed = ledger.run("set-up probe", _probe_setup, wl.seed, expected)
            if ok:
                setups.append(elapsed)

    # half the set-up probes before the operations and half after, so their
    # median spans the run's window rather than one moment of a shared machine
    probe_setup(SETUP_REPEATS // 2 + 1)
    ledger.run("warm-up", wl.warm_up)
    ref = Reference(ledger)
    if wl.reference is not None:
        _operate(ledger, ref, "reference", wl, wl.reference)
    samples = []
    start, last_cycle, n = time.perf_counter(), 0.0, 0
    while n < MIN_OPERATIONS or time.perf_counter() - start + last_cycle <= seconds:
        cycle0 = time.perf_counter()
        n += 1
        sample = _operate(ledger, ref, f"operation {n}", wl, wl.operation)
        if sample is not None:
            samples.append(sample)
        if n == MIN_OPERATIONS:
            # read here, because the peak creeps up with each further operation
            # and their number depends on the machine's speed
            peak_rss_mb = _peak_rss_mb()
        last_cycle = time.perf_counter() - cycle0
    probe_setup(SETUP_REPEATS // 2)
    walls = [w for w, _ in samples]
    cpus = [c for _, c in samples]

    def med(values):
        return statistics.median(values) if values else 0.0

    metrics = {
        "setup_s": med(setups),
        "run_s": med(walls),
        "cpu_s": med(cpus),
        "steps_per_s": med([wl.steps / w for w in walls]),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setups)}",
        "run_s": f"median of {len(walls)}",
        "cpu_s": f"median of {len(cpus)}",
        "steps_per_s": f"median of {len(walls)}, {wl.steps} steps per operation",
        "peak_rss_mb": f"max over the process and its children, up to operation {MIN_OPERATIONS}",
        "target_accuracy": None if ref.outputs is None else
        f"{ref.outputs.accuracy:.4f}, mean final target accuracy, the same in every operation",
    }
    return metrics, notes, {"setup_s": setups, "run_s": walls, "cpu_s": cpus}


def trace(wl, ledger: Ledger, workdir: Path) -> tuple[dict, dict, dict]:
    """Per-layer metrics from traced operations, each after an untraced twin.

    The protocol is traced in its serial form, because spans recorded in
    worker processes would not return to this one; its parallel form runs
    once, untraced, for the parallel efficiency.
    """
    ledger.run("warm-up", wl.warm_up)
    ref = Reference(ledger)
    serial_fn = wl.reference or wl.operation
    untraced_s, traced_s, traced = [], [], []
    for i in range(1, TRACED_OPERATIONS + 1):
        plain = _operate(ledger, ref, f"untraced operation {i}", wl, serial_fn)
        what, tr = f"traced operation {i}", tracer.Tracer()

        def traced_op():
            with tr.installed():
                return serial_fn()

        sample = _operate(ledger, ref, what, wl, traced_op)
        left = tracer.wrappers_left()
        if left:
            ledger.fail(what, f"wrappers not restored: {left}")
        if plain is None or sample is None:
            continue
        tr.write_spans(workdir / f"spans-{i}.csv")
        metrics = tracer.layer_metrics(tracer.SpanTable(tr))
        if traced:
            first_metrics, first_counts = traced[0]
            if tr.counts != first_counts:
                ledger.fail(what, f"counts differ from traced operation 1: "
                                  f"{dict(first_counts)} vs {dict(tr.counts)}")
            for name in tracer.COUNT_METRICS:
                if metrics[name] != first_metrics[name]:
                    ledger.fail(what, f"{name} differs from traced operation 1: "
                                      f"{first_metrics[name]} vs {metrics[name]}")
        untraced_s.append(plain[0])
        traced_s.append(sample[0])
        traced.append((metrics, tr.counts))
    if not traced:
        return {}, {}, {}
    metrics = tracer.median_metrics([m for m, _ in traced])
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced_s, untraced_s))
    metrics["harness.run_protocol.parallel_efficiency"] = 0.0
    if wl.reference is not None:
        parallel = _operate(ledger, ref, "parallel operation", wl, wl.operation)
        if parallel is not None:
            metrics["harness.run_protocol.parallel_efficiency"] = (
                statistics.median(untraced_s) / (wl.jobs * parallel[0]))
    notes = {"traced operations": len(traced)}
    return metrics, notes, {"untraced_s": untraced_s, "traced_s": traced_s}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="upcsc benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    env = environment()
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ledger = Ledger()
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir / "ops")
    if args.trace:
        metrics, notes, samples = trace(wl, ledger, workdir)
        declared = spec["per_layer"]
    else:
        metrics, notes, samples = measure(wl, args.seconds, ledger)
        declared = spec["end_to_end"]
    env["loadavg_after"] = os.getloadavg()
    shutil.rmtree(workdir / "ops", ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing and not ledger.failures:
        ledger.fail("metrics", f"not measured: {missing}")
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in declared},
    }
    print(f"env {json.dumps(env)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for m in declared:
        note = notes.get(m["name"])
        print(f"  {m['name']:<46} {result['metrics'][m['name']]['value']:>14.6g} {m['unit']:<6}"
              + (f"  ({note})" if note else ""))
    for name, note in notes.items():
        if name not in metrics:
            print(f"  {name:<46} {note}")
    print(f"  {'error_rate':<46} {ledger.failed}/{ledger.attempted} operations failed")
    (workdir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
         "notes": notes, "samples": samples, "failures": ledger.failures, **result}, indent=1, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    _import_package()
    import setup_probe
    import tracer
    import workloads
    from upcsc.synthdata import generate_benchmark
    sys.exit(main())
