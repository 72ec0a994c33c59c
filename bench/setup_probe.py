"""Set-up probe, run in a fresh interpreter by run.py.

Times `import upcsc` plus generate_benchmark for the workload's benchmark
config and prints {"setup_s": ..., "digest": ...} as one JSON line. Usage:
`python3 bench/setup_probe.py MASTER_SEED` with `src` on PYTHONPATH.
Only the standard library is imported before the clock starts.
"""

import hashlib
import json
import sys
import time


def benchmark_digest(bench) -> str:
    """sha256 over every split array of every domain, in a fixed order."""
    h = hashlib.sha256()
    for d in bench.domain_ids:
        for arr in (*bench.labeled(d), bench.unlabeled(d), bench.quarantined_truth(d),
                    *bench.test(d)):
            h.update(arr.tobytes())
    return h.hexdigest()


def main() -> None:
    master_seed = int(sys.argv[1])
    t0 = time.perf_counter()
    import upcsc  # noqa: F401 - the package import is part of set-up
    from upcsc.synthdata import BenchmarkConfig, generate_benchmark
    bench = generate_benchmark(BenchmarkConfig(master_seed=master_seed))
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "digest": benchmark_digest(bench)}))


if __name__ == "__main__":
    main()
