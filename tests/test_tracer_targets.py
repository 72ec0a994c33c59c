"""The benchmark tracer finds the functions it wraps by name: a rename in the
package must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_tracer_target_is_a_callable_of_the_package():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [f"{module}.{attr}" for _, module, attr in tracer.TARGETS
               if not module.startswith("upcsc.")
               or not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
