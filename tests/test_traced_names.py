"""Every kronlab name the benchmark binds must resolve, and every call it
makes must bind.

perfbench/tracer.py looks each of its TARGETS up with getattr when a traced
run starts, and perfbench/job.py calls suites and product_B directly, so a
renamed or deleted name, or a changed signature, would otherwise fail only
the benchmark run.  The tracer module is read from perfbench/ without
writing bytecode there.
"""

import importlib
import importlib.util
import inspect
import os
import sys

from kronlab import checks, kronecker

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def test_traced_names_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, attr, _ in tracer.TARGETS:
        obj = importlib.import_module(f"kronlab.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, attr)
    assert callable(checks.suite_periods_level5)


def test_benchmark_calls_bind():
    # perfbench/job.py's direct calls, with its argument shapes
    chi, seed = object(), 11
    calls = [
        (checks.suite_product_routes, (13, chi), {"kmax": 8, "prec": 60}),
        (checks.suite_modular, (5, chi), {"npoints": 250, "seed": seed}),
        (checks.suite_elliptic, (5, chi), {"npoints": 250, "seed": seed + 1}),
        (checks.suite_periods_level5, (30,), {}),
        (kronecker.product_B, (chi, 8, 60), {"route": "closed"}),
    ]
    for fn, args, kwargs in calls:
        inspect.signature(fn).bind(*args, **kwargs)
