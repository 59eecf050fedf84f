"""Every kronlab name the benchmark binds must resolve.

perfbench/tracer.py looks each of its TARGETS up with getattr when a traced
run starts, and perfbench/job.py calls checks.suite_periods_level5, so a
renamed or deleted name would otherwise fail only the traced benchmark run.
The tracer module is read from perfbench/ without writing bytecode there.
"""

import importlib
import importlib.util
import os
import sys

from kronlab import checks

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
