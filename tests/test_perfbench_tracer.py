"""The benchmark's trace mode binds package functions by name; keep them."""

import importlib
import importlib.util
import os
import sys

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def test_every_traced_name_resolves(monkeypatch):
    # Tracer.install getattr()s each (module, function) pair, so a renamed or
    # deleted function breaks every traced benchmark pass
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{m}.{f}" for m, f in tracer.TRACED
               if not callable(getattr(importlib.import_module(
                   f"{tracer.PACKAGE}.{m}"), f, None))]
    assert tracer.TRACED and missing == []
