"""The names the benchmark's tracer wraps must exist in the package.

`benchmarks/tracer.py` binds each (module, class, attribute) of its `SPANS`
by name, and its traced self-check fails on a name that does not resolve.
This reads `SPANS` from the file as it is, so deleting a bound name fails here.
"""
from __future__ import annotations

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("nonholo_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name, module_name, owner, attr in tracer.SPANS:
        module = importlib.import_module("nonholo." + module_name)
        if owner is None:
            found = hasattr(module, attr)
        else:  # the tracer replaces a method on the class that defines it
            found = attr in vars(getattr(module, owner, object))
        if not found:
            missing.append(name)
    assert missing == []
