"""The benchmark tracer rebinds library functions by name.

A renamed, moved or deleted function would break only the traced benchmark
run, so every (module, attribute path) it lists must resolve here.
"""

import importlib

from perfbench.tracing import TRACED


def test_traced_names_resolve_to_callables():
    for modname, path in TRACED:
        owner = importlib.import_module(f"gradedalg.{modname}")
        cls, _, attr = path.rpartition(".")
        if cls:  # a method is rebound on its class, so it must be defined there
            target = vars(getattr(owner, cls, object)).get(attr)
        else:
            target = getattr(owner, attr, None)
        assert callable(target), f"{modname}.{path}"
