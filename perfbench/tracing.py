"""Spans around the public functions of gradedalg, recorded from outside.

The tracer rebinds each traced function in every ``gradedalg.*`` namespace
that holds it (``from .modules import hom_basis`` makes a second binding
in ``equiv``) and wraps traced methods on their class.  Nothing under
``src/`` is edited; ``uninstall`` puts every original object back, so
untraced jobs in the same process run the library as shipped.

A span is (id, name, job, parent, start, end, attrs).  ``attrs`` holds the
counts taken at the same boundary: matrix cells entering ``rref``, hom
system cells and whether the hom basis was non-empty, trials used by a
successful ``extract_sigma``.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np

# (module, attribute path) of every traced function or method
TRACED = (
    ("modp", "rref"),
    ("modp", "invert"),
    ("modp", "mat_pow"),
    ("algebra", "validate_algebra"),
    ("algebra", "radical"),
    ("algebra", "corner"),
    ("algebra", "is_basic"),
    ("algebra", "Bimodule.validate"),
    ("construct", "beilinson"),
    ("construct", "x_bimodule"),
    ("construct", "trivial_extension"),
    ("construct", "t_of"),
    ("construct", "AlgebraAutomorphism.power"),
    ("construct", "AlgebraAutomorphism.validate"),
    ("modules", "hom_basis"),
    ("modules", "projective_cover"),
    ("modules", "syzygy"),
    ("modules", "GradedModule.validate"),
    ("selfinj", "is_graded_selfinjective"),
    ("selfinj", "is_graded_frobenius"),
    ("selfinj", "graded_nakayama"),
    ("selfinj", "global_dimension"),
    ("equiv", "theorem_pipeline"),
    ("equiv", "phi"),
    ("equiv", "psi"),
    ("equiv", "extract_sigma"),
    ("fileio", "load"),
    ("fileio", "algebra_to_doc"),
    ("cli", "main"),
)


def _rref_attrs(args, result):
    rows, cols = np.shape(args[0])
    return {"cells": rows * cols}


def _hom_attrs(args, result):
    m, n = args[0], args[1]
    allowed = int(np.count_nonzero(n.degrees[:, None] == m.degrees[None, :]))
    return {
        "system_cells": m.algebra.dim * m.dim * n.dim * allowed,
        "nonzero": int(bool(result)),
    }


def _sigma_attrs(args, result):
    return {"trials": result.trials_used, "found": 1}


ATTRS = {
    "modp.rref": _rref_attrs,
    "modules.hom_basis": _hom_attrs,
    "equiv.extract_sigma": _sigma_attrs,
}


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- rebinding ---------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "gradedalg" or name.startswith("gradedalg.")]
        for modname, path in TRACED:
            mod = importlib.import_module(f"gradedalg.{modname}")
            name = f"{modname}.{path}"
            if "." in path:
                clsname, meth = path.split(".")
                cls = getattr(mod, clsname)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(mod, path)
            wrapper = self._wrap(name, orig)
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is orig:
                        self._undo.append((ns, attr, orig))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                attrs = attrs_of(args, result) if attrs_of and result is not None else None
                spans.append((sid, name, self.job, parent, start, end, attrs))

        return functools.wraps(fn)(traced)

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        keys = ("id", "name", "job", "parent", "start", "end", "attrs")
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def per_job_layers(spans: list[tuple]) -> dict[int, dict[str, dict]]:
    """Per job and span name: calls, self time and summed attribute counts.

    Self time is a span's duration minus the durations of its direct
    children; traced calls never overlap, so children cover disjoint parts
    of the parent.
    """
    child_time: dict[int, float] = {}
    for sid, _, _, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    jobs: dict[int, dict[str, dict]] = {}
    for sid, name, job, _, start, end, attrs in spans:
        rec = jobs.setdefault(job, {}).setdefault(name, {"calls": 0, "self_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += (end - start) - child_time.get(sid, 0.0)
        for key, val in (attrs or {}).items():
            rec[key] = rec.get(key, 0) + val
    return jobs
