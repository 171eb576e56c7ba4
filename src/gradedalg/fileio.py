"""Algebra files: a JSON presentation of a graded algebra.

Schema (coefficients are integers of any size, read mod the file's prime):

    {
      "prime": 7919,
      "basis": [{"name": "1", "degree": 0}, {"name": "x", "degree": 1}],
      "unit": [{"basis": "1", "coeff": 1}],
      "idempotents": [[{"basis": "1", "coeff": 1}]],
      "products": {"x*x": []}
    }

A product key absent from "products" means the product is zero; the unit
row products may be omitted too, they are filled in from the unit axiom
only if explicitly present.  Serialization is canonical (basis order), so
save(load(f)) reproduces f up to key ordering.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from . import modp
from .algebra import GradedAlgebra
from .errors import ParseError


def _lin_to_doc(vec: np.ndarray, names: list[str]) -> list[dict]:
    return [
        {"basis": names[i], "coeff": int(vec[i])}
        for i in np.nonzero(vec)[0]
    ]


def _integer(value):
    """``value`` as an exact Python int, or None unless it is an integer.

    JSON numbers may arrive as floats (``1.5``, ``1e400`` = inf, ``Infinity``);
    only finite integral ones are integers.
    """
    if isinstance(value, float) and not value.is_integer():
        return None
    try:
        return int(value)
    except (TypeError, ValueError):
        return None


def _lin_from_doc(doc, names: dict[str, int], n: int, p: int, where: str) -> np.ndarray:
    if not isinstance(doc, list):
        raise ParseError(f"{where}: expected a list of {{basis, coeff}} terms")
    coeffs: dict[int, int] = {}  # Python ints: repeated terms sum exactly
    for term in doc:
        if not isinstance(term, dict) or "basis" not in term or "coeff" not in term:
            raise ParseError(f"{where}: malformed term {term!r}")
        name = term["basis"]
        if name not in names:
            raise ParseError(f"{where}: unknown basis element {name!r}")
        coeff = _integer(term["coeff"])
        if coeff is None:
            raise ParseError(f"{where}: coefficient {term['coeff']!r} is not an integer")
        coeffs[names[name]] = coeffs.get(names[name], 0) + coeff
    vec = modp.zeros(n)
    for k, coeff in coeffs.items():
        vec[k] = coeff % p
    return vec


def algebra_to_doc(a: GradedAlgebra) -> dict:
    doc = {
        "prime": a.p,
        "basis": [{"name": nm, "degree": int(d)} for nm, d in zip(a.names, a.degrees)],
        "unit": _lin_to_doc(a.unit, a.names),
        "idempotents": [_lin_to_doc(e, a.names) for e in a.idempotents],
        "products": {},
    }
    for i in range(a.dim):
        for j in range(a.dim):
            if np.any(a.table[i, j]):
                doc["products"][f"{a.names[i]}*{a.names[j]}"] = _lin_to_doc(
                    a.table[i, j], a.names
                )
    return doc


def algebra_from_doc(doc: dict) -> GradedAlgebra:
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    for key in ("prime", "basis", "unit", "idempotents"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")
    try:
        p = modp.require_prime(doc["prime"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"prime: {exc}")
    basis = doc["basis"]
    if not isinstance(basis, list) or not basis:
        raise ParseError("basis: expected a nonempty list")
    names: list[str] = []
    degrees: list[int] = []
    for entry in basis:
        if not isinstance(entry, dict) or "name" not in entry or "degree" not in entry:
            raise ParseError(f"basis: malformed entry {entry!r}")
        nm = str(entry["name"])
        if "*" in nm:
            raise ParseError(f"basis: name {nm!r} may not contain '*'")
        if nm in names:
            raise ParseError(f"basis: duplicate name {nm!r}")
        deg = _integer(entry["degree"])
        if deg is None:
            raise ParseError(f"basis: degree of {nm!r} is not an integer")
        if deg < 0:
            raise ParseError(f"basis: negative degree for {nm!r}")
        if deg > np.iinfo(np.int64).max:
            raise ParseError(f"basis: degree of {nm!r} exceeds 2^63 - 1")
        names.append(nm)
        degrees.append(deg)
    n = len(names)
    index = {nm: i for i, nm in enumerate(names)}
    unit = _lin_from_doc(doc["unit"], index, n, p, "unit")
    idems = doc["idempotents"]
    if not isinstance(idems, list) or not idems:
        raise ParseError("idempotents: expected a nonempty list")
    idem_vecs = [
        _lin_from_doc(e, index, n, p, f"idempotents[{k}]") for k, e in enumerate(idems)
    ]
    table = modp.zeros(n, n, n)
    products = doc.get("products", {})
    if not isinstance(products, dict):
        raise ParseError("products: expected an object keyed by 'name*name'")
    for key, lin in products.items():
        parts = key.split("*")
        if len(parts) != 2 or parts[0] not in index or parts[1] not in index:
            raise ParseError(f"products: malformed key {key!r}")
        i, j = index[parts[0]], index[parts[1]]
        table[i, j] = _lin_from_doc(lin, index, n, p, f"products[{key!r}]")
    return GradedAlgebra(p, names, degrees, table, unit, idem_vecs)


def loads(text: str) -> GradedAlgebra:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return algebra_from_doc(doc)


def dumps(a: GradedAlgebra) -> str:
    return json.dumps(algebra_to_doc(a), indent=2)


def load(path: Union[str, Path]) -> GradedAlgebra:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}")
    return loads(text)


def save(path: Union[str, Path], a: GradedAlgebra) -> None:
    Path(path).write_text(dumps(a) + "\n")
