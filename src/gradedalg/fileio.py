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

A file is the text of ``json.dumps(doc)`` with a two-space indent and a
newline, byte for byte, so the digest of a saved algebra is stable.  It is
written by ``_indented``, which emits that text for the one document shape
``algebra_to_doc`` makes (keys in its order, strings escaped by json's own
ASCII encoder, integers as ``int`` prints them) in one join of strings,
several times faster than the json module's pure-Python indented encoder.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string
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


def _add_terms(doc, names: dict[str, int], where: str, acc: dict[int, int], offset: int = 0) -> None:
    """Check the terms of ``doc`` and add each coefficient to ``acc`` at
    ``offset`` + its basis index; Python ints, so repeated terms sum exactly."""
    if not isinstance(doc, list):
        raise ParseError(f"{where}: expected a list of {{basis, coeff}} terms")
    for term in doc:
        if not isinstance(term, dict) or "basis" not in term or "coeff" not in term:
            raise ParseError(f"{where}: malformed term {term!r}")
        name = term["basis"]
        if name not in names:
            raise ParseError(f"{where}: unknown basis element {name!r}")
        coeff = term["coeff"]
        if type(coeff) is not int:
            coeff = _integer(coeff)
            if coeff is None:
                raise ParseError(f"{where}: coefficient {term['coeff']!r} is not an integer")
        at = offset + names[name]
        acc[at] = acc.get(at, 0) + coeff


def _lin_from_doc(doc, names: dict[str, int], n: int, p: int, where: str) -> np.ndarray:
    coeffs: dict[int, int] = {}
    _add_terms(doc, names, where, coeffs)
    vec = modp.zeros(n)
    for k, coeff in coeffs.items():
        vec[k] = coeff % p
    return vec


def algebra_to_doc(a: GradedAlgebra) -> dict:
    names, n = a.names, a.dim
    # only the non-zero products, in row-major (basis) order: one sweep over
    # the non-zero structure constants, a new term list at each new (i, j)
    i, j, k = np.nonzero(a.table)
    products: dict[str, list[dict]] = {}
    last = -1
    for ij, out, coeff in zip((i * n + j).tolist(), k.tolist(), a.table[i, j, k].tolist()):
        if ij != last:
            terms = products[f"{names[ij // n]}*{names[ij % n]}"] = []
            last = ij
        terms.append({"basis": names[out], "coeff": coeff})
    return {
        "prime": a.p,
        "basis": [{"name": nm, "degree": int(d)} for nm, d in zip(names, a.degrees)],
        "unit": _lin_to_doc(a.unit, names),
        "idempotents": [_lin_to_doc(e, names) for e in a.idempotents],
        "products": products,
    }


def _table_from_doc(products, index: dict[str, int], n: int, p: int) -> np.ndarray:
    """The structure constants: the exact sums of the terms of every product,
    keyed by the flat index (i n + j) n + k, then one assignment of their
    residues.  The sums are dropped on return, before the algebra is built."""
    if not isinstance(products, dict):
        raise ParseError("products: expected an object keyed by 'name*name'")
    coeffs: dict[int, int] = {}
    for key, lin in products.items():
        parts = key.split("*")
        if len(parts) != 2 or parts[0] not in index or parts[1] not in index:
            raise ParseError(f"products: malformed key {key!r}")
        row = (index[parts[0]] * n + index[parts[1]]) * n
        _add_terms(lin, index, f"products[{key!r}]", coeffs, row)
    table = modp.zeros(n, n, n)
    np.put(table, list(coeffs), [coeff % p for coeff in coeffs.values()])
    return table


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
        if deg > modp.PRIME_BOUND:  # block constructions need p > dim b(A) >= c
            raise ParseError(f"basis: degree of {nm!r} exceeds PRIME_BOUND = {modp.PRIME_BOUND}")
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
    table = _table_from_doc(doc.get("products", {}), index, n, p)
    return GradedAlgebra(p, names, degrees, table, unit, idem_vecs)


def decode(data: bytes) -> str:
    """The text of an algebra file's bytes, as ``Path.read_text`` reads it:
    UTF-8, with universal newlines.  Raises ParseError on other bytes."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse(text: str):
    """The JSON document of an algebra file's text.  Raises ParseError,
    with the line and column, unless the text is JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")


def loads(text: str) -> GradedAlgebra:
    return algebra_from_doc(parse(text))


def _block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """``items``, each already indented one level past ``pad``, between
    brackets, as the indented json encoder writes a list or an object."""
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{pad}{brackets[1]}"


def _terms(lin: list[dict], pad: str) -> str:
    """A list of {basis, coeff} terms at indentation ``pad``."""
    inner = pad + "  "
    return _block(
        [f'{inner}{{\n{inner}  "basis": {_string(t["basis"])},\n{inner}  "coeff": {t["coeff"]}\n{inner}}}' for t in lin],
        pad,
    )


def _indented(doc: dict) -> str:
    """The text of ``json.dumps(doc)`` with a two-space indent, byte for byte,
    for a document that ``algebra_to_doc`` made (see the module docstring)."""
    basis = [f'    {{\n      "name": {_string(e["name"])},\n      "degree": {e["degree"]}\n    }}' for e in doc["basis"]]
    idems = ["    " + _terms(e, "    ") for e in doc["idempotents"]]
    products = [f"    {_string(key)}: {_terms(lin, '    ')}" for key, lin in doc["products"].items()]
    return (
        f'{{\n  "prime": {doc["prime"]},\n  "basis": {_block(basis, "  ")},\n'
        f'  "unit": {_terms(doc["unit"], "  ")},\n  "idempotents": {_block(idems, "  ")},\n'
        f'  "products": {_block(products, "  ", "{}")}\n}}'
    )


def dumps(a: GradedAlgebra) -> str:
    return _indented(algebra_to_doc(a))


def load(path: Union[str, Path]) -> GradedAlgebra:
    return loads(decode(Path(path).read_bytes()))


def save(path: Union[str, Path], a: GradedAlgebra) -> None:
    _save_doc(path, algebra_to_doc(a))


def _save_doc(path: Union[str, Path], doc: dict) -> None:
    """Write the document ``algebra_to_doc`` made: the text of ``dumps`` and a newline."""
    Path(path).write_text(_indented(doc) + "\n")
