"""Algebra documents are built and read in one sweep over the structure
constants; the documents, tables, texts and parse errors are those of the
per-pair and per-product reference builders below."""

import json

import numpy as np
import pytest

from gradedalg import fileio, modp
from gradedalg.algebra import GradedAlgebra
from gradedalg.cli import main
from gradedalg.construct import t_of
from gradedalg.corpus import gen_example
from gradedalg.errors import ParseError


def _reference_to_doc(a):
    """The document with one term list built per non-zero (i, j) pair."""
    def lin(vec):
        return [{"basis": a.names[k], "coeff": int(vec[k])} for k in np.nonzero(vec)[0]]

    return {
        "prime": a.p,
        "basis": [{"name": nm, "degree": int(d)} for nm, d in zip(a.names, a.degrees)],
        "unit": lin(a.unit),
        "idempotents": [lin(e) for e in a.idempotents],
        "products": {
            f"{a.names[i]}*{a.names[j]}": lin(a.table[i, j])
            for i, j in np.argwhere(a.table.any(axis=2))
        },
    }


def _reference_lin(doc, names, n, p, where):
    if not isinstance(doc, list):
        raise ParseError(f"{where}: expected a list of {{basis, coeff}} terms")
    coeffs = {}
    for term in doc:
        if not isinstance(term, dict) or "basis" not in term or "coeff" not in term:
            raise ParseError(f"{where}: malformed term {term!r}")
        name = term["basis"]
        if name not in names:
            raise ParseError(f"{where}: unknown basis element {name!r}")
        coeff = fileio._integer(term["coeff"])
        if coeff is None:
            raise ParseError(f"{where}: coefficient {term['coeff']!r} is not an integer")
        coeffs[names[name]] = coeffs.get(names[name], 0) + coeff
    vec = modp.zeros(n)
    for k, coeff in coeffs.items():
        vec[k] = coeff % p
    return vec


def _reference_table(doc):
    """The structure constants with one row assigned per product."""
    head = fileio.algebra_from_doc({**doc, "products": {}})
    n, p = head.dim, head.p
    index = {nm: i for i, nm in enumerate(head.names)}
    table = modp.zeros(n, n, n)
    for key, lin in doc.get("products", {}).items():
        parts = key.split("*")
        if len(parts) != 2 or parts[0] not in index or parts[1] not in index:
            raise ParseError(f"products: malformed key {key!r}")
        table[index[parts[0]], index[parts[1]]] = _reference_lin(lin, index, n, p, f"products[{key!r}]")
    return table


def _algebras(rebased_nakayama):
    n43 = rebased_nakayama(4, 3, 43)
    kinds = {
        "truncated_poly": {"n": 4},
        "exterior": {"m": 2},
        "product_counterexample": {},
        "upper_triangular": {"c": 3},
    }
    made = {kind: gen_example(kind, **params) for kind, params in kinds.items()}
    made["exterior m=1"] = gen_example("exterior", m=1)
    made["rebased N(3, 2)"] = rebased_nakayama(3, 2, 32)
    made["rebased N(4, 3)"] = n43
    made["t(N(4, 3))"] = t_of(n43)
    return made


def test_documents_match_the_per_pair_builder(rebased_nakayama):
    for name, a in _algebras(rebased_nakayama).items():
        doc = fileio.algebra_to_doc(a)
        want = _reference_to_doc(a)
        assert doc == want, name
        assert list(doc["products"]) == list(want["products"]), name  # same key order
        text = json.dumps(want, indent=2)
        assert fileio.dumps(a) == json.dumps(doc, indent=2) == text, name


def test_the_writer_is_json_dumps_with_indent_2(tmp_path):
    # names that json escapes (quote, backslash, non-ASCII, control
    # characters) and t(A) of every bundled graded algebra: the written
    # bytes are those of json.dumps(doc, indent=2) and a newline
    k5 = gen_example("truncated_poly", n=5)
    odd = GradedAlgebra(k5.p, ['q"1', "b\\x", "\u00e9", "\u2192", "c\x01\n\t"], k5.degrees, k5.table, k5.unit, k5.idempotents)
    algebras = [odd] + [
        t_of(gen_example(kind, **params))
        for kind, params in [
            ("truncated_poly", {"n": 2}), ("truncated_poly", {"n": 3}), ("truncated_poly", {"n": 4}),
            ("truncated_poly", {"n": 5}), ("exterior", {"m": 1}), ("exterior", {"m": 2}),
            ("product_counterexample", {}),
        ]
    ]
    for a in algebras:
        doc = fileio.algebra_to_doc(a)
        assert fileio.dumps(a) == json.dumps(doc, indent=2)
        fileio.save(tmp_path / "a.json", a)
        assert (tmp_path / "a.json").read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()
    # empty lists and objects, which algebra_to_doc makes for a zero unit,
    # idempotent or table
    doc = fileio.algebra_to_doc(odd)
    for empty in ({"unit": []}, {"idempotents": [[]]}, {"idempotents": []}, {"products": {}}, {"products": {"x*x": []}}):
        assert fileio._indented({**doc, **empty}) == json.dumps({**doc, **empty}, indent=2)


def test_an_all_zero_product_row_is_left_out():
    # x2 * x2 = 0 in k[x]/(x^4): no key, and reading the document back
    # leaves the row zero
    a = gen_example("truncated_poly", n=4)
    assert not a.table[2, 2].any()
    doc = fileio.algebra_to_doc(a)
    assert "x2*x2" not in doc["products"] and "x*x2" in doc["products"]
    assert np.array_equal(fileio.algebra_from_doc(doc).table, a.table)


def test_tables_match_the_per_product_reader(rebased_nakayama):
    for name, a in _algebras(rebased_nakayama).items():
        doc = json.loads(fileio.dumps(a))
        table = fileio.algebra_from_doc(doc).table
        assert np.array_equal(table, _reference_table(doc)), name
        assert np.array_equal(table, a.table), name


@pytest.mark.parametrize("prime", [modp.DEFAULT_PRIME, 1048573])
def test_repeated_terms_sum_exactly_before_the_reduction(prime):
    a = gen_example("exterior", prime=prime, m=2)
    doc = fileio.algebra_to_doc(a)
    key, (term,) = next((k, v) for k, v in doc["products"].items() if len(v) == 1)
    basis = term["basis"]
    cases = {
        # an integral float is an integer too
        "a multiple of p": [{"basis": basis, "coeff": 3.0}, {"basis": basis, "coeff": 5 * prime - 3}],
        "10**30 and -10**30": [
            {"basis": basis, "coeff": 10**30},
            {"basis": basis, "coeff": -(10**30)},
            {"basis": basis, "coeff": 2},
        ],
        "10**30 alone": [{"basis": basis, "coeff": 10**30}],
        "-10**30 alone": [{"basis": basis, "coeff": -(10**30)}],
    }
    i, j = (a.names.index(s) for s in key.split("*"))
    k = a.names.index(basis)
    for name, terms in cases.items():
        changed = {**doc, "products": {**doc["products"], key: terms}}
        table = fileio.algebra_from_doc(changed).table
        assert np.array_equal(table, _reference_table(changed)), name
        assert table[i, j, k] == int(sum(t["coeff"] for t in terms)) % prime, name
    assert table[i, j, k] == (-(10**30)) % prime


def _bad_products():
    """Malformed products of k[x]/(x^2), with the message each must raise."""
    return [
        ({"x*q": [{"basis": "x", "coeff": 1}]}, "products: malformed key 'x*q'"),
        ({"x": [{"basis": "x", "coeff": 1}]}, "products: malformed key 'x'"),
        ({"1*x": [{"basis": "q", "coeff": 1}]}, "products['1*x']: unknown basis element 'q'"),
        ({"1*x": [{"basis": "x", "coeff": 1.5}]}, "products['1*x']: coefficient 1.5 is not an integer"),
        ({"1*x": {"basis": "x", "coeff": 1}}, "products['1*x']: expected a list of {basis, coeff} terms"),
        ({"1*x": [{"basis": "x"}]}, "products['1*x']: malformed term {'basis': 'x'}"),
        # the first fault in document order is the one reported
        (
            {"1*1": [{"basis": "1", "coeff": 1}], "1*x": [{"basis": "q", "coeff": 1}], "x*q": []},
            "products['1*x']: unknown basis element 'q'",
        ),
    ]


@pytest.mark.parametrize("products, message", _bad_products())
def test_malformed_products_keep_their_exit_code_and_message(capsys, tmp_path, products, message):
    doc = fileio.algebra_to_doc(gen_example("truncated_poly", n=2))
    doc["products"] = {**doc["products"], **products}
    with pytest.raises(ParseError) as ref:
        _reference_table(doc)
    assert str(ref.value) == message
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", str(path)])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["error"] == {"kind": "parse", "message": message}
