import json

import pytest

from gradedalg import cli, fileio, modp, selfinj
from gradedalg.algebra import validate_algebra
from gradedalg.cli import main
from gradedalg.construct import t_of
from gradedalg.corpus import gen_example


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture()
def t4_file(tmp_path):
    path = tmp_path / "t4.json"
    fileio.save(path, gen_example("truncated_poly", n=4))
    return str(path)


@pytest.fixture()
def a4_file(tmp_path):
    path = tmp_path / "a4.json"
    fileio.save(path, gen_example("product_counterexample"))
    return str(path)


def test_file_round_trip(tmp_path):
    a = gen_example("exterior", m=2)
    path = tmp_path / "e2.json"
    fileio.save(path, a)
    b = fileio.load(path)
    validate_algebra(b)
    assert b.dim == 4 and b.top_degree() == 2
    # save(load(f)) reproduces the document
    assert fileio.algebra_to_doc(a) == fileio.algebra_to_doc(b)
    assert json.loads(fileio.dumps(a)) == json.loads((tmp_path / "e2.json").read_text())


def test_parse_error_names_offender(tmp_path):
    doc = fileio.algebra_to_doc(gen_example("truncated_poly", n=2))
    doc["products"]["x*q"] = [{"basis": "x", "coeff": 1}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(fileio.ParseError) as err:
        fileio.load(path)
    assert "x*q" in str(err.value)


def test_parse_error_line_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"prime\": 7919,\n}")
    with pytest.raises(fileio.ParseError) as err:
        fileio.load(path)
    assert "line" in str(err.value)


def test_gen_example_kinds():
    assert gen_example("truncated_poly", n=3).dim == 3
    assert gen_example("exterior", m=1).dim == 2
    assert gen_example("product_counterexample").dim == 3
    assert gen_example("upper_triangular", c=3).dim == 6
    with pytest.raises(ValueError):
        gen_example("exterior", m=3)
    with pytest.raises(ValueError):
        gen_example("mystery")


def test_cli_validate_and_info(capsys, t4_file):
    code, rep = run(capsys, "validate", t4_file)
    assert code == 0
    assert rep["results"]["valid"] and rep["results"]["top_degree"] == 3
    assert rep["prime"] == 7919
    code, rep = run(capsys, "info", t4_file)
    assert code == 0
    r = rep["results"]
    assert r["component_dims"] == [1, 1, 1, 1]
    assert r["left_well_graded"] and r["selfinjective"] and r["frobenius"]


def test_cli_construction_revalidates(capsys, tmp_path, t4_file):
    out_b = tmp_path / "b.json"
    code, rep = run(capsys, "beilinson", t4_file, "--algebra-out", str(out_b))
    assert code == 0 and rep["results"]["dim"] == 6
    code, rep = run(capsys, "validate", str(out_b))
    assert code == 0 and rep["results"]["valid"]
    out_t = tmp_path / "t.json"
    code, rep = run(capsys, "trivext", t4_file, "--algebra-out", str(out_t))
    assert code == 0 and rep["results"]["dim"] == 12
    code, rep = run(capsys, "validate", str(out_t))
    assert code == 0 and rep["results"]["valid"]


def test_cli_selfinj_nakayama_gldim(capsys, t4_file):
    code, rep = run(capsys, "selfinj", t4_file)
    assert code == 0
    assert rep["results"]["selfinjective"]
    assert rep["results"]["frobenius_functional"] is not None
    code, rep = run(capsys, "nakayama", t4_file)
    assert code == 0
    assert rep["results"]["permutation"] == [0]
    assert rep["results"]["shifts"] == [-3]
    code, rep = run(capsys, "gldim", t4_file, "--cutoff", "16")
    assert code == 0
    assert rep["results"]["finiteness_coincides"]


def test_cli_equiv_and_derive_sigma(capsys, tmp_path, t4_file):
    out_t = tmp_path / "t.json"
    run(capsys, "trivext", t4_file, "--algebra-out", str(out_t))
    code, rep = run(capsys, "derive-sigma", str(out_t))
    assert code == 0
    assert len(rep["results"]["sigma"]) == 6
    code, rep = run(capsys, "equiv", t4_file)
    assert code == 0
    assert rep["results"]["passed"]


def test_cli_exit_codes(capsys, tmp_path, a4_file):
    # precondition failure: equiv on the non-well-graded product
    code, rep = run(capsys, "equiv", a4_file)
    assert code == 2
    assert rep["error"]["hypothesis"] == "well-graded"
    # parse failures: not JSON, JSON that is not an object, bytes that are not UTF-8
    bad = tmp_path / "bad.json"
    for content in (b"{not json", b"[1, 2]", b'"x"', b'{"prime": 7919, "basis": "\xff"}'):
        bad.write_bytes(content)
        code, rep = run(capsys, "validate", str(bad))
        assert code == 1, content
        assert rep["error"]["kind"] == "parse", content
        assert rep["prime"] is None, content
    # nakayama needs self-injectivity
    ut = tmp_path / "ut.json"
    fileio.save(ut, gen_example("upper_triangular", c=2))
    code, rep = run(capsys, "nakayama", str(ut))
    assert code == 2


def test_cli_refuses_prime_past_bound(capsys, tmp_path):
    # a prime past modp.PRIME_BOUND would overflow int64: exit 1, before trial division
    doc = json.loads(fileio.dumps(gen_example("exterior", m=2)))
    for prime in (modp.PRIME_BOUND + 1, 2**31 - 1, 4294967291, 10**15 + 37, "Infinity"):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc).replace('"prime": 7919', f'"prime": {prime}'))
        code, rep = run(capsys, "equiv", str(path))
        assert code == 1, prime
        assert rep["error"]["kind"] == "parse"
        assert rep["error"]["message"].startswith("prime: "), prime
    # the largest prime below the bound loads
    fileio.save(path, gen_example("exterior", prime=1048573, m=2))
    code, rep = run(capsys, "equiv", str(path))
    assert code == 0 and rep["results"]["passed"]


def _doc_text(doc, **literals):
    """JSON text of ``doc`` with each string "@name" replaced by a raw literal."""
    text = json.dumps(doc)
    for name, literal in literals.items():
        text = text.replace(f'"@{name}"', literal)
    return text


def test_cli_refuses_inexact_numbers(capsys, tmp_path):
    # non-finite or non-integral coefficients and degrees, and degrees past
    # int64, are parse errors, not an OverflowError or a silent truncation
    doc = fileio.algebra_to_doc(gen_example("truncated_poly", n=2))
    path = tmp_path / "bad.json"
    for literal in ("Infinity", "-Infinity", "NaN", "1e400", "1.5", str(2**63), str(10**30)):
        bad_degree = json.loads(json.dumps(doc))
        bad_degree["basis"][1]["degree"] = "@v"
        bad_coeff = json.loads(json.dumps(doc))
        bad_coeff["unit"][0]["coeff"] = "@v"
        cases = [("degree of 'x'", bad_degree)]
        if literal not in (str(2**63), str(10**30)):  # integers: fine as coefficients
            cases.append(("unit: coefficient", bad_coeff))
        for where, bad in cases:
            path.write_text(_doc_text(bad, v=literal))
            code, rep = run(capsys, "validate", str(path))
            assert code == 1, (literal, where)
            assert rep["error"]["kind"] == "parse", (literal, where)
            assert where in rep["error"]["message"], (literal, where)


def test_cli_sums_coefficients_exactly(capsys, tmp_path):
    # coefficients are summed as integers, then reduced: two terms of 2^63 - 1
    # on one basis element would overflow int64
    a = gen_example("truncated_poly", n=2)
    p, big = a.p, 2**63 - 1
    doc = fileio.algebra_to_doc(a)
    doc["unit"] = [{"basis": "1", "coeff": (1 - big) % p}, {"basis": "1", "coeff": big}]
    doc["idempotents"] = [[{"basis": "1", "coeff": 10**30 * p + 1}]]
    doc["products"]["x*1"] = [{"basis": "x", "coeff": big}, {"basis": "x", "coeff": big}]
    doc["products"]["x*1"].append({"basis": "x", "coeff": (1 - 2 * big) % p})
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    b = fileio.load(path)
    assert fileio.algebra_to_doc(b) == fileio.algebra_to_doc(a)
    code, rep = run(capsys, "validate", str(path))
    assert code == 0 and rep["results"]["valid"]


def test_cli_refuses_negative_samples_window(capsys, t4_file):
    # a negative window has no samples, so its certificate would be vacuous
    code, rep = run(capsys, "equiv", t4_file, "--samples-window", "-1")
    assert code == 2
    assert rep["error"]["hypothesis"] == "samples-window"
    assert rep["results"] is None


def test_cli_corner(capsys, tmp_path, t4_file):
    out_t = tmp_path / "t.json"
    run(capsys, "trivext", t4_file, "--algebra-out", str(out_t))
    code, rep = run(capsys, "corner", str(out_t), "--idempotent", "0")
    assert code == 0
    assert rep["results"]["dim"] == 2
    code, rep = run(capsys, "corner", str(out_t), "--idempotent", "9")
    assert code == 2


def test_cli_gen_example(capsys, tmp_path):
    out = tmp_path / "gen.json"
    code, rep = run(capsys, "gen-example", "exterior", "--m", "2", "--algebra-out", str(out))
    assert code == 0
    assert rep["results"]["dim"] == 4
    code, rep = run(capsys, "validate", str(out))
    assert code == 0


def test_cli_determinism(capsys, t4_file):
    code1, rep1 = run(capsys, "equiv", t4_file, "--seed", "5")
    code2, rep2 = run(capsys, "equiv", t4_file, "--seed", "5")
    assert code1 == code2 == 0
    assert rep1["results"] == rep2["results"]
    assert rep1["input_digest"] == rep2["input_digest"]


def test_cli_report_to_file(capsys, tmp_path, t4_file):
    out = tmp_path / "report.json"
    code = main(["info", t4_file, "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    rep = json.loads(out.read_text())
    assert rep["command"] == "info"
    assert rep["results"]["dim"] == 4


def test_cli_internal_check_failures_and_bugs(capsys, monkeypatch, t4_file):
    from gradedalg import selfinj
    from gradedalg.modules import GradedModule

    def ungraded_regular(a):
        # every vector in degree 0: unital and associative, but x has degree 1
        return GradedModule(a, [0] * a.dim, a.left).validate()

    monkeypatch.setattr(selfinj, "graded_nakayama", ungraded_regular)
    code, rep = run(capsys, "nakayama", t4_file)
    assert code == 3
    assert rep["error"] == {"kind": "internal-check", "message": "action of x is not degree-compatible"}

    def bug(a):
        raise AssertionError("a genuine bug")

    monkeypatch.setattr(selfinj, "graded_nakayama", bug)
    with pytest.raises(AssertionError, match="a genuine bug"):
        main(["nakayama", t4_file])


def test_info_decides_self_injectivity_once(monkeypatch):
    # info reports self-injectivity and the Frobenius property, which reads
    # the same covers: one cover map per injective, not two
    calls = []
    cover = selfinj.cover_map

    def counted(m):
        calls.append(m)
        return cover(m)

    monkeypatch.setattr(selfinj, "cover_map", counted)
    t = t_of(gen_example("truncated_poly", n=3))
    res = cli._predicates(t)
    assert res["selfinjective"] and res["frobenius"]
    assert len(calls) == t.n_idempotents == 2
