import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from gradedalg import algebra, cli, corpus, fileio, modp, selfinj
from gradedalg.algebra import validate_algebra
from gradedalg.cli import main
from gradedalg.construct import beilinson, t_of
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


def test_prime_between_dim_a0_and_dim_a_is_refused_by_info(capsys, tmp_path):
    # k[x]/(x^7) at p = 7: dim A_0 = 1 < p <= dim A
    path = tmp_path / "k7p7.json"
    fileio.save(path, corpus.truncated_poly(7, 7))
    code, report = run(capsys, "info", str(path))
    assert code == 2 and report["results"] is None
    assert report["error"] == {"kind": "precondition", "message": "prime 7 must exceed dim 7"}


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


def test_cli_gldim_leaves_a_side_past_the_cutoff_undecided(capsys, tmp_path):
    # k[x]/(x^3): A_0 = k has gldim 0, b(A) gldim 1.  At cutoff 0 the
    # Beilinson side is past the cutoff, which proves nothing against the
    # paper's criterion, so the coincidence is undecided (null), not false
    path = str(tmp_path / "t3.json")
    assert run(capsys, "gen-example", "truncated_poly", "--n", "3", "--algebra-out", path)[0] == 0
    code, rep = run(capsys, "gldim", path, "--cutoff", "0")
    assert code == 0 and rep["results"] == {
        "cutoff": 0,
        "gldim_degree0": {"finite": True, "value": 0, "cutoff": 0},
        "gldim_beilinson": {"finite": False, "value": None, "cutoff": 0},
        "finiteness_coincides": None,
    }
    code, rep = run(capsys, "gldim", path, "--cutoff", "1")
    assert code == 0 and rep["results"] == {
        "cutoff": 1,
        "gldim_degree0": {"finite": True, "value": 0, "cutoff": 1},
        "gldim_beilinson": {"finite": True, "value": 1, "cutoff": 1},
        "finiteness_coincides": True,
    }


def test_cli_equiv_and_derive_sigma(capsys, tmp_path, t4_file):
    out_t = tmp_path / "t.json"
    run(capsys, "trivext", t4_file, "--algebra-out", str(out_t))
    code, rep = run(capsys, "derive-sigma", str(out_t))
    assert code == 0
    assert len(rep["results"]["sigma"]) == 6
    derived = rep["results"]
    code, rep = run(capsys, "equiv", t4_file)
    assert code == 0
    assert rep["results"]["passed"]
    # derive-sigma decides the hypotheses on t(A), equiv on A only; both find the same sigma
    for key in ("sigma", "generator", "bimodule_iso"):
        assert rep["results"][key] == derived[key], key


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


def test_cli_reads_and_parses_its_input_once(capsys, monkeypatch, tmp_path, t4_file):
    # one read of the file's bytes, digested, decoded and parsed once; the
    # text decodes as Path.read_text decodes it, with universal newlines, so
    # a parse error names the same line and column whatever the line endings
    reads, parses = [], []
    real_bytes, real_text, real_loads = Path.read_bytes, Path.read_text, json.loads
    monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(str(self)) or real_bytes(self))
    monkeypatch.setattr(Path, "read_text", lambda self, *a, **kw: reads.append(str(self)) or real_text(self, *a, **kw))
    monkeypatch.setattr(json, "loads", lambda text, **kw: parses.append(len(text)) or real_loads(text, **kw))
    code = main(["info", t4_file])
    monkeypatch.undo()
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and reads == [t4_file] and len(parses) == 1
    assert report["prime"] == modp.DEFAULT_PRIME and report["results"]["dim"] == 4
    messages = []
    for newline in (b"\n", b"\r\n", b"\r"):
        bad = tmp_path / "bad.json"
        bad.write_bytes(newline.join([b"{", b'  "prime": 7919,', b"}"]))
        code, rep = run(capsys, "validate", str(bad))
        assert code == 1 and rep["error"]["kind"] == "parse"
        messages.append(rep["error"]["message"])
    assert messages == [messages[0]] * 3 and messages[0].startswith("line 3, column 1: ")


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


def test_loader_refuses_degree_past_prime_bound():
    # a block construction needs p > dim b(A) >= c and p <= PRIME_BOUND, so a
    # larger degree is refused when the file is read
    doc = fileio.algebra_to_doc(gen_example("truncated_poly", n=2))
    for degree in (10**12, modp.PRIME_BOUND + 1):
        doc["basis"][1]["degree"] = degree
        with pytest.raises(fileio.ParseError, match="degree of 'x' exceeds"):
            fileio.loads(json.dumps(doc))
    doc["basis"][1]["degree"] = modp.PRIME_BOUND
    assert fileio.loads(json.dumps(doc)).component_dims()[-1] == 1


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


def test_cli_refuses_a_negative_seed_or_cutoff(capsys, tmp_path, t4_file, matrix2x2):
    # numpy's generators take no negative seed, and a negative cutoff bounds
    # no resolution: each command refuses them as preconditions, with a
    # report; selfinj refuses the seed on a non-basic input too, on which it
    # runs no search.  upper_triangular(3) has global dimension 1
    t_file, m_file, u_file = (str(tmp_path / name) for name in ("t4t.json", "m2.json", "u3.json"))
    assert run(capsys, "trivext", t4_file, "--algebra-out", t_file)[0] == 0
    fileio.save(m_file, matrix2x2)
    fileio.save(u_file, gen_example("upper_triangular", c=3))
    cases = [
        (["equiv", t4_file, "--seed", "-1"], "seed"),
        (["selfinj", t4_file, "--seed", "-1"], "seed"),
        (["selfinj", m_file, "--seed", "-1"], "seed"),
        (["derive-sigma", t_file, "--seed", "-1"], "seed"),
        (["gldim", u_file, "--cutoff", "-1"], "cutoff"),
        (["gldim", t4_file, "--cutoff", "-1"], "cutoff"),
    ]
    for argv, hypothesis in cases:
        code, rep = run(capsys, *argv)
        assert code == 2 and rep["error"]["kind"] == "precondition", argv
        assert rep["error"]["hypothesis"] == hypothesis and rep["results"] is None, argv
        assert rep["prime"] == modp.DEFAULT_PRIME, argv
    code, rep = run(capsys, "gldim", u_file, "--cutoff", "1")
    assert code == 0 and rep["results"]["gldim"] == {"finite": True, "value": 1, "cutoff": 1}
    code, rep = run(capsys, "selfinj", m_file, "--seed", "0")
    assert code == 0 and "functional_search_seed" not in rep["results"]


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


def test_trivext_joins_t_of_a_once(capsys, monkeypatch, tmp_path, t4_file, rebased_nakayama32):
    # t_of's join decides the associativity of t(A), and the command checks
    # everything else without joining the same table again; its report and
    # --algebra-out file are those of t(A) under the full validation
    files = [t4_file, str(tmp_path / "n32.json")]
    fileio.save(files[1], rebased_nakayama32)
    wants = [validate_algebra(t_of(fileio.load(path))) for path in files]
    joined = []
    real = algebra._associativity_fault
    monkeypatch.setattr(algebra, "_associativity_fault", lambda a: joined.append(a) or real(a))
    for path, want in zip(files, wants):
        joined.clear()
        out = tmp_path / "t.json"
        code, rep = run(capsys, "trivext", path, "--algebra-out", str(out))
        assert code == 0
        assert sum(a.same_as(want) for a in joined) == 1 and len(joined) == 2  # A when loaded, t(A) once
        assert out.read_bytes() == (fileio.dumps(want) + "\n").encode()
        assert rep["results"] == {
            "dim": want.dim,
            "top_degree": want.top_degree(),
            "component_dims": want.component_dims(),
            "n_idempotents": want.n_idempotents,
            "algebra": fileio.algebra_to_doc(want),
        }


def test_algebra_out_is_the_saved_algebra(capsys, tmp_path, t4_file):
    # every --algebra-out file holds the text fileio.save writes for the
    # algebra the command made, and the report carries the same document
    a = fileio.load(t4_file)
    made = {
        ("beilinson", t4_file): beilinson(a),
        ("trivext", t4_file): t_of(a),
        ("gen-example", "exterior", "--m", "2"): gen_example("exterior", m=2),
    }
    for argv, alg in made.items():
        out, saved = tmp_path / "out.json", tmp_path / "saved.json"
        code, rep = run(capsys, *argv, "--algebra-out", str(out))
        assert code == 0, argv
        fileio.save(saved, alg)
        want = (fileio.dumps(alg) + "\n").encode()
        assert out.read_bytes() == saved.read_bytes() == want, argv
        assert rep["results"]["algebra"] == fileio.algebra_to_doc(alg), argv


def _indented_emit(report, out):
    """The earlier report writer: indented text, by the pure-Python encoder."""
    text = json.dumps(report, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def test_reports_are_one_line_of_compact_json(capsys, monkeypatch, tmp_path, t4_file, a4_file):
    # the --out file and stdout hold the same line, the compact dump of the
    # report, which parses to the report the indented writer wrote
    monkeypatch.setattr(cli, "time", SimpleNamespace(time=lambda: 1.0))  # timing_s = 0.0
    calls = [(["equiv", t4_file], 0), (["trivext", t4_file], 0), (["equiv", a4_file], 2)]
    for argv, want_code in calls:
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == want_code, argv
        assert main(argv) == want_code, argv
        printed = capsys.readouterr().out
        written = out.read_text()
        report = json.loads(written)
        assert written == printed == json.dumps(report, separators=(",", ":")) + "\n", argv
        assert written.count("\n") == 1, argv
        with monkeypatch.context() as m:
            m.setattr(cli, "_emit", _indented_emit)
            assert main(argv) == want_code, argv
        indented = capsys.readouterr().out
        assert indented.count("\n") > 1 and json.loads(indented) == report, argv
    assert report["error"]["hypothesis"] == "well-graded"


def test_cli_determinism(capsys, t4_file):
    code1, rep1 = run(capsys, "equiv", t4_file, "--seed", "5")
    code2, rep2 = run(capsys, "equiv", t4_file, "--seed", "5")
    assert code1 == code2 == 0
    assert rep1["results"] == rep2["results"]
    assert rep1["input_digest"] == rep2["input_digest"]


def test_cli_calls_in_one_process_share_no_options(capsys, monkeypatch, t4_file):
    # main parses with one parser per process; commands that set options and
    # commands that leave them at their defaults, in turn, report what each
    # reports with a parser of its own
    calls = [
        ["equiv", t4_file, "--seed", "3", "--samples-window", "1"],
        ["equiv", t4_file],
        ["gldim", t4_file, "--cutoff", "2"],
        ["selfinj", t4_file, "--seed", "5"],
        ["gldim", t4_file],
        ["selfinj", t4_file],
        ["gen-example", "truncated_poly", "--n", "3", "--prime", "101"],
        ["gen-example", "truncated_poly"],
        ["equiv", t4_file, "--samples-window", "0"],
        ["info", t4_file],
    ]
    shared = [run(capsys, *argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    separate = [run(capsys, *argv) for argv in calls]
    for (code, rep), (want_code, want) in zip(shared, separate):
        assert code == want_code == 0 and rep["results"] == want["results"] and rep["prime"] == want["prime"]
    windows = [len(rep["results"]["samples"]) for code, rep in shared if rep["command"] == "equiv"]
    assert windows == [9, 21, 3]  # k[x]/(x^4): 3 samples at each of 2w + 1 shifts, for w = 1, c = 3, 0
    assert shared[2][1]["results"] != shared[4][1]["results"]  # --cutoff 2, then 32


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
    # the same covers: one cover pass over the injectives, one cover map per
    # injective, not two
    calls = []
    covers = selfinj.cover_maps

    def counted(fam):
        calls.append(fam.modules())
        return covers(fam)

    monkeypatch.setattr(selfinj, "cover_maps", counted)
    t = t_of(gen_example("truncated_poly", n=3))
    res = cli._predicates(t)
    assert res["selfinjective"] and res["frobenius"]
    assert len(calls) == 1 and len(calls[0]) == t.n_idempotents == 2
