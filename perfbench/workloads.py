"""The benchmark's workloads: seeded inputs, the CLI jobs and their oracles.

A job is one or more in-process ``gradedalg.cli.main`` calls that read a
JSON algebra file and write a JSON report, so file parsing and the CLI are
timed but interpreter start-up is not.  Every job is checked against an
exact oracle: constants fixed for each workload's algebra, and values of
the monomial basis computed during set-up.  A job fails on a non-zero exit
code, an exception, ``passed: false`` or any mismatch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# gradedalg.cli.main is looked up at call time, so the tracer's rebinding is used
import gradedalg.cli
from gradedalg import corpus, fileio
from gradedalg.algebra import GradedAlgebra, degree_zero_subalgebra, validate_algebra
from gradedalg.construct import beilinson, t_of
from gradedalg.selfinj import global_dimension, graded_nakayama

from perfbench.inputs import nakayama, random_graded_basis, rebase


@dataclass
class Prepared:
    """Inputs written to disk plus the oracle every job is checked against."""

    workdir: Path
    seed: int
    source: Path
    oracle: dict


@dataclass
class JobResult:
    """Exit codes and reports of one job, and the bytes it wrote."""

    codes: list[int]
    reports: list[dict]
    bytes_written: int


def _report_bytes(path: Path, report: dict) -> int:
    """File size without the timing_s literal, whose digit count varies."""
    return path.stat().st_size - len(json.dumps(report["timing_s"]))


def _seeded_input(a_mono: GradedAlgebra, seed: int, workdir: Path) -> tuple[GradedAlgebra, Path]:
    """Validate, rebase from the seed, validate again and write the file."""
    validate_algebra(a_mono)
    a = validate_algebra(rebase(a_mono, random_graded_basis(a_mono, np.random.default_rng(seed))))
    path = workdir / "A.json"
    fileio.save(path, a)
    return a, path


class Certify:
    """``gradedalg equiv`` on a seeded rebasing of one algebra.

    The algebra is fixed and the seed changes only its basis, so the oracle
    is a pair of constants: the number of certificate checks and the sum of
    the hom dimensions over all ordered pairs of samples.  Both algebras are
    Nakayama algebras, whose graded indecomposables are uniserial, so the
    hom sum also follows by hand from intervals of composition factors.
    """

    def __init__(self, name: str, build, n_checks: int, hom_dim_sum: int):
        self.name = name
        self.build = build
        self.n_checks = n_checks
        self.hom_dim_sum = hom_dim_sum

    def setup(self, seed: int, workdir: Path) -> Prepared:
        a, path = _seeded_input(self.build(), seed, workdir)
        return Prepared(workdir, seed, path, {"t_dim": a.top_degree() * a.dim})

    def job(self, prep: Prepared) -> JobResult:
        out = prep.workdir / "equiv.json"
        code = gradedalg.cli.main(["equiv", str(prep.source), "--seed", str(prep.seed), "--out", str(out)])
        report = json.loads(out.read_text())
        return JobResult([code], [report], _report_bytes(out, report))

    def mismatches(self, prep: Prepared, res: JobResult) -> list[str]:
        if res.codes != [0]:
            return [f"exit codes {res.codes}"]
        got = res.reports[0]["results"]
        bad = []
        if got["passed"] is not True:
            bad.append("certificate did not pass")
        if got["n_checks"] != self.n_checks:
            bad.append(f"n_checks {got['n_checks']} != {self.n_checks}")
        if got["dims"]["t(A)"] != prep.oracle["t_dim"]:
            bad.append(f"dim t(A) {got['dims']['t(A)']} != {prep.oracle['t_dim']}")
        # a hom-dim check's detail reads "<dim Hom(M, N)> vs <dim Hom(FM, FN)>"
        homs = sum(int(c["detail"].split(" vs ")[0]) for c in got["checks"] if c["family"] == "hom-dim")
        if homs != self.hom_dim_sum:
            bad.append(f"sum of hom dimensions {homs} != {self.hom_dim_sum}")
        return bad


class AnalyzeTrivext:
    """trivext -> info -> nakayama on t(A), then gldim on A.

    The Nakayama permutation and the gldim values are checked twice: against
    those of the monomial basis, computed in set-up, which rebasing must not
    change, and against ``expected``, literal values for N(n, k), so that a
    defect that changes both sides alike still fails the job.
    """

    name = "analyze_trivext"

    def __init__(self, n: int, k: int, expected: dict):
        self.n, self.k = n, k
        self.expected = expected

    def setup(self, seed: int, workdir: Path) -> Prepared:
        a_mono = nakayama(self.n, self.k)
        a, path = _seeded_input(a_mono, seed, workdir)
        nak = graded_nakayama(t_of(a_mono))
        return Prepared(workdir, seed, path, {
            "t_dim": a.top_degree() * a.dim,
            "permutation": nak.permutation,
            "gldim_degree0": global_dimension(degree_zero_subalgebra(a_mono)).to_dict(),
            "gldim_beilinson": global_dimension(beilinson(a_mono)).to_dict(),
        })

    def job(self, prep: Prepared) -> JobResult:
        w = prep.workdir
        src, ta = str(prep.source), str(w / "tA.json")
        chain = [
            (["trivext", src, "--algebra-out", ta], w / "trivext.json"),
            (["info", ta], w / "info.json"),
            (["nakayama", ta], w / "nakayama.json"),
            (["gldim", src], w / "gldim.json"),
        ]
        codes, reports, nbytes = [], [], 0
        for argv, out in chain:
            codes.append(gradedalg.cli.main(argv + ["--out", str(out)]))
            reports.append(json.loads(out.read_text()))
            nbytes += _report_bytes(out, reports[-1])
        nbytes += Path(ta).stat().st_size
        return JobResult(codes, reports, nbytes)

    def mismatches(self, prep: Prepared, res: JobResult) -> list[str]:
        if res.codes != [0, 0, 0, 0]:
            return [f"exit codes {res.codes}"]
        trivext, info, nak, gldim = (r["results"] for r in res.reports)
        want = prep.oracle
        bad = []
        if trivext["dim"] != want["t_dim"]:
            bad.append(f"dim t(A) {trivext['dim']} != {want['t_dim']}")
        for key in ("selfinjective", "frobenius", "left_well_graded", "right_well_graded"):
            if info[key] is not True:
                bad.append(f"info: {key} is {info[key]}")
        if any(s != -1 for s in nak["shifts"]):
            bad.append(f"Nakayama shifts {nak['shifts']}")
        got = {"permutation": nak["permutation"],
               "gldim_degree0": gldim["gldim_degree0"], "gldim_beilinson": gldim["gldim_beilinson"]}
        for key, value in got.items():
            for source, ref in (("monomial basis", want), ("expected", self.expected)):
                if value != ref[key]:
                    bad.append(f"{key} {value} != {ref[key]} ({source})")
        return bad


WORKLOADS = {
    wl.name: wl
    for wl in (
        Certify("certify_local", lambda: corpus.truncated_poly(6), n_checks=1166, hom_dim_sum=219),
        Certify("certify_nakayama", lambda: nakayama(3, 2), n_checks=2122, hom_dim_sum=189),
        # N(4, 3): A_0 = k^4 is semisimple and b(A) is hereditary
        AnalyzeTrivext(4, 3, expected={
            "permutation": [1, 2, 3, 0, 5, 6, 7, 4, 9, 10, 11, 8],
            "gldim_degree0": {"finite": True, "value": 0, "cutoff": 32},
            "gldim_beilinson": {"finite": True, "value": 1, "cutoff": 32},
        }),
    )
}
