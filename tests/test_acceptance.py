"""Acceptance suite: one test per criterion, printing one PASS line each.

Everything is exact arithmetic over F_7919; the only tolerances are the
stated wall-clock budgets, asserted per criterion.  Run with

    pytest -v -s tests/test_acceptance.py

to see the per-criterion lines as they pass.
"""

import time

import numpy as np
import pytest

from gradedalg import modp
from gradedalg.algebra import (
    degree_zero_subalgebra,
    is_basic,
    is_left_well_graded,
    is_right_well_graded,
)
from gradedalg.construct import beilinson, t_of, twisted_dual_bimodule, x_bimodule
from gradedalg.corpus import upper_triangular
from gradedalg.equiv import extract_sigma, phi, psi, split_trivial_extension, theorem_pipeline
from gradedalg.modules import inj, proj, simple
from gradedalg.selfinj import (
    frobenius_functional_search,
    global_dimension,
    graded_nakayama,
    is_Ac_faithful,
    is_graded_frobenius,
    is_graded_selfinjective,
)
from helpers import act_left, act_right, dual_bimodule_of, left_mult

MODULE_T0 = time.time()


def _sample_set(a):
    c = a.top_degree()
    out = []
    for i in range(a.n_idempotents):
        for d in range(-c, c + 1):
            out.extend([proj(a, i, d), simple(a, i, d), inj(a, i, d)])
    return out


def _report(num, name, elapsed=None):
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {num:>2} PASS  {name}{suffix}")


def test_criterion_01_round_trip_exactness(equivalence_corpus):
    t0 = time.time()
    for name, a in equivalence_corpus:
        for m in _sample_set(a):
            assert psi(a, phi(a, m)).equals(m), name
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(1, "round-trip exactness Psi(Phi(M)) = M on all corpus samples", elapsed)


def test_criterion_02_equivalence_certificates(graded_corpus, equivalence_corpus):
    # eligibility is recomputed from the predicates, not hardcoded
    eligible = [
        name
        for name, a in graded_corpus
        if is_basic(degree_zero_subalgebra(a))
        and is_left_well_graded(a)[0]
        and is_right_well_graded(a)[0]
        and is_graded_selfinjective(a).holds
    ]
    assert eligible == [name for name, _ in equivalence_corpus]
    for name, a in equivalence_corpus:
        t0 = time.time()
        cert = theorem_pipeline(a)
        elapsed = time.time() - t0
        assert cert.passed, name
        families = {c.family for c in cert.checks}
        for fam in ("round-trip", "hom-dim", "preservation", "functoriality"):
            assert fam in families, name
        n_samples = len(cert.samples)
        n_pairs = sum(1 for c in cert.checks if c.family == "hom-dim")
        assert n_pairs == n_samples * n_samples, name
        assert elapsed < 30.0, name
    _report(2, "theorem pipeline certificate on every eligible corpus algebra")


def test_criterion_03_counting_identities(graded_corpus, equivalence_corpus):
    for name, a in graded_corpus:
        c = a.top_degree()
        b = beilinson(a)
        assert t_of(a).dim == c * a.dim, name
        from gradedalg.construct import T_of

        assert T_of(b).dim == 2 * b.dim, name
    frobenius_names = set()
    for name, a in graded_corpus:
        if is_basic(degree_zero_subalgebra(a)) and is_graded_frobenius(a):
            frobenius_names.add(name)
            assert x_bimodule(a).dim == beilinson(a).dim, name
    assert frobenius_names == {nm for nm, _ in equivalence_corpus}
    _report(3, "dim t(A) = c dim A, dim T(b(A)) = 2 dim b(A), dim x = dim b on Frobenius subset")


def test_criterion_04_remark_triangle(graded_corpus, a4):
    for name, a in graded_corpus:
        if not is_basic(degree_zero_subalgebra(a)):
            continue
        frob = is_graded_frobenius(a)
        si = is_graded_selfinjective(a).holds
        faithful = is_Ac_faithful(a)
        wg = is_left_well_graded(a)[0] and is_right_well_graded(a)[0]
        assert frob == (si and faithful), name
        assert frob == (si and wg), name
        if name.startswith("k[x]") or name.startswith("Lambda"):
            assert frob, name
    assert is_graded_selfinjective(a4).holds
    assert not is_Ac_faithful(a4)
    assert not (is_left_well_graded(a4)[0] or is_right_well_graded(a4)[0])
    assert not is_graded_frobenius(a4)
    _report(4, "Frobenius = (self-injective & faithful top) = (self-injective & well-graded)")


def test_criterion_05_left_right_well_graded(graded_corpus):
    for name, a in graded_corpus:
        if not is_graded_selfinjective(a).holds:
            continue
        assert is_left_well_graded(a)[0] == is_right_well_graded(a)[0], name
    _report(5, "left and right well-gradedness agree on self-injective corpus")


def test_criterion_06_oracle_agreement(graded_corpus, uppertri):
    t0 = time.time()
    cases = list(graded_corpus) + [("T2(k)", uppertri(2)), ("T3(k)", uppertri(3))]
    for name, a in cases:
        if not is_basic(a):
            continue
        hit = frobenius_functional_search(a, seed=0) is not None
        assert hit == is_graded_selfinjective(a).holds, name
    elapsed = time.time() - t0
    assert elapsed < 2.0
    _report(6, "functional search agrees with the dual-projectivity criterion", elapsed)


def test_criterion_07_nakayama(equivalence_corpus):
    for name, a in equivalence_corpus:
        c = a.top_degree()
        nd = graded_nakayama(a)
        assert sorted(nd.permutation) == list(range(a.n_idempotents)), name
        assert all(d == -c for d in nd.shifts), name
        t = t_of(a)
        nt = graded_nakayama(t)
        assert sorted(nt.permutation) == list(range(t.n_idempotents)), name
        assert all(d == -1 for d in nt.shifts), name
    _report(7, "Nakayama permutation with uniform shift -c (and -1 on trivial extensions)")


def test_criterion_08_sigma_extraction(truncated, exterior2):
    cases = [(f"t(k[x]/(x^{n}))", truncated(n)) for n in range(2, 6)]
    cases.append(("t(Lambda(x,y))", exterior2))
    for name, a in cases:
        t = t_of(a)
        ext = extract_sigma(t, seed=0)
        b = ext.base
        p = b.p
        s = ext.sigma.matrix
        assert modp.invert(s, p) is not None, name
        # multiplicative on all basis pairs
        for i in range(b.dim):
            lhs = (s @ b.table[i].T) % p
            rhs = (left_mult(b, s[:, i]) @ s) % p
            assert np.array_equal(lhs, rhs), name
        # m b = sigma(b) m on all basis b
        _, x = split_trivial_extension(t)
        dual = dual_bimodule_of(x)
        for i in range(b.dim):
            lhs = act_right(dual, modp.identity(b.dim)[i]) @ ext.generator % p
            rhs = act_left(dual, s[:, i]) @ ext.generator % p
            assert np.array_equal(lhs, rhs), name
        # the emitted bimodule map intertwines both actions on all basis pairs
        theta = ext.iso
        tw = twisted_dual_bimodule(b, ext.sigma)
        for i in range(b.dim):
            assert np.array_equal((theta @ x.left_action[i]) % p, (tw.left_action[i] @ theta) % p), name
            assert np.array_equal((theta @ x.right_action[i]) % p, (tw.right_action[i] @ theta) % p), name
    _report(8, "sigma extraction sound on t(k[x]/(x^n)) n=2..5 and t(Lambda(x,y))")


def test_criterion_09_global_dimension(graded_corpus, kx2_degree0):
    t0 = time.time()
    for name, a in graded_corpus:
        g0 = global_dimension(degree_zero_subalgebra(a), cutoff=32)
        gb = global_dimension(beilinson(a), cutoff=32)
        assert g0.finite == gb.finite, name
    gk = global_dimension(upper_triangular(1))
    assert gk.finite and gk.value == 0
    gt = global_dimension(upper_triangular(2))
    assert gt.finite and gt.value == 1
    gx = global_dimension(kx2_degree0)
    assert not gx.finite and gx.cutoff == 32
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(9, "gldim finiteness of A_0 and b(A) coincide; pinned values hold", elapsed)


def test_criterion_10_total_runtime():
    elapsed = time.time() - MODULE_T0
    assert elapsed < 120.0
    _report(10, f"acceptance suite total runtime {elapsed:.1f}s < 120s at p = 7919")
