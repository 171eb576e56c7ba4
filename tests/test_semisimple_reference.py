"""Primitivity and the simple classes against their per-idempotent definitions.

The library decides both in S = A/rad A, built once per algebra: e_i is
primitive iff the corner of its image in the semisimple quotient of A_0 is
a division ring, and e_i, e_j are isomorphic iff e_i S e_j != 0.  The
references below are the direct procedures: a corner, a radical and a
quotient for every idempotent, and sandwiches e_i A e_j in A projected to S.
"""

import numpy as np
import pytest

from gradedalg import algebra, modp, modules, selfinj
from gradedalg.algebra import (
    GradedAlgebra,
    _check_primitive,
    cached,
    corner,
    degree_zero_subalgebra,
    quotient_algebra,
    radical,
    semisimple_quotient,
    validate_algebra,
)
from gradedalg.construct import T_of, beilinson, t_of
from gradedalg.errors import NotPrimitive
from gradedalg.modules import inj, simple_classes
from gradedalg.selfinj import graded_nakayama, is_graded_frobenius
from helpers import left_mult, right_mult

P = 7919


def _mul(a, u, v):
    """u * v in A, for coordinate vectors."""
    return left_mult(a, u) @ (v % a.p) % a.p


def _element_power(a, v, k):
    """v^k in a, by repeated squaring from the unit: the reference's own power."""
    out = a.unit.copy()
    base = v % a.p
    while k:
        if k & 1:
            out = _mul(a, out, base)
        base = _mul(a, base, base)
        k >>= 1
    return out


def division_invariants(q):
    """(dim, commutative, dim of the fixed space of x -> x^p) of a semisimple q."""
    frob = modp.zeros(q.dim, q.dim)
    for j in range(q.dim):
        frob[:, j] = _element_power(q, modp.identity(q.dim)[j], q.p)
    _, ker = modp.rank_kernel((frob - modp.identity(q.dim)) % q.p, q.p)
    return q.dim, bool(np.array_equal(q.table, q.table.transpose(1, 0, 2))), ker.shape[0]


def ref_corner_quotient(a, i):
    """e_i A_0 e_i modulo its own radical."""
    a0 = degree_zero_subalgebra(a)
    corner_i = corner(a0, a0.idempotents[i])
    q, _, _ = quotient_algebra(corner_i, radical(corner_i))
    return q


def ref_check_primitive(a, i):
    """The per-idempotent procedure: e_i is primitive iff e_i A_0 e_i is local."""
    _, commutative, fixed = division_invariants(ref_corner_quotient(a, i))
    if not commutative:
        raise NotPrimitive(f"idempotent {i}: corner semisimple quotient is noncommutative")
    if fixed != 1:
        raise NotPrimitive(f"idempotent {i}: Frobenius fixed space has dimension {fixed}")


def ref_simple_classes(a):
    """(reps, class_of, corners) from the l^2 sandwiches e_i A e_j in A."""
    _, red, _ = semisimple_quotient(a)
    l, p = a.n_idempotents, a.p
    lefts = [left_mult(a, e) for e in a.idempotents]
    rights = [right_mult(a, e) for e in a.idempotents]
    sandwich = [[(left @ right) % p for right in rights] for left in lefts]
    nonzero = [[bool(np.any((red @ s) % p)) for s in row] for row in sandwich]
    reps, class_of = [], [-1] * l
    for i in range(l):
        for ci, r in enumerate(reps):
            if nonzero[i][r] and nonzero[r][i]:
                class_of[i] = ci
                break
        else:
            class_of[i] = len(reps)
            reps.append(i)
    corners = []
    for r in reps:
        rows = sandwich[r][r].T
        corners.append(rows[rows.any(axis=1)])
    return reps, class_of, corners


def outcome(check, a, i):
    try:
        check(a, i)
    except NotPrimitive as exc:
        return str(exc)
    return None


@pytest.fixture(scope="module")
def semisimple_corpus(graded_corpus, nonsplit_dual_numbers, kx2_degree0, matrix2x2, product_c2,
                      rebased_nakayama32, truncated, uppertri):
    return graded_corpus + [
        ("F_p2[x]/(x^2)", nonsplit_dual_numbers),
        ("k[x]/(x^2) in degree 0", kx2_degree0),
        ("M_2(k)", matrix2x2),
        ("k[x]/(x^3) x k[y]/(y^3)", product_c2),
        ("rebased N(3,2)", rebased_nakayama32),
        ("upper triangular c=3", uppertri(3)),
        ("T(b(k[x]/(x^3)))", T_of(beilinson(truncated(3)))),
        ("T(b(rebased N(3,2)))", T_of(beilinson(rebased_nakayama32))),
    ]


@pytest.fixture(scope="module")
def non_primitive(matrix2x2):
    """Algebras with a designated idempotent that is not primitive."""
    kk = modp.zeros(2, 2, 2)
    kk[0, 0, 0] = kk[1, 1, 1] = 1
    kkk = modp.zeros(3, 3, 3)
    kkk[0, 0, 0] = kkk[1, 1, 1] = kkk[2, 2, 2] = 1
    # k[x]/(x^2) x k, all in degree 0, so rad A_0 = (x) != 0
    kx2k = modp.zeros(3, 3, 3)
    kx2k[0, 0, 0] = kx2k[0, 1, 1] = kx2k[1, 0, 1] = kx2k[2, 2, 2] = 1
    m2 = matrix2x2
    return {
        "k x k": GradedAlgebra(P, ["e1", "e2"], [0, 0], kk, [1, 1], [[1, 1]]),
        "k[x]/(x^2) x k": GradedAlgebra(P, ["1a", "x", "1b"], [0, 0, 0], kx2k, [1, 0, 1], [[1, 0, 1]]),
        "M_2(k)": GradedAlgebra(P, m2.names, m2.degrees, m2.table, m2.unit, [m2.unit]),
        "k x (k x k)": GradedAlgebra(P, ["e1", "e2", "e3"], [0, 0, 0], kkk, [1, 1, 1],
                                     [[1, 0, 0], [0, 1, 1]]),
    }


def test_primitivity_matches_reference(semisimple_corpus):
    for name, a in semisimple_corpus:
        s, _, _ = semisimple_quotient(degree_zero_subalgebra(a))
        for i in range(a.n_idempotents):
            # the corner of S is the corner's own semisimple quotient, up to isomorphism
            want = division_invariants(ref_corner_quotient(a, i))
            assert division_invariants(corner(s, s.idempotents[i])) == want, (name, i)
            assert want[1:] == (True, 1), (name, i)
        _check_primitive(a)
    # End(S) is F_{p^2}: the corner is two-dimensional and still a field
    nonsplit = dict(semisimple_corpus)["F_p2[x]/(x^2)"]
    assert division_invariants(ref_corner_quotient(nonsplit, 0)) == (2, True, 1)


@pytest.mark.parametrize("name, message", [
    ("k x k", "idempotent 0: Frobenius fixed space has dimension 2"),
    ("k[x]/(x^2) x k", "idempotent 0: Frobenius fixed space has dimension 2"),
    ("M_2(k)", "idempotent 0: corner semisimple quotient is noncommutative"),
    ("k x (k x k)", "idempotent 1: Frobenius fixed space has dimension 2"),
])
def test_non_primitive_idempotents_refused(non_primitive, name, message):
    a = non_primitive[name]
    outcomes = [outcome(ref_check_primitive, a, i) for i in range(a.n_idempotents)]
    assert next(filter(None, outcomes)) == message
    with pytest.raises(NotPrimitive) as err:
        validate_algebra(a)
    assert str(err.value) == message


def test_simple_classes_match_reference(semisimple_corpus):
    for name, a in semisimple_corpus:
        reps, class_of, corners = simple_classes(a)
        ref_reps, ref_class_of, ref_corners = ref_simple_classes(a)
        assert (reps, class_of) == (ref_reps, ref_class_of), name
        _, red, sec = semisimple_quotient(a)
        for rows, ref_rows in zip(corners, ref_corners, strict=True):
            # lifts through the section of S, spanning the image of e_r A e_r in S
            assert np.array_equal(rows, (rows @ red.T % a.p) @ sec.T), name
            got, _ = modp.row_basis(rows @ red.T, a.p)
            want, _ = modp.row_basis(ref_rows @ red.T, a.p)
            assert np.array_equal(got, want), name
    # M_2(k): one class; upper triangular: e_i A e_j != 0 for i < j, but no two are isomorphic
    named = dict(semisimple_corpus)
    assert simple_classes(named["M_2(k)"])[1] == [0, 0]
    assert simple_classes(named["upper triangular c=3"])[1] == [0, 1, 2]


def test_simple_classes_multiply_in_the_quotient_only(monkeypatch, rebased_nakayama32):
    # the classes come from S: the one corner pass, which forms the
    # multiplication maps of the idempotents, only ever receives S, never A
    a = rebased_nakayama32
    fresh = GradedAlgebra(a.p, a.names, a.degrees, a.table, a.unit, a.idempotents)
    s, _, _ = semisimple_quotient(fresh)
    received = []
    real = algebra._corner_pass

    def spy(alg):
        received.append(alg)
        return real(alg)

    monkeypatch.setattr(algebra, "_corner_pass", spy)
    monkeypatch.setattr(modules, "_corner_pass", spy)
    assert simple_classes(fresh)[:2] == ([0, 1, 2], [0, 1, 2])
    assert received and all(alg is s for alg in received)


def set_partitions(items):
    """Every partition of a list into non-empty blocks, each block in list order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for q in range(len(part)):
            yield part[:q] + [[first] + part[q]] + part[q + 1 :]
        yield [[first]] + part


def direct_product(parts):
    """(names, table, unit) of the product of algebras concentrated in degree 0."""
    n = sum(x.dim for x in parts)
    table = modp.zeros(n, n, n)
    names, at = [], 0
    for q, x in enumerate(parts):
        block = slice(at, at + x.dim)
        table[block, block, block] = x.table
        names += [f"{q}:{name}" for name in x.names]
        at += x.dim
    return names, table, np.concatenate([x.unit for x in parts])


def rebased(a, seed):
    """``a``, concentrated in degree 0, in a seeded random basis."""
    assert not a.degrees.any()
    rng = np.random.default_rng(seed)
    while True:
        basis = rng.integers(0, P, size=(a.dim, a.dim))  # column t: old coordinates of new vector t
        inv = modp.invert(basis, P)
        if inv is not None:
            break
    prods = np.einsum("si,uj,suk->ijk", basis, basis, a.table % P) % P
    table = np.einsum("lk,ijk->ijl", inv, prods) % P
    return GradedAlgebra(P, a.names, a.degrees, table, inv @ a.unit % P, a.idempotents @ inv.T % P)


def first_refusal(a):
    """validate_algebra's NotPrimitive message on ``a``, or None when it passes."""
    try:
        validate_algebra(a)
    except NotPrimitive as exc:
        return str(exc)
    return None


@pytest.fixture(scope="module")
def designations(matrix2x2, nonsplit_dual_numbers):
    """(name, algebra, expected message) for k^n under every designation by
    block sums, n = 2, 3, 4, and for M_2(k) x k and F_{p^2} x k under a
    primitive and a merged designation."""
    k = GradedAlgebra(P, ["1"], [0], [[[1]]], [1], [[1]])
    out = []
    for n in (2, 3, 4):
        names, table, unit = direct_product([k] * n)
        parts = list(set_partitions(list(range(n))))
        assert len(parts) == {2: 2, 3: 5, 4: 15}[n]
        for blocks in parts:
            idems = [np.isin(np.arange(n), block).astype(np.int64) for block in blocks]
            big = [(q, len(block)) for q, block in enumerate(blocks) if len(block) > 1]
            want = f"idempotent {big[0][0]}: Frobenius fixed space has dimension {big[0][1]}" if big else None
            out.append((f"k^{n} {blocks}", GradedAlgebra(P, names, [0] * n, table, unit, idems), want))
    names, table, unit = direct_product([matrix2x2, k])  # m00, m01, m10, m11, f
    for idems, want in (
        ([[1, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]], None),
        ([[1, 0, 0, 1, 0], [0, 0, 0, 0, 1]], "idempotent 0: corner semisimple quotient is noncommutative"),
    ):
        out.append((f"M_2(k) x k {idems}", GradedAlgebra(P, names, [0] * 5, table, unit, idems), want))
    field = degree_zero_subalgebra(nonsplit_dual_numbers)  # F_{p^2}, basis 1 and i
    names, table, unit = direct_product([field, k])
    for idems, want in (
        ([[1, 0, 0], [0, 0, 1]], None),
        ([[1, 0, 1]], "idempotent 0: Frobenius fixed space has dimension 2"),
    ):
        out.append((f"F_p2 x k {idems}", GradedAlgebra(P, names, [0] * 3, table, unit, idems), want))
    return out


def test_primitivity_gate_matches_reference_on_designations(designations):
    # validate_algebra decides every idempotent in one pass; the reference one
    # at a time, each in a corner algebra of its own
    assert len(designations) == 2 + 5 + 15 + 2 + 2
    for name, a, want in designations:
        for alg in (a, rebased(a, len(name))):
            ref = [outcome(ref_check_primitive, alg, i) for i in range(alg.n_idempotents)]
            assert next(filter(None, ref), None) == want, name
            assert first_refusal(alg) == want, name


def test_one_corner_pass_per_semisimple_quotient(monkeypatch, rebased_nakayama):
    t = t_of(rebased_nakayama(4, 3, 43))
    fresh = GradedAlgebra(t.p, t.names, t.degrees, t.table, t.unit, t.idempotents)
    passes = []
    real = algebra._corner_pass.__wrapped__

    def counted(s):
        passes.append(s)
        return real(s)

    def refuse(a, e):
        raise AssertionError("validation built a corner algebra")

    spy = cached(counted)
    monkeypatch.setattr(algebra, "_corner_pass", spy)
    monkeypatch.setattr(modules, "_corner_pass", spy)
    monkeypatch.setattr(algebra, "corner", refuse)
    for _ in range(2):
        validate_algebra(fresh)
        simple_classes(fresh)
        assert is_graded_frobenius(fresh)
    # S(A) is read from A_0 (rad A = rad A_0 + A_{>=1}), so the pass on S(A_0)
    # is the pass on S(A)
    s0 = semisimple_quotient(degree_zero_subalgebra(fresh))[0]
    assert semisimple_quotient(fresh)[0] is s0
    assert len(passes) == 1 and passes[0] is s0


def test_graded_nakayama_covers_the_injectives_only(monkeypatch, rebased_nakayama):
    # the top of each Ae_i is named by its simple class, not by a cover
    t = t_of(rebased_nakayama(4, 3, 43))
    fresh = GradedAlgebra(t.p, t.names, t.degrees, t.table, t.unit, t.idempotents)
    want = graded_nakayama(t).to_dict()
    calls = []
    real = selfinj.cover_maps

    def counted(fam):
        calls.append(fam.modules())
        return real(fam)

    monkeypatch.setattr(selfinj, "cover_maps", counted)
    assert graded_nakayama(fresh).to_dict() == want
    injectives = [inj(fresh, i, 0) for i in range(fresh.n_idempotents)]
    assert len(calls) == 1 and all(m.equals(want) for m, want in zip(calls[0], injectives, strict=True))
