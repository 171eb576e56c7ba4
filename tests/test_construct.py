import re

import numpy as np
import pytest

from gradedalg import algebra, corpus, modp
from gradedalg.algebra import (
    Bimodule,
    GradedAlgebra,
    _radical_and_quotient,
    degree_zero_subalgebra,
    generators,
    is_left_well_graded,
    is_right_well_graded,
    validate_algebra,
)
from gradedalg.construct import (
    AlgebraAutomorphism,
    T_of,
    beilinson,
    block_layout,
    dual_bimodule,
    t_of,
    trivial_extension,
    twisted_dual_bimodule,
    x_bimodule,
)
from gradedalg.corpus import upper_triangular
from gradedalg.errors import (
    ActionFault,
    NonAssociative,
    NotAutomorphism,
    PrimeTooSmall,
    TrivialGrading,
    ZeroBimodule,
)
from gradedalg.modules import proj, width
from gradedalg.selfinj import is_graded_frobenius, is_graded_selfinjective
from helpers import T_twisted, dual_bimodule_of, left_mult, right_mult

P = 7919


def test_beilinson_dims(truncated, exterior2):
    assert beilinson(truncated(2)).dim == 1
    b3 = beilinson(truncated(3))
    assert b3.dim == 3 and b3.top_degree() == 0
    assert beilinson(exterior2).dim == 4
    # dim b(A) = sum over degrees d < c of (c - d) dim A_d
    for a in (truncated(4), truncated(5), exterior2):
        c = a.top_degree()
        dims = a.component_dims()
        expected = sum((c - d) * dims[d] for d in range(c))
        assert beilinson(a).dim == expected


def test_beilinson_validates_and_idempotent_order(truncated):
    a = truncated(3)
    b = validate_algebra(beilinson(a))
    assert b.n_idempotents == a.top_degree() * a.n_idempotents
    # ordered by (row, source index): diagonal positions move with the row
    assert b.names[0].startswith("b[0,0]")


def test_beilinson_rejects_trivial_grading(uppertri):
    with pytest.raises(TrivialGrading):
        beilinson(uppertri(2))


def test_x_bimodule_dims(truncated, exterior2):
    assert x_bimodule(truncated(2)).dim == 1
    assert x_bimodule(truncated(3)).dim == 3
    assert x_bimodule(exterior2).dim == 4
    x_bimodule(truncated(5)).validate()
    x_bimodule(exterior2).validate()


def _layout_tuples(a):
    """block_layout's rows as lists of (row, col, source index) tuples."""
    return [[tuple(row) for row in rows.tolist()] for rows in block_layout(a)]


def test_block_grid_counts_each_degree_once_per_row(graded_corpus):
    # independent oracle for dim t(A) = c dim A
    for name, a in graded_corpus:
        c = a.top_degree()
        b_index, x_index = _layout_tuples(a)
        for r in range(c):
            row_degrees = [s - r for (rr, s, j) in b_index if rr == r] + [
                c + s - r for (rr, s, j) in x_index if rr == r
            ]
            dims = a.component_dims()
            expected = []
            for d in range(c + 1):
                expected.extend([d] * dims[d])
            assert sorted(row_degrees) == expected, name
        assert len(b_index) + len(x_index) == c * a.dim, name


def test_block_actions_by_hand(truncated):
    # k[x]/(x^3): multiply block entries by hand and compare with the tables
    a = truncated(3)
    b_index, x_index = _layout_tuples(a)
    X = x_bimodule(a)
    u = b_index.index((0, 1, 1))  # x sitting in block (0, 1)
    v = x_index.index((1, 0, 1))  # x sitting in block (1, 0)
    # (0,1) * (1,0) -> block (0,0), content x * x = x^2
    expect = modp.zeros(X.dim)
    expect[x_index.index((0, 0, 2))] = 1
    assert np.array_equal(X.left_action[u][:, v], expect)
    # (1,0) * (0,1) -> block (1,1), content x^2
    expect = modp.zeros(X.dim)
    expect[x_index.index((1, 1, 2))] = 1
    assert np.array_equal(X.right_action[u][:, v], expect)
    # the diagonal unit at (1,1) picks out exactly the row-1 blocks of x(A)
    e11 = b_index.index((1, 1, 0))
    mask = np.array([1 if r == 1 else 0 for (r, s, j) in x_index])
    assert np.array_equal(np.diag(X.left_action[e11]), mask)
    assert np.count_nonzero(X.left_action[e11]) == mask.sum()


def test_t_of_counting(graded_corpus):
    for name, a in graded_corpus:
        t = t_of(a)
        assert t.dim == a.top_degree() * a.dim, name
        assert t.top_degree() == 1, name
        validate_algebra(t)


def test_T_of_counting(truncated, exterior2, uppertri):
    for b in (beilinson(truncated(4)), beilinson(exterior2), uppertri(2), uppertri(3)):
        tb = T_of(b)
        assert tb.dim == 2 * b.dim
        validate_algebra(tb)
        assert is_left_well_graded(tb)[0] and is_right_well_graded(tb)[0]
        assert is_graded_selfinjective(tb).holds


def test_t_of_smallest_is_itself(truncated):
    # c = 1 collapses the block structure: t(A) has A's own tables
    a = truncated(2)
    t = t_of(a)
    assert np.array_equal(t.table, a.table)
    assert np.array_equal(t.degrees, a.degrees)
    assert np.array_equal(t.unit, a.unit)


def test_T_of_point_is_dual_numbers():
    k = upper_triangular(1)
    tk = T_of(k)
    assert tk.dim == 2
    assert list(tk.degrees) == [0, 1]
    assert not np.any(tk.table[1, 1])  # eps^2 = 0


def test_trivial_extension_degree_zero_part(truncated):
    a = truncated(3)
    b = beilinson(a)
    t = t_of(a)
    assert np.array_equal(t.table[: b.dim, : b.dim, : b.dim], b.table)
    assert degree_zero_subalgebra(t).same_as(b) or degree_zero_subalgebra(t).dim == b.dim
    # B itself is the cached degree-0 part, equal to the one built from the extension
    x = x_bimodule(a)
    for base, ext in ((x.algebra, trivial_extension(x.algebra, x)), (b, T_of(b))):
        assert degree_zero_subalgebra(ext) is base
        assert degree_zero_subalgebra.__wrapped__(ext).same_as(base)


def test_trivial_extension_rejects_zero_bimodule(uppertri):
    b = uppertri(2)
    zero = Bimodule(b, [], modp.zeros(b.dim, 0, 0), modp.zeros(b.dim, 0, 0))
    with pytest.raises(ZeroBimodule):
        trivial_extension(b, zero)


def test_trivial_extension_refuses_small_prime_before_validating():
    # k^3 over F_3: T(B) has dimension 6, and the bimodule check would need
    # the generators of B, whose radical needs p > dim B = 3
    table = modp.zeros(3, 3, 3)
    for i in range(3):
        table[i, i, i] = 1
    b = GradedAlgebra(3, ["e1", "e2", "e3"], [0, 0, 0], table, [1, 1, 1], modp.identity(3))
    with pytest.raises(PrimeTooSmall, match=r"^prime 3 must exceed dim 6$"):
        T_of(b)
    assert not {key[0] for key in b._cache} & {generators.__wrapped__, _radical_and_quotient.__wrapped__}


def test_trivial_extension_validates_its_bimodule():
    # k x k acting on k^2 through two idempotent projections that do not commute
    table = modp.zeros(2, 2, 2)
    table[0, 0, 0] = 1
    table[1, 1, 1] = 1
    kk = GradedAlgebra(P, ["e1", "e2"], [0, 0], table, [1, 1], [[1, 0], [0, 1]])
    proj_p, proj_q, ident = np.array([[1, 0], [0, 0]]), np.array([[1, 1], [0, 0]]), modp.identity(2)
    x = Bimodule(kk, ["v", "w"], [proj_p, ident - proj_p], [proj_q, ident - proj_q])
    with pytest.raises(ActionFault, match="do not commute"):
        trivial_extension(kk, x)


def test_construction_path_reads_no_generators_of_b(truncated, monkeypatch):
    # the extensions are checked by the associativity join alone: no
    # Bimodule.validate, no intertwine_fault, no radical or generators of B
    calls = []
    monkeypatch.setattr(Bimodule, "validate", lambda self: calls.append("Bimodule.validate"))
    monkeypatch.setattr(algebra, "intertwine_fault", lambda *args: calls.append("intertwine_fault"))
    a = upper_triangular(2)  # fresh objects, so that nothing is cached on them yet
    t = t_of(corpus.truncated_poly(5))
    b = beilinson(truncated(3))
    tb = T_of(b)
    assert calls == [] and t.dim == 20 and tb.dim == 6 and T_of(a).dim == 2 * a.dim
    unread = {generators.__wrapped__, _radical_and_quotient.__wrapped__}
    for base in (degree_zero_subalgebra(t), b, a):
        assert not {key[0] for key in base._cache} & unread


def test_trivial_extension_refuses_a_non_associative_base():
    # basis 1, u, v, with u v = v the only product of u and v: (u u) v = 0,
    # u (u v) = v, and every other triple associates
    table = modp.zeros(3, 3, 3)
    table[0, :, :] = table[:, 0, :] = modp.identity(3)
    table[1, 2, 2] = 1
    b = GradedAlgebra(P, ["1", "u", "v"], [0, 0, 0], table, [1, 0, 0], [[1, 0, 0]])
    with pytest.raises(NonAssociative) as refused:
        validate_algebra(b)
    assert str(refused.value) == "(u * u) * v != u * (u * v)"
    with pytest.raises(NonAssociative, match=re.escape(str(refused.value))):
        T_of(b)


def test_dual_bimodule_formulas(truncated, uppertri):
    # (b f_j)(b_k) = f_j(b_k b_i) = t[k, i, j], read off the structure constants
    for a in (truncated(3), uppertri(2)):
        d = dual_bimodule(a)
        d.validate()
        assert d.dim == a.dim
        for i in range(a.dim):
            for j in range(a.dim):
                for k in range(a.dim):
                    assert d.left_action[i][k, j] == a.table[k, i, j]
                    assert d.right_action[i][k, j] == a.table[i, k, j]


def test_dual_bimodule_product_algebra():
    kk_table = modp.zeros(2, 2, 2)
    kk_table[0, 0, 0] = 1
    kk_table[1, 1, 1] = 1
    from gradedalg.algebra import GradedAlgebra

    kk = GradedAlgebra(P, ["e1", "e2"], [0, 0], kk_table, [1, 1], [[1, 0], [0, 1]])
    d = dual_bimodule(kk)
    for i in range(2):
        for j in range(2):
            expect = modp.zeros(2)
            if i == j:
                expect[j] = 1
            assert np.array_equal(d.left_action[i][:, j], expect)


def test_dual_bimodule_transpose_of_regular(uppertri):
    a = uppertri(2)
    d = dual_bimodule(a)
    u = a.names.index("u01")
    assert np.array_equal(d.left_action[u], a.right[u].T)
    assert np.array_equal(d.right_action[u], a.left[u].T)


def test_dual_bimodule_is_the_dual_of_the_regular_bimodule(graded_corpus, rebased_nakayama32):
    # one Bimodule call gives the names and arrays that dualizing the regular
    # bimodule gave: on the corpus, rebased N(3, 2) and the b(A) of each
    for a in [a for _, a in graded_corpus] + [rebased_nakayama32]:
        for b in (a, beilinson(a)):
            want = dual_bimodule_of(Bimodule(b, list(b.names), b.left, b.right))
            got = dual_bimodule(b)
            assert got.names == want.names
            assert np.array_equal(got.left_action, want.left_action)
            assert np.array_equal(got.right_action, want.right_action)
            assert got.left_action.flags.c_contiguous and got.right_action.flags.c_contiguous


def test_twisted_dual_identity_reproduces_dual(truncated):
    b = beilinson(truncated(3))
    ident = AlgebraAutomorphism(b, modp.identity(b.dim))
    d = dual_bimodule(b)
    dt = twisted_dual_bimodule(b, ident)
    assert np.array_equal(d.left_action, dt.left_action)
    assert np.array_equal(d.right_action, dt.right_action)


def test_twisted_dual_swap_moves_left_action():
    # For the factor swap on k x k the twist lands on the left action
    # (the right action of the twisted regular bimodule dualizes to the left).
    from gradedalg.algebra import GradedAlgebra

    kk_table = modp.zeros(2, 2, 2)
    kk_table[0, 0, 0] = 1
    kk_table[1, 1, 1] = 1
    kk = GradedAlgebra(P, ["e1", "e2"], [0, 0], kk_table, [1, 1], [[1, 0], [0, 1]])
    swap = AlgebraAutomorphism(kk, np.array([[0, 1], [1, 0]])).validate()
    d = dual_bimodule(kk)
    dt = twisted_dual_bimodule(kk, swap)
    assert np.array_equal(dt.left_action[0], d.left_action[1])
    assert np.array_equal(dt.left_action[1], d.left_action[0])
    assert np.array_equal(dt.right_action, d.right_action)
    dt.validate()


def test_twisted_extension_selfinjective(truncated):
    # T(B^sigma) stays self-injective for a nontrivial automorphism
    b = beilinson(truncated(3))
    u = b.dim
    sigma = AlgebraAutomorphism(b, modp.identity(u))
    t = T_twisted(b, sigma)
    assert is_graded_selfinjective(t).holds
    # nontrivial sigma: rescale the strict upper entry of the 2x2 block algebra
    mat = modp.identity(b.dim)
    strict = [i for i, nm in enumerate(b.names) if "b[0,1]" in nm]
    assert strict
    mat[strict[0], strict[0]] = 5
    sigma2 = AlgebraAutomorphism(b, mat).validate()
    t2 = T_twisted(b, sigma2)
    validate_algebra(t2)
    assert is_graded_selfinjective(t2).holds
    assert is_left_well_graded(t2)[0] and is_right_well_graded(t2)[0]


def test_automorphism_validation_rejects_bad_maps(truncated):
    a = truncated(3)
    with pytest.raises(NotAutomorphism):
        AlgebraAutomorphism(a, modp.zeros(3, 3))
    mat = modp.identity(3)
    mat[0, 1] = 1  # mixes degrees
    with pytest.raises(NotAutomorphism):
        AlgebraAutomorphism(a, mat).validate()
    # fixes the unit, keeps degrees, invertible, but sigma(x)^2 != sigma(x^2)
    with pytest.raises(NotAutomorphism, match="not multiplicative"):
        AlgebraAutomorphism(a, np.diag([1, 1, 2])).validate()


def test_frobenius_dims_symmetric(equivalence_corpus):
    # graded Frobenius forces dim A_n = dim A_{c-n}, hence dim x = dim b
    for name, a in equivalence_corpus:
        assert is_graded_frobenius(a), name
        dims = a.component_dims()
        assert dims == dims[::-1], name
        assert x_bimodule(a).dim == beilinson(a).dim, name


def test_corner_morita_hom_spot_checks(matrix2x2):
    # eTe for the non-basic T(M_2(k)): the corner collapses to dual numbers,
    # and degree-0 hom dimensions between projectives match the corner slices
    from gradedalg.algebra import corner
    from gradedalg.modules import ModuleFamily, hom_dims, proj

    t = T_of(matrix2x2)
    validate_algebra(t)
    e = t.idempotents[0]
    c = validate_algebra(corner(t, e))
    assert c.dim == 2
    assert c.component_dims() == [1, 1]
    # hom(Te_i, Te_j) has the dimension of the degree-0 slice of e_j T e_i
    expected = []
    for i in range(t.n_idempotents):
        for j in range(t.n_idempotents):
            z = t.degree_indices(0)
            block = (left_mult(t, t.idempotents[j]) @ right_mult(t, t.idempotents[i]))[
                np.ix_(z, z)
            ]
            expected.append(modp.rank(block.T % t.p, t.p))
    projs = [proj(t, i, 0) for i in range(t.n_idempotents)]
    entries = [(k, l, 0) for k in range(len(projs)) for l in range(len(projs))]
    assert hom_dims(ModuleFamily.of(t, projs), entries) == expected
    # and the same numbers over the corner algebra
    assert hom_dims(ModuleFamily.of(c, [proj(c, 0, 0)]), [(0, 0, 0)]) == [1]


def test_width_two_iff_well_graded_extension(truncated, a4):
    t = t_of(truncated(4))
    assert all(width(proj(t, i, 0)) == 2 for i in range(t.n_idempotents))
    t4 = t_of(a4)  # not well-graded; some projective has width 1
    ws = [width(proj(t4, i, 0)) for i in range(t4.n_idempotents)]
    assert is_left_well_graded(t4)[0] == all(w == 2 for w in ws)
    assert not is_left_well_graded(t4)[0]


def test_automorphism_power_cached(exterior2):
    # x -> 2x + 5y, y -> 3x + 7y on Lambda(x, y), so xy -> (2*7 - 3*5) xy
    a = exterior2
    mat = modp.zeros(4, 4)
    mat[0, 0] = 1
    mat[1:3, 1:3] = [[2, 3], [5, 7]]
    mat[3, 3] = -1
    sigma = AlgebraAutomorphism(a, mat).validate()
    for k in range(-3, 4):
        first = sigma.power(k)
        assert np.array_equal(first, modp.mat_pow(sigma.matrix, k, a.p)), k
        assert sigma.power(k) is first
        assert not first.flags.writeable
