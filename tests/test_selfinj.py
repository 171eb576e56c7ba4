import numpy as np
import pytest

from gradedalg import modp
from gradedalg.algebra import (
    degree_zero_subalgebra,
    is_basic,
    is_left_well_graded,
    is_right_well_graded,
)
from gradedalg.construct import T_of, beilinson, t_of
from gradedalg.errors import AmbiguousMatch, NotBasic, NotSelfInjective, TrivialGrading
from gradedalg.selfinj import (
    form_is_nondegenerate,
    frobenius_functional_search,
    global_dimension,
    graded_nakayama,
    is_Ac_faithful,
    is_graded_frobenius,
    is_graded_selfinjective,
)


def test_selfinjective_truncated(truncated):
    for n in range(2, 6):
        cert = is_graded_selfinjective(truncated(n))
        assert cert.holds
        assert all(c.projective for c in cert.covers)


def test_selfinjective_product(a4):
    assert is_graded_selfinjective(a4).holds


def test_not_selfinjective_upper_triangular(uppertri):
    cert = is_graded_selfinjective(uppertri(2))
    assert not cert.holds
    assert cert.witness is not None


def test_functional_search_truncated(truncated):
    a = truncated(3)
    lam = frobenius_functional_search(a, seed=0)
    assert lam is not None
    gram = np.einsum("ijk,k->ij", a.table, lam) % a.p
    assert modp.invert(gram, a.p) is not None
    # the classical choice: coefficient of x^2 alone already works
    lam0 = np.array([0, 0, 1])
    gram0 = np.einsum("ijk,k->ij", a.table, lam0) % a.p
    assert modp.invert(gram0, a.p) is not None


def test_functional_search_point():
    from gradedalg.corpus import upper_triangular

    k = upper_triangular(1)
    assert frobenius_functional_search(k) is not None


def test_functional_search_fails_on_non_frobenius(uppertri):
    assert frobenius_functional_search(uppertri(2), seed=0) is None


def test_functional_search_requires_basic(matrix2x2):
    with pytest.raises(NotBasic):
        frobenius_functional_search(matrix2x2)


def test_functional_search_deterministic(truncated):
    a = truncated(4)
    lam1 = frobenius_functional_search(a, seed=11)
    lam2 = frobenius_functional_search(a, seed=11)
    assert np.array_equal(lam1, lam2)


def test_frobenius_predicate(truncated, exterior2, a4):
    for n in range(2, 6):
        assert is_graded_frobenius(truncated(n))
    assert is_graded_frobenius(exterior2)
    assert not is_graded_frobenius(a4)


def test_faithful_predicate(truncated, exterior2, a4):
    assert is_Ac_faithful(truncated(4))
    assert is_Ac_faithful(exterior2)
    assert not is_Ac_faithful(a4)


def _is_Ac_faithful_loop(a):
    """The faithfulness of A_c over A_0 as the loop over A_0 decided it: one
    column per basis element of A_0, its map A_c -> A_c, and one rank."""
    c = a.top_degree()
    top_idx = a.degree_indices(c)
    cols = [a.left[j][:, top_idx].ravel() for j in a.degree_indices(0)]
    rank, _ = modp.rank_kernel(np.array(cols).T % a.p, a.p)
    return rank == len(cols)


def test_faithful_predicate_matches_the_loop(graded_corpus, rebased_nakayama):
    cases = [a for _, a in graded_corpus] + [rebased_nakayama(3, 2, 32), rebased_nakayama(4, 3, 43)]
    cases += [t_of(a) for a in cases]
    answers = [is_Ac_faithful(a) for a in cases]
    assert answers == [_is_Ac_faithful_loop(a) for a in cases]
    assert True in answers and False in answers


def test_faithful_needs_grading(uppertri):
    with pytest.raises(TrivialGrading):
        is_Ac_faithful(uppertri(2))


def test_remark_triangle(graded_corpus):
    # Frobenius == (self-injective and faithful top) == (self-injective and well-graded)
    for name, a in graded_corpus:
        if not is_basic(degree_zero_subalgebra(a)):
            continue
        frob = is_graded_frobenius(a)
        si = is_graded_selfinjective(a).holds
        faithful = is_Ac_faithful(a)
        wg = is_left_well_graded(a)[0] and is_right_well_graded(a)[0]
        assert frob == (si and faithful) == (si and wg), name


def test_left_right_well_graded_agree_for_selfinjective(graded_corpus):
    for name, a in graded_corpus:
        if not is_graded_selfinjective(a).holds:
            continue
        assert is_left_well_graded(a)[0] == is_right_well_graded(a)[0], name


def test_search_agrees_with_criterion(graded_corpus, uppertri):
    cases = [(n, a) for n, a in graded_corpus] + [("T2(k)", uppertri(2)), ("T3(k)", uppertri(3))]
    for name, a in cases:
        if not is_basic(a):
            continue
        hit = frobenius_functional_search(a, seed=0) is not None
        si = is_graded_selfinjective(a).holds
        assert hit == si, name


def test_symmetrizing_form_of_T_b_decides_its_self_injectivity(graded_corpus, rebased_nakayama32):
    # the pipeline's target record: eps = (0, unit of B) on T(B) = B |x D(B),
    # eps(b, f) = f(1), has a nondegenerate pairing, and the cover pass
    # agrees that T(b(A)) is graded self-injective; a form of 0, or one on B
    # alone, is degenerate, as every row of D(B) in its gram is 0
    rng = np.random.default_rng(12)
    for a in [a for _, a in graded_corpus] + [rebased_nakayama32]:
        b = degree_zero_subalgebra(t_of(a))
        tb, zero = T_of(b), modp.zeros(b.dim)
        assert form_is_nondegenerate(tb, np.concatenate([zero, b.unit]))
        assert is_graded_selfinjective(tb).holds
        assert not form_is_nondegenerate(tb, modp.zeros(tb.dim))
        assert not form_is_nondegenerate(tb, np.concatenate([b.unit, zero]))
        assert not form_is_nondegenerate(tb, np.concatenate([rng.integers(0, b.p, size=b.dim), zero]))


def test_nakayama_point():
    from gradedalg.corpus import upper_triangular

    tk = T_of(upper_triangular(1))
    nd = graded_nakayama(tk)
    assert nd.permutation == [0]
    assert nd.shifts == [-1]


def test_nakayama_truncated(truncated):
    nd = graded_nakayama(truncated(3))
    assert nd.permutation == [0]
    assert nd.shifts == [-2]


def test_nakayama_trivial_extension(truncated, exterior2):
    for a in (truncated(3), truncated(5), exterior2):
        t = t_of(a)
        nd = graded_nakayama(t)
        assert sorted(nd.permutation) == list(range(t.n_idempotents))
        assert all(d == -1 for d in nd.shifts)


def test_nakayama_product(a4):
    nd = graded_nakayama(a4)
    assert nd.permutation == [0, 1]
    assert nd.shifts == [0, -1]  # not uniform: a4 is not well-graded


def test_nakayama_requires_selfinjective(uppertri):
    with pytest.raises(NotSelfInjective):
        graded_nakayama(uppertri(2))


def test_nakayama_ambiguous_on_non_basic(matrix2x2):
    with pytest.raises(AmbiguousMatch):
        graded_nakayama(matrix2x2)


def test_gldim_values(uppertri, kx2_degree0):
    g = global_dimension(uppertri(1))
    assert g.finite and g.value == 0
    g = global_dimension(uppertri(2))
    assert g.finite and g.value == 1
    g = global_dimension(kx2_degree0)
    assert not g.finite and g.cutoff == 32
    g5 = global_dimension(kx2_degree0, cutoff=5)
    assert not g5.finite and g5.cutoff == 5


def test_gldim_coupling(graded_corpus):
    for name, a in graded_corpus:
        g0 = global_dimension(degree_zero_subalgebra(a))
        gb = global_dimension(beilinson(a))
        assert g0.finite == gb.finite, name


def test_gldim_non_basic(matrix2x2):
    g = global_dimension(matrix2x2)
    assert g.finite and g.value == 0
