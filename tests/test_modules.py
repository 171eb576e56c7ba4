from collections import Counter

import numpy as np
import pytest

from gradedalg import modp
from gradedalg import corpus
from gradedalg.algebra import (
    GradedAlgebra,
    generators,
    homogeneous_row_basis,
    is_left_well_graded,
    quotient_maps,
    radical,
    semisimple_quotient,
)
from gradedalg.construct import T_of, beilinson, t_of
from gradedalg.errors import AlgebraMismatch, CheckFailed, PrimeTooSmall
from gradedalg.modules import (
    GradedModule,
    GradedMorphism,
    direct_sum,
    hom_basis,
    hom_dim,
    inj,
    is_projective,
    proj,
    projective_cover,
    projective_cover_dim,
    quotient_module,
    radical_rows,
    regular_module,
    shift,
    simple,
    simple_classes,
    socle,
    submodule,
    syzygy,
    top,
    top_summands,
    width,
    zero_module,
)


def slice0_dim_of_corner(a, i, m):
    """dim (e_i m)_0 computed directly; oracle for the projective hom formula."""
    cols = m.slice_indices(0)
    if cols.size == 0:
        return 0
    block = m.act(a.idempotents[i])[:, cols]
    return modp.rank(block.T, a.p)


def test_width_basics(truncated, graded_corpus):
    a = truncated(3)
    assert width(zero_module(a)) == 0
    assert width(simple(a, 0, 0)) == 1
    for name, alg in graded_corpus:
        assert width(regular_module(alg)) == alg.top_degree() + 1, name


def test_shift_rules(truncated, product_of_duals):
    a = truncated(2)
    m = regular_module(a)
    assert shift(m, 0).equals(m)
    moved = shift(m, 1)
    assert moved.slice_dims() == {-1: 1, 0: 1}
    assert shift(shift(m, 3), -3).equals(m)
    assert shift(shift(m, 2), 1).equals(shift(m, 3))
    assert width(shift(m, 5)) == width(m)
    # proj, simple and inj at shift d are the shifts of their degree-0 versions
    for a in (truncated(3), product_of_duals):
        for i in range(a.n_idempotents):
            for build in (proj, simple, inj):
                base = build(a, i)
                for d in range(-2, 3):
                    assert build(a, i, d).equals(shift(base, d)), (build.__name__, i, d)


def test_proj_inj_slices(truncated):
    a = truncated(3)
    p0 = proj(a, 0, 0)
    assert p0.slice_dims() == {0: 1, 1: 1, 2: 1}
    assert p0.equals(regular_module(a))  # local algebra
    i0 = inj(a, 0, 0)
    assert i0.slice_dims() == {0: 1, -1: 1, -2: 1}
    assert proj(a, 0, 2).slice_dims() == {-2: 1, -1: 1, 0: 1}


def test_trivial_extension_projective_widths(truncated):
    t = t_of(truncated(3))
    assert t.n_idempotents == 2
    for i in range(t.n_idempotents):
        assert width(proj(t, i, 0)) == 2


def test_top_socle(truncated):
    a = truncated(3)
    m = regular_module(a)
    assert top(m).slice_dims() == {0: 1}
    assert socle(m).slice_dims() == {2: 1}
    i0 = inj(a, 0, 0)
    assert socle(i0).slice_dims() == {0: 1}
    assert top(i0).slice_dims() == {-2: 1}
    s = simple(a, 0, 0)
    assert top(s).equals(s)
    assert socle(s).slice_dims() == s.slice_dims()


def test_module_validation(graded_corpus):
    for name, a in graded_corpus:
        regular_module(a).validate()
        for i in range(a.n_idempotents):
            proj(a, i, 1).validate()
            inj(a, i, -1).validate()
            simple(a, i, 2).validate()


def test_module_validation_rejects_non_multiplicative_action(truncated):
    a = truncated(3)
    m = proj(a, 0, 0)
    action = np.array(m.action)
    x2 = a.index_of("x2")
    r, c = np.argwhere(action[x2])[0]
    action[x2, r, c] = 2 * action[x2, r, c] % a.p  # degree-compatible, but x * x != x2
    with pytest.raises(CheckFailed, match="not associative"):
        GradedModule(a, m.degrees, action).validate()


def test_morphism_validation_rejects_non_intertwiner(truncated):
    a = truncated(3)
    m = proj(a, 0, 0)
    f = modp.zeros(m.dim, m.dim)
    f[0, 0] = 1  # degree-preserving, but kills x while fixing 1
    with pytest.raises(CheckFailed, match="does not intertwine"):
        GradedMorphism(m, m, f).validate()


def test_width_biconditional_with_well_gradedness(graded_corpus):
    # left well-graded iff every Ae_i has full width c + 1
    for name, a in graded_corpus:
        c = a.top_degree()
        widths = [width(proj(a, i, 0)) for i in range(a.n_idempotents)]
        assert all(w <= c + 1 for w in widths), name
        assert is_left_well_graded(a)[0] == all(w == c + 1 for w in widths), name


def test_hom_identity_lower_bound(graded_corpus):
    for name, a in graded_corpus:
        m = regular_module(a)
        assert hom_dim(m, m) >= 1, name


def test_hom_regular_truncated(truncated):
    a = truncated(2)
    m = regular_module(a)
    assert hom_dim(m, m) == 1


def test_hom_projective_oracle(graded_corpus):
    # hom(Ae_i, M) = dim (e_i M)_0, checked against the direct slice count
    for name, a in graded_corpus:
        mods = [regular_module(a)]
        for i in range(a.n_idempotents):
            mods.extend([proj(a, i, 0), inj(a, i, 0), simple(a, i, 0), shift(proj(a, i, 0), 1)])
        for i in range(a.n_idempotents):
            p_i = proj(a, i, 0)
            for m in mods:
                assert hom_dim(p_i, m) == slice0_dim_of_corner(a, i, m), name


def kron_hom_basis(m, n):
    """Exact oracle: hom(M, N) from N(b) f = f M(b) over every basis element b,
    assembled with Kronecker products over all entries of f and reduced to
    the entries the gradings allow."""
    p = m.p
    if m.dim == 0 or n.dim == 0:
        return []
    allowed = np.nonzero((n.degrees[:, None] == m.degrees[None, :]).ravel())[0]
    if allowed.size == 0:
        return []
    eye_m = modp.identity(m.dim)
    eye_n = modp.identity(n.dim)
    blocks = []
    for i in range(m.algebra.dim):
        row = (np.kron(n.action[i], eye_m) - np.kron(eye_n, m.action[i].T)) % p
        blocks.append(row[:, allowed])
    system = np.vstack(blocks)
    system = system[np.any(system, axis=1)]
    if system.shape[0] == 0:
        ker = modp.identity(allowed.size)
    else:
        _, ker = modp.rank_kernel(system, p)
    out = []
    for vec in ker:
        f = modp.zeros(n.dim * m.dim)
        f[allowed] = vec
        out.append(f.reshape(n.dim, m.dim))
    return out


def test_hom_basis_matches_kronecker_oracle(
    graded_corpus, product_of_duals, product_c2, left_only_well_graded, rebased_nakayama32
):
    # bit-identical bases, same matrices in the same order, on every ordered
    # pair of proj/simple/inj shifted by -c..c
    algebras = graded_corpus + [
        ("k[x]/(x^2) x k[y]/(y^2)", product_of_duals),
        ("k[x]/(x^3) x k[y]/(y^3)", product_c2),
        ("left-only well-graded", left_only_well_graded),
        ("rebased N(3,2)", rebased_nakayama32),
    ]
    for name, a in algebras:
        c = a.top_degree()
        samples = [
            build(a, i, d)
            for build in (proj, simple, inj)
            for i in range(a.n_idempotents)
            for d in range(-c, c + 1)
        ]
        for m in samples:
            for n in samples:
                got = [f.matrix for f in hom_basis(m, n)]
                want = kron_hom_basis(m, n)
                assert len(got) == len(want), name
                for f, g in zip(got, want):
                    assert f.dtype == g.dtype and np.array_equal(f, g), name


@pytest.fixture(scope="module")
def vertex_corpus(graded_corpus, product_of_duals, left_only_well_graded, rebased_nakayama32, truncated):
    # T(b(A)) has several vertices even when A has one, and its modules come
    # in bases that the idempotents do not split
    return graded_corpus + [
        ("k[x]/(x^2) x k[y]/(y^2)", product_of_duals),
        ("left-only well-graded", left_only_well_graded),
        ("rebased N(3,2)", rebased_nakayama32),
        ("T(b(k[x]/(x^3)))", T_of(beilinson(truncated(3)))),
        ("T(b(rebased N(3,2)))", T_of(beilinson(rebased_nakayama32))),
    ]


def _base_samples(a):
    return [build(a, i) for build in (proj, simple, inj) for i in range(a.n_idempotents)]


def test_hom_dim_matches_hom_basis(vertex_corpus):
    # the rank-only solve on the split system against the kernel basis, on
    # every ordered pair of proj/simple/inj shifted by -c..c; the sources are
    # adapted on their own, the targets are shifts of an adapted module
    for name, a in vertex_corpus:
        c = a.top_degree()
        bases = _base_samples(a) + [zero_module(a)]
        sources = [shift(m, d) for m in bases for d in range(-c, c + 1)]
        for m in bases:
            hom_dim(m, m)
        targets = [shift(m, d) for m in bases for d in range(-c, c + 1)]
        for m in sources:
            for n in targets:
                assert hom_dim(m, n) == len(hom_basis(m, n)), name


def test_hom_dim_depends_on_relative_shift(vertex_corpus):
    # Hom(M(d), N(d')) = Hom(M, N(d' - d)), the key of the pipeline's source side
    for name, a in vertex_corpus:
        c = a.top_degree()
        bases = _base_samples(a)
        for m in bases:
            for n in bases:
                for d in range(-c, c + 1):
                    for e in range(-c, c + 1):
                        want = hom_dim(m, shift(n, e - d))
                        assert hom_dim(shift(m, d), shift(n, e)) == want, name


def test_hom_dim_refuses_idempotents_that_do_not_split(product_of_duals):
    # drop f: e alone does not sum to 1, so the rows of e M_g miss a basis
    a = product_of_duals
    bad = GradedAlgebra(a.p, a.names, a.degrees, a.table, a.unit, a.idempotents[:1])
    m = regular_module(bad)
    with pytest.raises(CheckFailed, match="do not split"):
        hom_dim(m, m)


def _span_rank(vectors, p):
    return modp.rank(np.array(vectors), p) if len(vectors) else 0


def test_generators_span_under_products(graded_corpus, product_c2, rebased_nakayama32, truncated):
    # the subalgebra the generators generate is A, and there are
    # dim A - dim rad^2 of them
    b6 = beilinson(truncated(6))
    algebras = graded_corpus + [
        ("k[x]/(x^3) x k[y]/(y^3)", product_c2),
        ("rebased N(3,2)", rebased_nakayama32),
        ("T(b(k[x]/(x^6)))", T_of(b6)),
    ]
    for name, a in algebras:
        p, n = a.p, a.dim
        gens = generators(a)
        span, piv = modp.row_basis(modp.identity(n)[gens], p)
        while True:
            prods = [a.mul(u, v) for u in span for v in span]
            grown, grown_piv = modp.row_basis(np.vstack([span] + prods), p)
            if len(grown_piv) == len(piv):
                break
            span, piv = grown, grown_piv
        assert len(piv) == n, name
        rad = radical(a)
        rad2 = [a.mul(u, v) for u in rad for v in rad]
        assert len(gens) == n - _span_rank(rad2, p), name
    assert len(generators(truncated(6))) == 2
    assert len(generators(T_of(b6))) == 10


def test_hom_basis_refuses_small_prime():
    # the generators need the radical, which needs p > dim A
    a = corpus.truncated_poly(5, prime=5)
    m = regular_module(a)
    with pytest.raises(PrimeTooSmall):
        hom_basis(m, m)


def test_hom_algebra_mismatch(truncated):
    with pytest.raises(AlgebraMismatch):
        hom_basis(regular_module(truncated(2)), regular_module(truncated(3)))


def test_hom_morphisms_are_valid(truncated):
    a = truncated(3)
    m = regular_module(a)
    n = inj(a, 0, 0)
    for f in hom_basis(m, shift(m, 0)) + hom_basis(m, shift(n, -2)):
        f.validate()


def test_projectivity(truncated, graded_corpus):
    a = truncated(2)
    s = simple(a, 0, 0)
    assert not is_projective(s)
    assert projective_cover_dim(s) == 2
    for name, alg in graded_corpus:
        for i in range(alg.n_idempotents):
            assert is_projective(proj(alg, i, -1)), name


def test_quotient_of_projective_not_projective(truncated):
    a = truncated(3)
    m = proj(a, 0, 0)
    # quotient by the socle: a proper quotient of an indecomposable projective
    rows = modp.zeros(1, m.dim)
    rows[0, np.nonzero(m.degrees == 2)[0][0]] = 1
    q, _, _ = quotient_module(m, rows)
    assert q.dim == 2
    assert not is_projective(q)
    assert projective_cover_dim(q) == 3


def test_injectives_projective_over_selfinjective(truncated):
    a = truncated(3)
    assert is_projective(inj(a, 0, 0))


def test_syzygy_in_radical(truncated, uppertri):
    # minimal covers: the syzygy sits inside rad(A) P
    for a in (truncated(3), uppertri(2)):
        for i in range(a.n_idempotents):
            s = simple(a, i, 0)
            P, K, _ = projective_cover(s)
            _, ker = modp.rank_kernel(K, a.p)
            if ker.shape[0] == 0:
                continue
            rad = radical(a)
            rad_rows = []
            for r in rad:
                rad_rows.append((P.act(r) @ modp.identity(P.dim)).T)
            span, piv = modp.row_basis(np.vstack(rad_rows), a.p)
            for v in ker:
                assert modp.in_row_span(span, piv, v, a.p)


def test_direct_sum_and_submodule(truncated):
    a = truncated(3)
    m = direct_sum([proj(a, 0, 0), simple(a, 0, -1)])
    m.validate()
    assert m.dim == 4
    sub = submodule(m, radical_rows(m))
    sub.validate()
    assert sub.dim == 2  # rad acts only on the projective summand


def test_syzygy_of_simple_truncated(truncated):
    a = truncated(3)
    s = simple(a, 0, 0)
    o = syzygy(s)
    assert o.slice_dims() == {1: 1, 2: 1}


def test_module_zoo_invariants(graded_corpus):
    # seeded random combinations of shifts, sums, submodules and quotients:
    # everything must stay a valid graded module and survive phi/psi exactly
    from gradedalg.construct import t_of
    from gradedalg.equiv import phi, psi

    rng = np.random.default_rng(2024)
    for name, a in graded_corpus:
        pool = [regular_module(a)]
        for i in range(a.n_idempotents):
            pool.extend([proj(a, i, 0), inj(a, i, 0)])
        for _ in range(8):
            kind = rng.integers(0, 4)
            m = pool[rng.integers(0, len(pool))]
            if kind == 0:
                made = shift(m, int(rng.integers(-3, 4)))
            elif kind == 1:
                other = pool[rng.integers(0, len(pool))]
                made = direct_sum([m, other])
            elif kind == 2:
                made = submodule(m, radical_rows(m))
            else:
                made = quotient_module(m, radical_rows(m))[0]
            made.validate()
            assert width(made) <= width(m) + (width(m) if kind == 1 else 0)
            assert psi(a, phi(a, made)).equals(made), name
            assert top(made).dim <= made.dim
            assert socle(made).dim <= made.dim
            if made.dim and made.dim < 12:
                pool.append(made)


# ---------------------------------------------------------------------------
# reference implementations: one basis element at a time, and the cover
# assembled as a module, with multiplicities from ranks


def ref_submodule(m, rows):
    basis, degs, pivots = homogeneous_row_basis(rows, m.degrees, m.p)
    k = basis.shape[0]
    action = modp.zeros(m.algebra.dim, k, k)
    for i in range(m.algebra.dim):
        img = (m.action[i] @ basis.T) % m.p
        action[i] = img[pivots]
        if not np.array_equal((basis.T @ action[i]) % m.p, img):
            raise CheckFailed("rows do not span an action-stable subspace")
    return GradedModule(m.algebra, degs, action)


def ref_quotient_module(m, rows):
    basis, _, pivots = homogeneous_row_basis(rows, m.degrees, m.p)
    red, sec, free = quotient_maps(basis, pivots, m.dim, m.p)
    k = len(free)
    action = modp.zeros(m.algebra.dim, k, k)
    for i in range(m.algebra.dim):
        if basis.shape[0]:
            img = (m.action[i] @ basis.T) % m.p
            if np.any((basis.T @ img[pivots] - img) % m.p):
                raise CheckFailed("rows do not span an action-stable subspace")
        action[i] = (((red @ m.action[i]) % m.p) @ sec) % m.p
    return GradedModule(m.algebra, m.degrees[free], action), red, sec


def ref_proj_with_embedding(a, i):
    span = a.right_mult(a.idempotents[i]).T
    basis, degs, pivots = homogeneous_row_basis(span, a.degrees, a.p)
    k = basis.shape[0]
    action = modp.zeros(a.dim, k, k)
    for t in range(a.dim):
        action[t] = ((a.left[t] @ basis.T) % a.p)[pivots]
    return GradedModule(a, degs, action), basis


def ref_inj(a, i, d=0):
    span = a.left_mult(a.idempotents[i]).T
    basis, degs, pivots = homogeneous_row_basis(span, a.degrees, a.p)
    k = basis.shape[0]
    action = modp.zeros(a.dim, k, k)
    for t in range(a.dim):
        action[t] = ((a.right[t] @ basis.T) % a.p)[pivots].T
    return GradedModule(a, -degs - d, action)


def ref_endo_dims(a):
    """F_p-dimension of End(S_r) = e_r A e_r / e_r rad e_r per representative."""
    reps, _, _ = simple_classes(a)
    _, red, _ = semisimple_quotient(a)
    out = []
    for r in reps:
        e = a.idempotents[r]
        ere = (red @ ((a.left_mult(e) @ a.right_mult(e)) % a.p)) % a.p
        out.append(modp.rank(ere.T, a.p))
    return out


def ref_simple_multiplicities(m):
    """Multiplicity of S_r(-g) in top(M): dim e_r top(M)_g over dim End(S_r)."""
    a, t = m.algebra, top(m)
    reps, _, _ = simple_classes(a)
    out = {}
    for r, endo in zip(reps, ref_endo_dims(a)):
        er = t.act(a.idempotents[r])
        for g in np.unique(t.degrees).tolist():
            dim_slice = modp.rank(er[:, t.slice_indices(g)].T, a.p)
            if dim_slice:
                mult, rem = divmod(dim_slice, endo)
                assert rem == 0
                out[(r, g)] = mult
    return out


def ref_projective_cover(m):
    a, p = m.algebra, m.p
    reps, _, _ = simple_classes(a)
    t, _, sec = ref_quotient_module(m, radical_rows(m))
    summands, lifts = [], []
    for r in reps:
        er_top = t.act(a.idempotents[r])
        er_mod = m.act(a.idempotents[r])
        corner_cols = (a.left_mult(a.idempotents[r]) @ a.right_mult(a.idempotents[r])) % p
        corner_mats = np.tensordot(corner_cols.T, t.action, axes=1) % p
        for g in sorted(set(int(x) for x in t.degrees)):
            cols = t.slice_indices(g)
            cand, _, _ = homogeneous_row_basis(er_top[:, cols].T, t.degrees, p)
            spanned, spiv = modp.zeros(0, t.dim), []
            for w in cand:
                if modp.in_row_span(spanned, spiv, w, p):
                    continue
                summands.append((r, g))
                lifts.append((er_mod @ ((sec @ w) % p)) % p)
                spanned, spiv = modp.row_basis(np.vstack([spanned, (corner_mats @ w) % p]), p)
    if not summands:
        return zero_module(a), modp.zeros(m.dim, 0), []
    parts, cols = [], []
    for (r, g), v in zip(summands, lifts):
        pr, basis = ref_proj_with_embedding(a, r)
        parts.append(shift(pr, -g))
        cols.append((basis @ ((m.action @ v) % p)).T % p)
    K = np.hstack(cols) % p
    assert modp.rank(K, p) == m.dim
    return direct_sum(parts), K, summands


@pytest.fixture(scope="module")
def cover_corpus(vertex_corpus, nonsplit_dual_numbers, matrix2x2, uppertri, product_c2):
    # a non-split top (End S = F_{p^2}), a class of two isomorphic idempotents
    # and an algebra whose injectives are not projective
    return vertex_corpus + [
        ("F_{p^2}[x]/(x^2)", nonsplit_dual_numbers),
        ("M_2(k)", matrix2x2),
        ("upper-triangular c=2", uppertri(2)),
        ("k[x]/(x^3) x k[y]/(y^3)", product_c2),
    ]


def _cover_samples(a):
    """Every shifted proj/simple/inj, a non-projective quotient, and sums whose
    tops hold a simple twice, once with a non-projective summand."""
    c = a.top_degree()
    out = [
        build(a, i, d)
        for build in (proj, simple, inj)
        for i in range(a.n_idempotents)
        for d in range(-c, c + 1)
    ]
    p0 = proj(a, 0)
    socle_rows = modp.identity(p0.dim)[p0.degrees == p0.degrees.max()]
    out.append(quotient_module(p0, socle_rows)[0])
    out.append(direct_sum([p0, shift(p0, 0), simple(a, a.n_idempotents - 1, 1)]))
    out.append(direct_sum([simple(a, 0), inj(a, 0), simple(a, 0)]))
    return out


def test_cover_matches_reference_assembly(cover_corpus):
    # the cover from top_summands and cover_map against the old assembly
    # and the rank/endo-field multiplicities, on every sample; the samples
    # include projective and non-projective modules, tops that hold a simple
    # twice, and a simple whose endomorphism field is larger than F_p
    projective, repeated, endo_dims = Counter(), 0, set()
    for name, a in cover_corpus:
        endo_dims.update(ref_endo_dims(a))
        for m in _cover_samples(a):
            P, K, summands = projective_cover(m)
            projective[is_projective(m)] += 1
            repeated += max(Counter(summands).values(), default=0) > 1
            want_P, want_K, want_summands = ref_projective_cover(m)
            assert np.array_equal(P.degrees, want_P.degrees), name
            assert np.array_equal(P.action, want_P.action), name
            assert K.dtype == want_K.dtype and np.array_equal(K, want_K), name
            assert summands == want_summands, name
            assert projective_cover_dim(m) == want_P.dim, name
            assert top_summands(m)[0] == summands, name
            assert is_projective(m) == (want_P.dim == m.dim), name
            assert Counter(summands) == ref_simple_multiplicities(m), name
    assert projective[True] and projective[False] and repeated and max(endo_dims) == 2


def test_module_builders_match_loop_references(cover_corpus):
    for name, a in cover_corpus:
        c = a.top_degree()
        for i in range(a.n_idempotents):
            for d in range(-c, c + 1):
                assert proj(a, i, d).equals(shift(ref_proj_with_embedding(a, i)[0], d)), name
                assert inj(a, i, d).equals(ref_inj(a, i, d)), name
        for m in _cover_samples(a):
            rows = radical_rows(m)
            assert submodule(m, rows).equals(ref_submodule(m, rows)), name
            q, red, sec = quotient_module(m, rows)
            want_q, want_red, want_sec = ref_quotient_module(m, rows)
            assert q.equals(want_q), name
            assert np.array_equal(red, want_red) and np.array_equal(sec, want_sec), name


def test_submodule_and_quotient_refuse_unstable_rows(truncated):
    # the degree-0 vector of Ae is not stable under x
    a = truncated(3)
    m = proj(a, 0)
    rows = modp.identity(m.dim)[m.degrees == 0]
    for build in (submodule, ref_submodule, lambda m, r: quotient_module(m, r)[0]):
        with pytest.raises(CheckFailed, match="rows do not span an action-stable subspace"):
            build(m, rows)
