from collections import Counter

import numpy as np
import pytest

from gradedalg import modp
from gradedalg import corpus
from gradedalg import algebra, modules
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
from gradedalg.errors import AlgebraMismatch, CheckFailed, PreconditionFailed, PrimeTooSmall
from gradedalg.modules import (
    COVER_CELLS,
    GradedModule,
    GradedMorphism,
    _injectives,
    _projectives,
    _splits,
    cover_maps,
    direct_sum,
    hom_bases,
    hom_basis,
    HOM_BATCH,
    ModuleFamily,
    hom_dims,
    inj,
    morphism_faults,
    proj,
    projective_cover,
    regular_module,
    shift,
    simple,
    simple_classes,
    submodule,
    syzygies,
    syzygy,
    tops,
    width,
    zero_module,
)
from helpers import left_mult, pair_morphism_faults, right_mult, validate_morphism


def _mul(a, u, v):
    """u * v in A, for coordinate vectors."""
    return left_mult(a, u) @ (v % a.p) % a.p


def _act(m, v):
    """The matrix of the algebra element with coordinates v acting on m."""
    return np.einsum("i,iab->ab", v % m.p, m.action) % m.p


def slice0_dim_of_corner(a, i, m):
    """dim (e_i m)_0 computed directly; oracle for the projective hom formula."""
    cols = np.flatnonzero(m.degrees == 0)
    if cols.size == 0:
        return 0
    block = _act(m, a.idempotents[i])[:, cols]
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


def _graded_bases_stacked(a, spans):
    """(basis, degrees, pivots) of the row space of each spans[k], from one
    stacked elimination of every (span, degree) component, zero-padded: how
    Ae_i and D(e_i A) were reduced before ``homogeneous_row_basis`` reduced
    each span in one ``modp.row_basis``, kept as the oracle."""
    p, n, count = a.p, a.dim, len(spans)
    values = np.unique(a.degrees)
    width = int(np.bincount(a.degrees).max())
    # cols[g]: the basis elements of the g-th degree, padded with n, a zero column
    cols = np.full((values.size, width), n)
    for g, value in enumerate(values.tolist()):
        at = a.degree_indices(value)
        cols[g, : at.size] = at
    padded = np.concatenate([spans % p, modp.zeros(count, n, 1)], axis=2)
    parts = padded[:, :, cols].transpose(0, 2, 1, 3).reshape(count * values.size, n, width)
    live = parts.any(axis=2)
    order = (~live).argsort(axis=1, kind="stable")[:, : max(int(live.sum(axis=1).max()), 1)]
    rows, pivots = modp.rrefs(parts[np.arange(len(parts))[:, None], order], p)
    e, j = (np.arange(width) < pivots.sum(axis=1)[:, None]).nonzero()  # (component, RREF row)
    g = e % values.size
    basis = modp.zeros(e.size, n + 1)
    basis[np.arange(e.size)[:, None], cols[g]] = rows[e, j]
    pivot = cols[g, (~pivots).argsort(axis=1, kind="stable")[e, j]]
    bounds = np.searchsorted(e // values.size, np.arange(count + 1))
    return [
        (basis[lo:hi, :n], values[g[lo:hi]], pivot[lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:])
    ]


def _stacked_projectives_and_injectives(a):
    """Every Ae_i as (degrees, action, basis) and every D(e_i A) as
    (degrees, action), from the spans and the stacked elimination above."""
    p = a.p
    spans = (a.left @ a.idempotents.T % p).transpose(2, 0, 1)  # spans[i]: rows b_j e_i
    projs = [(degs, a.left[:, piv, :] @ basis.T % p, basis) for basis, degs, piv in _graded_bases_stacked(a, spans)]
    spans = (np.tensordot(a.idempotents, a.left, axes=1) % p).transpose(0, 2, 1)  # rows e_i b_j
    injs = [
        (-degs, (a.right[:, piv, :] @ basis.T % p).transpose(0, 2, 1))
        for basis, degs, piv in _graded_bases_stacked(a, spans)
    ]
    return projs, injs


def test_projectives_and_injectives_match_the_stacked_elimination(graded_corpus, rebased_nakayama32, rebased_nakayama):
    algebras = [a for _, a in graded_corpus] + [rebased_nakayama32, rebased_nakayama(4, 3, 43)]
    cases = [alg for a in algebras for alg in (a, t_of(a), T_of(beilinson(a)))]
    cases.append(t_of(corpus.truncated_poly(11)))  # dimension 110
    for a in algebras:  # the basis reversed, so that degrees fall along it
        r = np.arange(a.dim)[::-1]
        names = [a.names[t] for t in r]
        cases.append(GradedAlgebra(a.p, names, a.degrees[r], a.table[np.ix_(r, r, r)], a.unit[r], a.idempotents[:, r]))
    for a in cases:
        want_projs, want_injs = _stacked_projectives_and_injectives(a)
        for got, want in zip((_projectives(a), _injectives(a)), (want_projs, want_injs)):
            assert len(got) == len(want) == a.n_idempotents
            for got_parts, want_parts in zip(got, want):
                for g, w in zip(got_parts, want_parts, strict=True):
                    assert g.dtype == w.dtype and np.array_equal(g, w)
                    assert not g.flags.writeable


def test_top_socle(truncated):
    a = truncated(3)
    m, i0, s = regular_module(a), inj(a, 0, 0), simple(a, 0, 0)
    top_m, top_i0, top_s = tops(ModuleFamily.of(a, [m, i0, s]))
    assert top_m.slice_dims() == {0: 1}
    assert ref_socle(m).slice_dims() == {2: 1}
    assert ref_socle(i0).slice_dims() == {0: 1}
    assert top_i0.slice_dims() == {-2: 1}
    assert top_s.equals(s)
    assert ref_socle(s).slice_dims() == s.slice_dims()


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
    x2 = a.names.index("x2")
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
        validate_morphism(GradedMorphism(m, m, f))


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
        assert hom_dims(ModuleFamily.of(a, [m]), [(0, 0, 0)])[0] >= 1, name


def test_hom_regular_truncated(truncated):
    a = truncated(2)
    m = regular_module(a)
    assert hom_dims(ModuleFamily.of(a, [m]), [(0, 0, 0)]) == [1]


def test_hom_projective_oracle(graded_corpus):
    # hom(Ae_i, M) = dim (e_i M)_0, checked against the direct slice count
    for name, a in graded_corpus:
        mods = [regular_module(a)]
        for i in range(a.n_idempotents):
            mods.extend([proj(a, i, 0), inj(a, i, 0), simple(a, i, 0), shift(proj(a, i, 0), 1)])
        projs = [proj(a, i, 0) for i in range(a.n_idempotents)]
        entries = [(i, len(projs) + k, 0) for i in range(len(projs)) for k in range(len(mods))]
        got = hom_dims(ModuleFamily.of(a, projs + mods), entries)
        want = [slice0_dim_of_corner(a, i, m) for i in range(a.n_idempotents) for m in mods]
        assert got == want, name


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
    # pair of proj/simple/inj shifted by -c..c and the zero module, in one
    # call per algebra, some of which span several batches; and a few pairs
    # one at a time, so that the one-pair call stays covered
    algebras = graded_corpus + [
        ("k[x]/(x^2) x k[y]/(y^2)", product_of_duals),
        ("k[x]/(x^3) x k[y]/(y^3)", product_c2),
        ("left-only well-graded", left_only_well_graded),
        ("rebased N(3,2)", rebased_nakayama32),
    ]
    calls = []
    for name, a in algebras:
        c = a.top_degree()
        samples = [
            build(a, i, d)
            for build in (proj, simple, inj)
            for i in range(a.n_idempotents)
            for d in range(-c, c + 1)
        ] + [zero_module(a)]
        pairs = [(k, l) for k in range(len(samples)) for l in range(len(samples))]
        for (k, l), maps in zip(pairs, hom_bases(ModuleFamily.of(a, samples), pairs)):
            want = kron_hom_basis(samples[k], samples[l])
            assert len(maps) == len(want), name
            for f, g in zip(maps, want):
                assert f.dtype == g.dtype and np.array_equal(f, g), name
        for k, l in pairs[:: len(pairs) // 3]:
            m, n = samples[k], samples[l]
            got = hom_basis(m, n)
            assert all(f.source is m and f.target is n for f in got), name
            assert len(got) == len(kron_hom_basis(m, n)), name
            assert all(np.array_equal(f.matrix, g) for f, g in zip(got, kron_hom_basis(m, n))), name
        calls.append(len(pairs))
    assert max(calls) > HOM_BATCH  # some call spans several batches
    assert hom_bases(ModuleFamily.of(a, samples), []) == []


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
    # the rank-only solve on the split system against the kernel bases, on
    # every ordered pair of proj/simple/inj shifted by -c..c, in one batched
    # call each, with each target of hom_dims given as (base N, d)
    calls = []
    for name, a in vertex_corpus:
        c = a.top_degree()
        bases = _base_samples(a) + [zero_module(a)]
        # the family: the shifts, the targets of hom_bases too, then the bases
        sources = [shift(m, d) for m in bases for d in range(-c, c + 1)]
        family = ModuleFamily.of(a, sources + bases)
        pairs = [(k, l) for k in range(len(sources)) for l in range(len(sources))]
        want = [len(maps) for maps in hom_bases(family, pairs)]
        entries = [
            (k, len(sources) + l, d) for k in range(len(sources)) for l in range(len(bases)) for d in range(-c, c + 1)
        ]
        assert hom_dims(family, entries) == want, name
        calls.append(len(entries))
    assert max(calls) > HOM_BATCH  # some call spans several batches


def test_hom_dim_depends_on_relative_shift(vertex_corpus):
    # Hom(M(d), N(d')) = Hom(M, N(d' - d)), the key of the pipeline's source
    # side: every pair in three forms, (M(d), N(d'), 0), (M, N(d' - d), 0)
    # and (M, N, d' - d), in one batched call
    for name, a in vertex_corpus:
        c = a.top_degree()
        bases = _base_samples(a)
        members = list(bases)

        def member(m):  # the index of a new member m
            members.append(m)
            return len(members) - 1

        cases = [
            (k, l, d, e)
            for k in range(len(bases))
            for l in range(len(bases))
            for d in range(-c, c + 1)
            for e in range(-c, c + 1)
        ]
        entries = [(member(shift(bases[k], d)), member(shift(bases[l], e)), 0) for k, l, d, e in cases]
        entries += [(k, member(shift(bases[l], e - d)), 0) for k, l, d, e in cases]
        entries += [(k, l, e - d) for k, l, d, e in cases]
        got = np.array(hom_dims(ModuleFamily.of(a, members), entries)).reshape(3, -1)
        assert (got == got[0]).all(), name


@pytest.mark.parametrize("cells", [COVER_CELLS, 2**10, 1])
def test_batches_cut_a_family_in_order(rebased_nakayama32, monkeypatch, cells):
    # zero modules among members of several dimensions, the largest last:
    # the batches partition the members in order, each as many as keep
    # members x per x d^2 within COVER_CELLS (d the family's largest
    # dimension) or one, and each stack holds its members zero-padded
    monkeypatch.setattr(modules, "COVER_CELLS", cells)
    a = rebased_nakayama32
    mods = [zero_module(a), simple(a, 0), proj(a, 1, 2), zero_module(a), inj(a, 0, -1)]
    mods += [simple(a, 2, 1), zero_module(a), direct_sum([proj(a, 0), inj(a, 2, 1)])]
    d = mods[-1].dim
    assert d > max(m.dim for m in mods[:-1])
    fam = ModuleFamily.of(a, mods)
    for per in (a.dim, a.n_idempotents + 4):
        size = max(cells // (per * d * d), 1)
        seen = []
        for first, part, stack, degrees in fam.batches(per):
            count = part.dims.size
            assert first == len(seen) and part.algebra is a
            assert count == min(size, len(mods) - first) and (count == 1 or count * per * d * d <= cells)
            e = stack.shape[2]
            assert stack.shape == (count, a.dim, e, e) and degrees.shape == (count, e)
            assert stack.dtype == degrees.dtype == np.int64
            for k, m in enumerate(part.modules()):
                want = mods[first + k]
                assert m.equals(want)
                action, degs = modp.zeros(a.dim, e, e), np.zeros(e, dtype=np.int64)
                action[:, : want.dim, : want.dim], degs[: want.dim] = want.action, want.degrees
                assert np.array_equal(stack[k], action) and np.array_equal(degrees[k], degs)
            seen += range(first, first + count)
        assert seen == list(range(len(mods)))
    assert list(ModuleFamily.of(a, []).batches(a.dim)) == []


def test_hom_dims_split_each_member_once(rebased_nakayama32, monkeypatch):
    # entries that shift one pair by several d name two members: one _splits
    # call, on the family itself, not one per shifted copy; the dimensions
    # are those of the shifted copies as members of their own
    a = T_of(beilinson(rebased_nakayama32))
    m, n = proj(a, 0), inj(a, 1)
    fam = ModuleFamily.of(a, [m, n])
    calls, real_splits = [], modules._splits
    monkeypatch.setattr(modules, "_splits", lambda f: calls.append(f) or real_splits(f))
    shifts = range(-3, 4)
    got = hom_dims(fam, [(k, l, d) for k in (0, 1) for l in (0, 1) for d in shifts])
    assert len(calls) == 1 and calls[0] is fam
    copies = [shift(x, d) for x in (m, n) for d in shifts]
    entries = [(k, 2 + l * len(shifts) + i, 0) for k in (0, 1) for l in (0, 1) for i in range(len(shifts))]
    assert got == hom_dims(ModuleFamily.of(a, [m, n] + copies), entries) and any(got)


def _loop_split(m):
    """Reference: the RREF rows of each e_i M in turn, one module and one
    idempotent at a time, and M rewritten in that basis: its degrees, its
    action (basis.T)^-1 M(b) basis.T and the vertex of each vector."""
    rows, pivots, verts = [modp.zeros(0, m.dim)], [], []
    for i, e in enumerate(m.algebra.idempotents):
        block, piv = modp.row_basis(_act(m, e).T, m.p)
        rows.append(block)
        pivots += piv
        verts += [i] * len(piv)
    basis = np.vstack(rows)
    action = modp.invert(basis.T, m.p) @ m.action % m.p @ basis.T % m.p
    return m.degrees[pivots], action, np.array(verts, dtype=np.int64)


def _split_members(fam):
    """(degrees, action, vertices) of each member of ``_splits(fam)``."""
    split, verts = _splits(fam)
    ends = np.cumsum(split.dims).tolist()
    return [(m.degrees, m.action, verts[end - m.dim : end]) for m, end in zip(split.modules(), ends)]


def test_splits_match_one_module_calls(vertex_corpus, monkeypatch):
    # a family of zero modules and of modules of several dimensions, spread
    # over several batches, splits as each member does alone and as the loop
    # reference does; M(d) splits as M, with the degrees moved by -d, and
    # hom_dims reads the same answers from either
    monkeypatch.setattr(modules, "COVER_CELLS", 2**10)
    spanned = False
    for name, a in vertex_corpus:
        c = a.top_degree()
        bases = _base_samples(a)
        family = [zero_module(a)] + [shift(m, d) for m in bases for d in (0, c)]
        family += [zero_module(a), regular_module(a), zero_module(a)]
        fam = ModuleFamily.of(a, family)
        assert _splits(fam)[0].algebra is a and _splits(fam)[0].dims is fam.dims, name
        got = _split_members(fam)
        assert len(got) == len(family), name
        for m, split in zip(family, got):
            for x, y, z in zip(split, _split_members(ModuleFamily.of(a, [m]))[0], _loop_split(m)):
                assert x.dtype == y.dtype == z.dtype == np.int64, name
                assert np.array_equal(x, y) and np.array_equal(x, z), name
        most = max(m.dim for m in family)
        spanned |= len(family) > 2**10 // (a.dim * most * most)
        pairs, members = [], []
        for m in bases:
            degs, action, verts = _split_members(ModuleFamily.of(a, [m]))[0]
            for d in range(-c, c + 1):
                n = shift(m, d)
                n_degs, n_action, n_verts = _split_members(ModuleFamily.of(a, [n]))[0]
                assert np.array_equal(n_action, action), name
                assert np.array_equal(n_degs, degs - d) and np.array_equal(n_verts, verts), name
                fresh = GradedModule(a, n.degrees, n.action)
                im, i_n, i_fresh = range(len(members), len(members) + 3)
                members += [m, n, fresh]
                pairs += [(i_n, i_n), (i_fresh, i_fresh), (im, im), (im, i_n), (im, i_fresh)]
        dims = np.array(hom_dims(ModuleFamily.of(a, members), [(k, l, 0) for k, l in pairs])).reshape(-1, 5)
        assert (dims[:, :2] == dims[:, 2:3]).all() and (dims[:, 3] == dims[:, 4]).all(), name
    assert spanned
    empty, verts = _splits(ModuleFamily.of(a, []))
    assert _split_members(ModuleFamily.of(a, [])) == [] and empty.action.shape == (a.dim, 0) and verts.size == 0


def test_top_summands_leaves_the_generators_uncomputed(vertex_corpus):
    # the cover pass and the tops read the radical and the idempotents, not
    # the generators that hom_dims reads, so the top decomposition never
    # needs them
    def family(alg):
        mods = [build(alg, i, d) for i in range(alg.n_idempotents) for build, d in ((proj, 0), (inj, 1))]
        return ModuleFamily.of(alg, mods)

    for name, a in vertex_corpus:
        fresh = GradedAlgebra(a.p, a.names, a.degrees, a.table, a.unit, a.idempotents)
        assert [s for s, _ in cover_maps(family(fresh))] == [s for s, _ in cover_maps(family(a))], name
        for x, y in zip(tops(family(fresh)), tops(family(a))):
            assert np.array_equal(x.degrees, y.degrees) and np.array_equal(x.action, y.action), name
        assert (generators.__wrapped__,) not in fresh._cache, name
        hom_dims(ModuleFamily.of(fresh, [proj(fresh, 0)]), [(0, 0, 0)])
        assert (generators.__wrapped__,) in fresh._cache, name


def test_hom_dim_refuses_idempotents_that_do_not_split(product_of_duals, monkeypatch):
    # drop f: e alone does not sum to 1, so the rows of e M_g miss a basis of
    # M, though not of the zero module.  e again after f gives too many rows,
    # and e twice as many rows as dim M, but dependent ones.  Over the upper
    # triangular 2 x 2 matrices, graded by the arrow, u00 + u01 and u11 - u01
    # give a basis of M, but u11 - u01 is not homogeneous.  The refusal names
    # the first failing member, in one batch and with a batch per member
    a = product_of_duals
    u = corpus.upper_triangular(2)
    bad_algebras = [
        GradedAlgebra(a.p, a.names, a.degrees, a.table, a.unit, a.idempotents[:1]),
        GradedAlgebra(a.p, a.names, a.degrees, a.table, a.unit, a.idempotents[[0, 1, 0]]),
        GradedAlgebra(a.p, a.names, a.degrees, a.table, a.unit, a.idempotents[[0, 0]]),
        GradedAlgebra(u.p, u.names, [0, 1, 0], u.table, u.unit, np.array([[1, 1, 0], [0, -1, 1]]) % u.p),
    ]
    for cells in (COVER_CELLS, 1):
        monkeypatch.setattr(modules, "COVER_CELLS", cells)
        for bad in bad_algebras:
            zero, m = zero_module(bad), regular_module(bad).validate()
            with pytest.raises(CheckFailed, match="do not split"):
                hom_dims(ModuleFamily.of(bad, [m]), [(0, 0, 0)])
            with pytest.raises(
                CheckFailed, match=r"^the idempotents do not split the module into a basis \(member 1\)$"
            ):
                _splits(ModuleFamily.of(bad, [zero_module(bad), regular_module(bad)]))
            with pytest.raises(CheckFailed, match=r"\(member 1\)$"):
                hom_dims(ModuleFamily.of(bad, [zero, m]), [(0, 1, 0), (1, 0, 0)])


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
            prods = [_mul(a, u, v) for u in span for v in span]
            grown, grown_piv = modp.row_basis(np.vstack([span] + prods), p)
            if len(grown_piv) == len(piv):
                break
            span, piv = grown, grown_piv
        assert len(piv) == n, name
        rad = radical(a)
        rad2 = [_mul(a, u, v) for u in rad for v in rad]
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


def test_hom_entries_outside_the_family_are_refused(truncated):
    # a negative index would answer for another member, and one past the end
    # would fail in numpy; both name the entry and the size of the family,
    # for the hom passes and for the morphism check, before any map is read
    a = truncated(3)
    fam = ModuleFamily.of(a, [proj(a, 0), inj(a, 0)])
    check = lambda fam, pairs: morphism_faults(fam, pairs, [modp.identity(3)[None], modp.zeros(0, 3, 3)])
    cases = [
        (hom_dims, [(-1, 0, 0)], "entry 0 names member -1 of a family of 2"),
        (hom_bases, [(0, 1), (-2, -1)], "entry 1 names member -2 of a family of 2"),
        (hom_dims, [(2, 0, 0)], "entry 0 names member 2 of a family of 2"),
        (check, [(0, 0), (0, 2)], "entry 1 names member 2 of a family of 2"),
        (check, [(-1, 0), (0, 1)], "entry 0 names member -1 of a family of 2"),
    ]
    for call, entries, detail in cases:
        with pytest.raises(PreconditionFailed) as refused:
            call(fam, entries)
        assert (refused.value.hypothesis, refused.value.detail) == ("family-index", detail)


def test_misshapen_maps_are_refused(truncated):
    # the hom basis map f : Ae_0 -> S_0 + S_0(-1) of k[x]/(x^3) is (2, 3), and
    # its transpose has the entries of f in row-major order: reshaped, it
    # would pass as f itself, as the check of one pair used to let it
    a = truncated(3)
    p, m = proj(a, 0), direct_sum([simple(a, 0), simple(a, 0, -1)])
    (f,) = hom_basis(p, m)
    assert f.matrix.shape == (2, 3) and pair_morphism_faults(p, m, [f.matrix.T]) == [None]
    fam = ModuleFamily.of(a, [p, m])
    assert morphism_faults(fam, [(0, 1)], [[f.matrix]]) == [[None]]
    for maps in ([f.matrix.T], [f.matrix.T[None]], [f.matrix]):
        with pytest.raises(ValueError, match=r"^morphism matrices must have shape \(dim N, dim M\) = \(2, 3\)$"):
            morphism_faults(fam, [(0, 1)], maps)
    with pytest.raises(ValueError, match=r"^morphism matrix must have shape \(dim N, dim M\) = \(2, 3\)$"):
        GradedMorphism(p, m, f.matrix.T)


@pytest.mark.parametrize("cells", [COVER_CELLS, 1])
def test_morphism_faults_match_the_check_of_one_pair(truncated, rebased_nakayama32, monkeypatch, cells):
    # every single-entry corruption of every hom basis map between members of
    # mixed dimension, over an adapted and a rebased algebra, in one family
    # check, against the check of each pair alone: verdicts and messages
    monkeypatch.setattr(algebra, "COVER_CELLS", cells)
    kinds = Counter()
    for a in (T_of(beilinson(truncated(3))), rebased_nakayama32):
        c = a.top_degree()
        mods = [shift(m, d) for m in _base_samples(a) for d in (0, c)] + [regular_module(a)]
        fam = ModuleFamily.of(a, mods)
        pairs = [(k, l) for k in range(len(mods)) for l in range(len(mods))]
        stacks = []
        for (k, l), maps in zip(pairs, hom_bases(fam, pairs)):
            stacks.append(np.concatenate([maps] + [_each_entry_moved(f, a.p) for f in maps]))
        got = morphism_faults(fam, pairs, stacks)
        want = [pair_morphism_faults(mods[k], mods[l], stack) for (k, l), stack in zip(pairs, stacks)]
        assert got == want
        kinds.update(fault.split()[3] if fault else None for faults in got for fault in faults)
    assert kinds[None] > 100 and kinds["preserve"] > 500 and kinds["intertwine"] > 200


def _each_entry_moved(f, p):
    """A copy of the matrix f for each of its entries, that entry moved by 1."""
    moved = np.repeat(f[None], f.size, axis=0).reshape(f.size, f.size)
    moved[np.arange(f.size), np.arange(f.size)] += 1
    return moved.reshape(f.size, *f.shape) % p


def test_hom_morphisms_are_valid(truncated):
    a = truncated(3)
    m = regular_module(a)
    n = inj(a, 0, 0)
    for f in hom_basis(m, shift(m, 0)) + hom_basis(m, shift(n, -2)):
        validate_morphism(f)


def cover_dims(mods):
    """The dimension of the minimal projective cover of each module; a
    module is projective exactly when it equals its own."""
    return [K.shape[1] for _, K in cover_maps(ModuleFamily.of(mods[0].algebra, mods))]


def test_projectivity(truncated, graded_corpus):
    a = truncated(2)
    assert cover_dims([simple(a, 0, 0)]) == [2]
    for name, alg in graded_corpus:
        mods = [proj(alg, i, -1) for i in range(alg.n_idempotents)]
        assert cover_dims(mods) == [m.dim for m in mods], name


def test_quotient_of_projective_not_projective(truncated):
    a = truncated(3)
    m = proj(a, 0, 0)
    # quotient by the socle: a proper quotient of an indecomposable projective
    rows = modp.zeros(1, m.dim)
    rows[0, np.nonzero(m.degrees == 2)[0][0]] = 1
    q, _, _ = ref_quotient_module(m, rows)
    assert q.dim == 2
    assert cover_dims([q]) == [3]


def test_injectives_projective_over_selfinjective(truncated):
    a = truncated(3)
    assert cover_dims([inj(a, 0, 0)]) == [3]


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
                rad_rows.append((_act(P, r) @ modp.identity(P.dim)).T)
            span, piv = modp.row_basis(np.vstack(rad_rows), a.p)
            for v in ker:
                assert modp.in_row_span(span, piv, v, a.p)


def test_direct_sum_and_submodule(truncated):
    a = truncated(3)
    m = direct_sum([proj(a, 0, 0), simple(a, 0, -1)])
    m.validate()
    assert m.dim == 4
    sub = submodule(m, ref_radical_rows(m))
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
                made = submodule(m, ref_radical_rows(m))
            else:
                made = ref_quotient_module(m, ref_radical_rows(m))[0]
            made.validate()
            assert width(made) <= width(m) + (width(m) if kind == 1 else 0)
            assert psi(a, phi(a, made)).equals(made), name
            assert tops(ModuleFamily.of(a, [made]))[0].dim <= made.dim
            assert ref_socle(made).dim <= made.dim
            if made.dim and made.dim < 12:
                pool.append(made)


# ---------------------------------------------------------------------------
# reference implementations: one basis element at a time, and the cover
# assembled as a module, with multiplicities from ranks


def ref_radical_rows(m):
    """Rows spanning rad(A) M."""
    acts = np.tensordot(radical(m.algebra), m.action, axes=1) % m.p  # acts[u]: rad[u] on M
    return acts.transpose(0, 2, 1).reshape(len(acts) * m.dim, m.dim)


def ref_socle(m):
    """soc(M), the vectors that rad(A) kills, as a submodule."""
    rad = radical(m.algebra)
    if rad.shape[0] == 0 or m.dim == 0:
        return submodule(m, modp.identity(m.dim))
    _, ker = modp.rank_kernel(np.vstack([_act(m, r) for r in rad]), m.p)
    return submodule(m, ker)


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
    span = right_mult(a, a.idempotents[i]).T
    basis, degs, pivots = homogeneous_row_basis(span, a.degrees, a.p)
    k = basis.shape[0]
    action = modp.zeros(a.dim, k, k)
    for t in range(a.dim):
        action[t] = ((a.left[t] @ basis.T) % a.p)[pivots]
    return GradedModule(a, degs, action), basis


def ref_inj(a, i, d=0):
    span = left_mult(a, a.idempotents[i]).T
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
        ere = (red @ ((left_mult(a, e) @ right_mult(a, e)) % a.p)) % a.p
        out.append(modp.rank(ere.T, a.p))
    return out


def ref_simple_multiplicities(m):
    """Multiplicity of S_r(-g) in top(M): dim e_r top(M)_g over dim End(S_r)."""
    a, t = m.algebra, ref_quotient_module(m, ref_radical_rows(m))[0]
    reps, _, _ = simple_classes(a)
    out = {}
    for r, endo in zip(reps, ref_endo_dims(a)):
        er = _act(t, a.idempotents[r])
        for g in np.unique(t.degrees).tolist():
            dim_slice = modp.rank(er[:, np.flatnonzero(t.degrees == g)].T, a.p)
            if dim_slice:
                mult, rem = divmod(dim_slice, endo)
                assert rem == 0
                out[(r, g)] = mult
    return out


def ref_projective_cover(m):
    a, p = m.algebra, m.p
    reps, _, _ = simple_classes(a)
    t, _, sec = ref_quotient_module(m, ref_radical_rows(m))
    summands, lifts = [], []
    for r in reps:
        er_top = _act(t, a.idempotents[r])
        er_mod = _act(m, a.idempotents[r])
        corner_cols = (left_mult(a, a.idempotents[r]) @ right_mult(a, a.idempotents[r])) % p
        corner_mats = np.tensordot(corner_cols.T, t.action, axes=1) % p
        for g in sorted(set(int(x) for x in t.degrees)):
            cols = np.flatnonzero(t.degrees == g)
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
    out.append(ref_quotient_module(p0, socle_rows)[0])
    out.append(direct_sum([p0, shift(p0, 0), simple(a, a.n_idempotents - 1, 1)]))
    out.append(direct_sum([simple(a, 0), inj(a, 0), simple(a, 0)]))
    return out


def test_cover_matches_reference_assembly(cover_corpus):
    # the cover from projective_cover against the old assembly and the
    # rank/endo-field multiplicities, on every sample; the samples include
    # projective and non-projective modules, tops that hold a simple twice,
    # and a simple whose endomorphism field is larger than F_p
    projective, repeated, endo_dims = Counter(), 0, set()
    for name, a in cover_corpus:
        endo_dims.update(ref_endo_dims(a))
        for m in _cover_samples(a):
            P, K, summands = projective_cover(m)
            projective[P.dim == m.dim] += 1
            repeated += max(Counter(summands).values(), default=0) > 1
            want_P, want_K, want_summands = ref_projective_cover(m)
            assert np.array_equal(P.degrees, want_P.degrees), name
            assert np.array_equal(P.action, want_P.action), name
            assert K.dtype == want_K.dtype and np.array_equal(K, want_K), name
            assert summands == want_summands, name
            assert Counter(summands) == ref_simple_multiplicities(m), name
    assert projective[True] and projective[False] and repeated and max(endo_dims) == 2


def test_cover_maps_match_reference_on_shuffled_families(cover_corpus):
    # one pass over every sample of an algebra, a zero module among them, in
    # a shuffled order and longer than a batch: each member as the reference
    # assembly gives it, bit for bit, and the syzygies as one at a time
    rng = np.random.default_rng(17)
    spanned = 0
    for name, a in cover_corpus:
        family = _cover_samples(a) + [zero_module(a)]
        family = [family[i] for i in rng.permutation(len(family))]
        got = cover_maps(ModuleFamily.of(a, family))
        assert len(got) == len(family), name
        for m, (summands, K) in zip(family, got):
            _, want_K, want_summands = ref_projective_cover(m)
            assert summands == want_summands, name
            assert K.dtype == want_K.dtype and np.array_equal(K, want_K), name
        for m, omega in zip(family, syzygies(ModuleFamily.of(a, family))):
            assert omega.equals(syzygy(m)), name
        spanned += len(family) * a.dim * max(m.dim for m in family) ** 2 > COVER_CELLS
    assert spanned


def test_cover_maps_name_the_member_whose_cover_fails(uppertri, monkeypatch):
    # the pass reads the radical of A.  With e_0 added to it, the top of Ae_0
    # comes out 0, and S_1 keeps its top; with e_1 in its place, e_1 Ae_1 is
    # not A-stable, and S_0 and Ae_0 keep their tops.  Each family puts the
    # failing module second in its second batch
    a = uppertri(2)
    s0, s1, p0, p1 = simple(a, 0), simple(a, 1), proj(a, 0), proj(a, 1)
    first = COVER_CELLS // a.dim  # more than a batch of modules of dimension at least 1
    rad = radical(a)
    monkeypatch.setattr(modules, "radical", lambda alg: np.vstack([rad, alg.idempotents[:1]]))
    with pytest.raises(CheckFailed, match=rf"^projective cover map is not surjective \(member {first + 1}\)$"):
        cover_maps(ModuleFamily.of(a, [s1] * first + [p1, p0, s1]))
    monkeypatch.setattr(modules, "radical", lambda alg: alg.idempotents[1:2])
    for one_pass in (cover_maps, tops):
        with pytest.raises(
            CheckFailed,
            match=rf"^rows do not span an action-stable subspace \(rad\(A\) M of member {first + 1}\)$",
        ):
            one_pass(ModuleFamily.of(a, [s0] * first + [p0, p1, s0]))


def test_cover_maps_and_tops_refuse_a_family_over_two_algebras(truncated, monkeypatch):
    # the whole family is checked before it is cut into batches: with a batch
    # per module, two modules over different algebras are refused as they are
    # in one batch, wherever the stranger stands
    family = [proj(truncated(3), 0), simple(truncated(3), 0), proj(truncated(4), 0)]
    for cells in (COVER_CELLS, 1):
        monkeypatch.setattr(modules, "COVER_CELLS", cells)
        for one_pass in (cover_maps, tops):
            for mods in (family, family[::-1], family[1:]):
                with pytest.raises(AlgebraMismatch, match="^family members live over different algebras$"):
                    one_pass(ModuleFamily.of(mods[0].algebra, mods))
    pair = ModuleFamily.of(family[0].algebra, family[:2])
    assert len(tops(pair)) == len(cover_maps(pair)) == 2


def test_module_builders_match_loop_references(cover_corpus):
    # the submodules one at a time, and the tops of all the samples of an
    # algebra, a zero module among them, from one call, as the quotient by
    # the radical rows, degrees and tables
    spanned = 0
    for name, a in cover_corpus:
        c = a.top_degree()
        for i in range(a.n_idempotents):
            for d in range(-c, c + 1):
                assert proj(a, i, d).equals(shift(ref_proj_with_embedding(a, i)[0], d)), name
                assert inj(a, i, d).equals(ref_inj(a, i, d)), name
        family = _cover_samples(a) + [zero_module(a)]
        for m, got in zip(family, tops(ModuleFamily.of(a, family))):
            rows = ref_radical_rows(m)
            assert submodule(m, rows).equals(ref_submodule(m, rows)), name
            want = ref_quotient_module(m, rows)[0]
            assert got.equals(want) and got.action.dtype == want.action.dtype, name
        spanned += len(family) * a.dim * max(m.dim for m in family) ** 2 > COVER_CELLS
    assert spanned


def test_submodule_and_quotient_refuse_unstable_rows(truncated):
    # the degree-0 vector of Ae is not stable under x
    a = truncated(3)
    m = proj(a, 0)
    rows = modp.identity(m.dim)[m.degrees == 0]
    for build in (submodule, ref_submodule, lambda m, r: ref_quotient_module(m, r)[0]):
        with pytest.raises(CheckFailed, match="rows do not span an action-stable subspace"):
            build(m, rows)
