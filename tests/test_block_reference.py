"""The block constructions against their element-by-element definitions.

Each reference below fills its arrays one basis element at a time from a
position dict over (row, col, source index) tuples, straight from the block
conventions of ``construct``; the library builds the same arrays as
gathers over ``block_layout``.  Tables, units, idempotents, names, actions
and degrees must agree exactly.
"""

import numpy as np
import pytest

from gradedalg import corpus, equiv, modp, modules
from gradedalg.algebra import generators
from gradedalg.construct import T_of, beilinson, t_of, twisted_dual_bimodule, x_bimodule
from gradedalg.equiv import extract_sigma, phi, psi
from gradedalg.modules import (
    GradedModule,
    ModuleFamily,
    _splits,
    inj,
    module_faults,
    proj,
    regular_module,
    simple,
    zero_module,
)
from helpers import right_mult


def _act(m, v):
    """The matrix of the algebra element with coordinates v acting on m."""
    return np.einsum("i,iab->ab", v % m.p, m.action) % m.p


def ref_layout(a):
    c = a.top_degree()
    b_index = [
        (r, s, int(j)) for r in range(c) for s in range(r, c) for j in a.degree_indices(s - r)
    ]
    x_index = [
        (r, s, int(j)) for r in range(c) for s in range(r + 1) for j in a.degree_indices(c + s - r)
    ]
    return b_index, x_index


def ref_beilinson(a):
    """(names, table, unit, idempotents) of b(A)."""
    c = a.top_degree()
    b_index, _ = ref_layout(a)
    pos = {key: t for t, key in enumerate(b_index)}
    nb = len(b_index)
    table = modp.zeros(nb, nb, nb)
    for t, (r, s, j) in enumerate(b_index):
        for u, (r2, s2, j2) in enumerate(b_index):
            if s != r2:
                continue
            prod = a.table[j, j2]
            for k in np.nonzero(prod)[0]:
                table[t, u, pos[(r, s2, int(k))]] = prod[k]
    names = [f"b[{r},{s}]{a.names[j]}" for (r, s, j) in b_index]
    unit = modp.zeros(nb)
    for r in range(c):
        for j in a.degree_indices(0):
            unit[pos[(r, r, int(j))]] = a.unit[j]
    idems = modp.zeros(c * a.n_idempotents, nb)
    row = 0
    for r in range(c):
        for i in range(a.n_idempotents):
            for j in a.degree_indices(0):
                idems[row, pos[(r, r, int(j))]] = a.idempotents[i][j]
            row += 1
    return names, table, unit, idems


def ref_x_bimodule(a):
    """(names, left, right) of x(A)."""
    b_index, x_index = ref_layout(a)
    xpos = {key: t for t, key in enumerate(x_index)}
    nb, nx = len(b_index), len(x_index)
    left = modp.zeros(nb, nx, nx)
    right = modp.zeros(nb, nx, nx)
    for t, (r, s, j) in enumerate(b_index):
        for u, (r2, s2, j2) in enumerate(x_index):
            if s == r2:  # left multiplication lands in block (r, s2)
                prod = a.table[j, j2]
                for k in np.nonzero(prod)[0]:
                    left[t, xpos[(r, s2, int(k))], u] = prod[k]
            if s2 == r:  # right multiplication by (r, s, j) on (r2, s2, j2)
                prod = a.table[j2, j]
                for k in np.nonzero(prod)[0]:
                    right[t, xpos[(r2, s, int(k))], u] = prod[k]
    names = [f"x[{r},{s}]{a.names[j]}" for (r, s, j) in x_index]
    return names, left, right


def ref_phi(a, m):
    """(degrees, action) of phi(a, m)."""
    c = a.top_degree()
    b_index, x_index = ref_layout(a)
    comp = (c - 1 - (m.degrees % c)) % c
    action = modp.zeros(len(b_index) + len(x_index), m.dim, m.dim)
    for pos, (r, s, j) in enumerate(b_index + x_index):
        cols = comp == s
        action[pos][:, cols] = m.action[j][:, cols]
    return m.degrees // c, action


def ref_components(projs, dim):
    """Component index of each basis vector, or None unless every projector
    is the 0/1 diagonal matrix of its component and every vector has one."""
    comp = np.full(dim, -1, dtype=np.int64)
    for q, pq in enumerate(projs):
        ones = np.nonzero(np.diag(pq) == 1)[0]
        expected = modp.zeros(dim, dim)
        expected[ones, ones] = 1
        if not np.array_equal(pq, expected):
            return None
        comp[ones] = q
    return None if np.any(comp < 0) else comp


def ref_projectors(a, n):
    """The action on n of each diagonal unit e_qq of t(A), the sum of the (q, q, j), j in A_0."""
    bpos = {key: i for i, key in enumerate(ref_layout(a)[0])}
    projs = []
    for q in range(a.top_degree()):
        e = modp.zeros(n.algebra.dim)
        for j in a.degree_indices(0):
            e[bpos[(q, q, int(j))]] = a.unit[j]
        projs.append(_act(n, e))
    return projs


def ref_psi(a, n):
    """(degrees, action) of psi(a, n), for a basis adapted to the components."""
    c = a.top_degree()
    b_index, x_index = ref_layout(a)
    bpos = {key: i for i, key in enumerate(b_index)}
    xpos = {key: i for i, key in enumerate(x_index)}
    nb = len(b_index)
    comp = ref_components(ref_projectors(a, n), n.dim)
    assert comp is not None
    action = modp.zeros(a.dim, n.dim, n.dim)
    for j in range(a.dim):
        dj = int(a.degrees[j])
        for q in range(c):
            cols = comp == q
            if dj <= q:
                g = bpos[(q - dj, q, j)]
            else:
                g = nb + xpos[(q - dj + c, q, j)]
            action[j][:, cols] = n.action[g][:, cols]
    return n.degrees * c + (c - 1 - comp), action


def ref_twisted_dual(b, sigma):
    """(names, left, right) of D(B^sigma)."""
    left = modp.zeros(b.dim, b.dim, b.dim)
    for i in range(b.dim):
        left[i] = right_mult(b, sigma.matrix[:, i]).T
    right = np.ascontiguousarray(b.left.transpose(0, 2, 1)) % b.p
    return [f"{s}^" for s in b.names], left, right


def _equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, list):
            assert g == w
        else:
            assert np.array_equal(g, w)


@pytest.fixture(scope="module")
def block_corpus(graded_corpus, rebased_nakayama32, rebased_nakayama):
    return list(graded_corpus) + [
        ("rebased N(3,2)", rebased_nakayama32),
        ("rebased N(2,3)", rebased_nakayama(2, 3, 23)),
        ("rebased N(4,3)", rebased_nakayama(4, 3, 43)),
    ]


def test_block_algebra_and_bimodule_match_references(block_corpus):
    for name, a in block_corpus:
        b = beilinson(a)
        assert not b.degrees.any(), name
        _equal((b.names, b.table, b.unit, b.idempotents), ref_beilinson(a))
        x = x_bimodule(a)
        _equal((x.names, x.left_action, x.right_action), ref_x_bimodule(a))


def test_functors_match_references(block_corpus):
    for name, a in block_corpus:
        c = a.top_degree()
        mods = [regular_module(a)]
        for i in range(a.n_idempotents):
            mods += [proj(a, i, 1), simple(a, i, -1), inj(a, i, c)]
        for m in mods:
            fm = phi(a, m)
            assert fm.algebra is t_of(a), name
            _equal((fm.degrees, fm.action), ref_phi(a, m))
            back = psi(a, fm)
            _equal((back.degrees, back.action), ref_psi(a, fm))


def test_twisted_dual_matches_reference(rebased_nakayama32, rebased_nakayama):
    for a in (rebased_nakayama32, rebased_nakayama(4, 3, 43)):
        sigma = extract_sigma(t_of(a)).sigma
        assert not np.array_equal(sigma.matrix, modp.identity(sigma.algebra.dim))
        x = twisted_dual_bimodule(sigma.algebra, sigma)
        _equal((x.names, x.left_action, x.right_action), ref_twisted_dual(sigma.algebra, sigma))


def ref_fault(m):
    """The first failing check of one module, straight from the definitions:
    M(1) = I, then M(g) M(b) = M(gb) for each generator g in turn, then M(b)
    raises degrees by deg b."""
    a, p = m.algebra, m.p
    if m.dim == 0:
        return None
    if not np.array_equal(np.einsum("i,iab->ab", a.unit, m.action) % p, modp.identity(m.dim)):
        return "module action is not unital"
    for g in generators(a).tolist():
        products = m.action[g] @ m.action % p  # M(g) M(b), for every b
        if not np.array_equal(products, np.einsum("bk,kxy->bxy", a.table[g], m.action) % p):
            return f"module action not associative at {a.names[g]}"
    for i in range(a.dim):
        for r, s in zip(*np.nonzero(m.action[i])):
            if m.degrees[r] - m.degrees[s] != a.degrees[i]:
                return f"action of {a.names[i]} is not degree-compatible"
    return None


def ref_transport(m, target, change):
    """(degrees, action) of m moved to ``target``, one degree slice at a time."""
    new = modp.zeros(target.dim, m.dim, m.dim)
    for g in np.unique(m.degrees).tolist():
        cols = m.degrees == g
        new[:, :, cols] = np.einsum("ki,kab->iab", change(g), m.action[:, :, cols]) % m.p
    return m.degrees, new


def mixed_basis(m):
    """m in a basis where every vector of each degree slice is added to its
    first, so that a slice holding two components mixes them."""
    g = modp.identity(m.dim)
    for deg in np.unique(m.degrees):
        cols = np.flatnonzero(m.degrees == deg)
        g[cols[0], cols] = 1
    ginv = modp.invert(g, m.p)
    return GradedModule(m.algebra, m.degrees, np.einsum("ab,ibc,cd->iad", ginv, m.action, g) % m.p)


def broken(m):
    """Corruptions of a module: its action doubled, the action of its last
    generator that acts non-zero doubled, and one degree moved."""
    a, p = m.algebra, m.p
    g = [int(x) for x in generators(a) if m.action[x].any()][-1]
    products = np.array(m.action)
    products[g] = 2 * products[g] % p
    degrees = m.degrees.copy()
    degrees[-1] += 1
    return [
        GradedModule(a, m.degrees, 2 * m.action),
        GradedModule(a, m.degrees, products),
        GradedModule(a, degrees, m.action),
    ]


@pytest.mark.parametrize("cells", [2**12, 2**10, 2**9, 1])
def test_family_passes_match_one_member_references(rebased_nakayama32, monkeypatch, cells):
    # batches of many members, of a few, or of one: F, the image checks and
    # G over a family mixing zero modules, members of several dimensions,
    # broken members and one whose basis mixes components, member by member
    # against the references; a valid family is checked once per batch
    monkeypatch.setattr(modules, "COVER_CELLS", cells)
    checks = []
    real_check = modules.intertwine_fault
    monkeypatch.setattr(modules, "intertwine_fault", lambda *args: checks.append(args[0]) or real_check(*args))
    for a in (corpus.truncated_poly(3), rebased_nakayama32):
        c, t = a.top_degree(), t_of(a)
        sources = [zero_module(a), regular_module(a)]
        for i in range(a.n_idempotents):
            sources += [proj(a, i, 1), simple(a, i, -1), inj(a, i, c), zero_module(a)]
        fam = equiv.phis(a, ModuleFamily.of(a, sources))
        images = fam.modules()
        for m, fm in zip(sources, images):
            assert fm.algebra is t and fm.equals(GradedModule(t, *ref_phi(a, m)))
        checks.clear()
        assert module_faults(fam) == [None] * len(sources)
        d = max(fam.dims)
        size = max(cells // (t.dim * d * d), 1)
        assert len(checks) == -(-sum(fam.dims > 0) // size)  # one check per batch, no member rechecked
        # over t(A): G, and the checks of broken members
        mixed = [mixed_basis(fm) for fm in images if fm.dim]
        members = images + mixed
        adapted = [ref_components(ref_projectors(a, n), n.dim) is not None for n in members]
        assert all(adapted[: len(images)]) and (c == 1 or not all(adapted))
        for n, ok, back in zip(members, adapted, equiv.psis(a, ModuleFamily.of(t, members)).modules()):
            split = n if ok else GradedModule(t, *_rewritten(n))
            assert back.algebra is a and back.equals(GradedModule(a, *ref_psi(a, split)))
        members = images + [x for fm in images if fm.dim for x in broken(fm)]
        faults = module_faults(ModuleFamily.of(t, members))
        assert faults == [ref_fault(n) for n in members]
        messages = " | ".join(f for f in faults if f)
        assert None in faults and all(x in messages for x in ("unital", "associative", "degree-compatible"))
        # over T(b(A)): F's transport, through h^{-1} and the twist as in the
        # pipeline, and the checks of its images
        ext = extract_sigma(t)
        tb, nb = T_of(ext.base), ext.base.dim
        h = modp.identity(t.dim)
        h[nb:, nb:] = ext.iso
        h_inv = modp.invert(h, a.p)
        change = lambda g: h_inv @ equiv._twist(ext.sigma, -g) % a.p
        moved = equiv._transports(ModuleFamily.of(t, members), tb, change)
        for n, out in zip(members, moved.modules()):
            assert out.equals(GradedModule(tb, *ref_transport(n, tb, change)))
        faults = module_faults(moved)
        assert faults == [ref_fault(n) for n in moved.modules()] and faults[: len(images)] == [None] * len(images)


def _rewritten(n):
    """(degrees, action) of n in the basis of its split along the idempotents."""
    split = _splits(ModuleFamily.of(n.algebra, [n]))[0].modules()[0]
    return split.degrees, split.action
