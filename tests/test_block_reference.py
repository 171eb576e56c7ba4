"""The block constructions against their element-by-element definitions.

Each reference below fills its arrays one basis element at a time from a
position dict over (row, col, source index) tuples, straight from the block
conventions of ``construct``; the library builds the same arrays as
gathers over ``block_layout``.  Tables, units, idempotents, names, actions
and degrees must agree exactly.
"""

import numpy as np
import pytest

from gradedalg import modp
from gradedalg.construct import beilinson, t_of, twisted_dual_bimodule, x_bimodule
from gradedalg.equiv import _read_components, extract_sigma, phi, psi
from gradedalg.modules import inj, proj, regular_module, simple


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


def ref_psi(a, n):
    """(degrees, action) of psi(a, n), for a basis adapted to the components."""
    c = a.top_degree()
    b_index, x_index = ref_layout(a)
    bpos = {key: i for i, key in enumerate(b_index)}
    xpos = {key: i for i, key in enumerate(x_index)}
    nb = len(b_index)
    projs = []
    for q in range(c):
        e = modp.zeros(n.algebra.dim)
        for j in a.degree_indices(0):
            e[bpos[(q, q, int(j))]] = a.unit[j]
        projs.append(n.act(e))
    comp = _read_components(projs, n.dim)
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
        left[i] = b.right_mult(sigma.matrix[:, i]).T
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
