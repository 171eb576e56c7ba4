"""Seeded input algebras for the benchmark.

Two generators live here rather than in ``gradedalg.corpus``: the
self-injective Nakayama algebras N(n, k) and a random change of basis
that keeps every basis vector homogeneous.  Rebasing is an algebra
isomorphism that carries the unit and the designated idempotents along,
so every basis-independent answer (hom dimensions, the Nakayama
permutation, global dimensions) is the same before and after it.
"""

from __future__ import annotations

import numpy as np

from gradedalg import modp
from gradedalg.algebra import GradedAlgebra


def nakayama(n: int, k: int, prime: int = modp.DEFAULT_PRIME) -> GradedAlgebra:
    """N(n, k): the cyclic quiver on n vertices modulo paths of length > k.

    Basis: the path of length l starting at vertex i, in degree l, for
    0 <= l <= k.  The product of two paths is their concatenation when the
    first ends where the second starts and the length stays <= k.  Every
    indecomposable projective has length k + 1, so the algebra is
    self-injective; ``graded_nakayama`` reports the permutation
    i -> i - k (mod n).
    """
    if n < 1 or k < 1:
        raise ValueError("nakayama needs n >= 1 and k >= 1")
    paths = [(i, l) for l in range(k + 1) for i in range(n)]
    pos = {path: t for t, path in enumerate(paths)}
    dim = len(paths)
    table = modp.zeros(dim, dim, dim)
    for (i, l), s in pos.items():
        for (j, m), u in pos.items():
            if j == (i + l) % n and l + m <= k:
                table[s, u, pos[(i, l + m)]] = 1
    idems = modp.zeros(n, dim)
    for i in range(n):
        idems[i, pos[(i, 0)]] = 1
    names = [f"p{i}_{l}" for (i, l) in paths]
    degrees = [l for (_, l) in paths]
    return GradedAlgebra(prime, names, degrees, table, idems.sum(axis=0), idems)


def random_graded_basis(a: GradedAlgebra, rng: np.random.Generator) -> np.ndarray:
    """Block-diagonal invertible matrix, one dense block per degree.

    Column t holds the old coordinates of the new basis vector t.  Every
    entry of a block is a nonzero residue, so each draw is equally dense.
    """
    p = a.p
    basis = modp.zeros(a.dim, a.dim)
    for d in range(a.top_degree() + 1):
        idx = a.degree_indices(d)
        while True:
            block = rng.integers(1, p, size=(idx.size, idx.size), dtype=np.int64)
            if modp.invert(block, p) is not None:
                break
        basis[np.ix_(idx, idx)] = block
    return basis


def rebase(a: GradedAlgebra, basis: np.ndarray) -> GradedAlgebra:
    """The same algebra in the basis given by the columns of ``basis``."""
    p = a.p
    inv = modp.invert(basis, p)
    if inv is None:
        raise ValueError("change of basis is singular")
    # products of new basis vectors, in old coordinates, then mapped back
    half = np.einsum("si,suk->iuk", basis, a.table) % p
    prods = np.einsum("uj,iuk->ijk", basis, half) % p
    table = np.einsum("lk,ijk->ijl", inv, prods) % p
    unit = inv @ a.unit % p
    idems = a.idempotents @ inv.T % p
    return GradedAlgebra(p, a.names, a.degrees, table, unit, idems)
