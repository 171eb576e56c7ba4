"""Finitely generated graded modules and their structure theory.

A module is a tuple (algebra, degrees, action): ``degrees[t]`` is the
(possibly negative) degree of the t-th basis vector and ``action[i]`` the
matrix of the i-th algebra basis element acting on coordinate columns.

Projectives Ae_i and graded injectives D(e_i A) are built from the regular
representation; tops, socles, projective covers and the projectivity test
follow the usual artin-algebra recipes, everything computed by exact row
reduction over F_p.  One decomposition of the top, ``top_summands``, picks
the summands of every minimal cover; ``cover_map`` turns it into the cover
map, and only callers that need the cover module P build it.
"""

from __future__ import annotations

import numpy as np

from . import modp
from .algebra import (
    GradedAlgebra,
    cached,
    generators,
    homogeneous_row_basis,
    intertwine_fault,
    quotient_maps,
    radical,
    representation_fault,
    semisimple_quotient,
)
from .errors import AlgebraMismatch, CheckFailed


class GradedModule:
    __slots__ = ("algebra", "degrees", "action", "_adapted")

    def __init__(self, algebra: GradedAlgebra, degrees, action):
        self.algebra = algebra
        self.degrees = np.asarray(degrees, dtype=np.int64)
        d = self.degrees.shape[0]
        self.action = modp.normalize(action, algebra.p).reshape(algebra.dim, d, d)
        self.degrees.flags.writeable = False
        self.action.flags.writeable = False
        self._adapted = None

    @property
    def dim(self) -> int:
        return int(self.degrees.shape[0])

    @property
    def p(self) -> int:
        return self.algebra.p

    def act(self, v: np.ndarray) -> np.ndarray:
        """Matrix of the action of an algebra element given by coordinates."""
        return np.einsum("i,iab->ab", v % self.p, self.action) % self.p

    def slice_indices(self, n: int) -> np.ndarray:
        return np.nonzero(self.degrees == n)[0]

    def slice_dims(self) -> dict[int, int]:
        vals, counts = np.unique(self.degrees, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}

    def validate(self) -> "GradedModule":
        a, p = self.algebra, self.p
        if self.dim == 0:
            return self
        if not np.array_equal(self.act(a.unit), modp.identity(self.dim)):
            raise CheckFailed("module action is not unital")
        fault = representation_fault(a.table, self.action, p)
        if fault is not None:
            raise CheckFailed(f"module action not associative at {a.names[fault[0]]}")
        dm = self.degrees
        shiftgrid = dm[:, None] - dm[None, :]  # output deg - input deg
        bad = (self.action != 0) & (shiftgrid[None, :, :] != a.degrees[:, None, None])
        if np.any(bad):
            i = int(np.argwhere(bad)[0][0])
            raise CheckFailed(f"action of {a.names[i]} is not degree-compatible")
        return self

    def equals(self, other: "GradedModule") -> bool:
        """Exact equality of tables, not isomorphism."""
        return (
            self.algebra.same_as(other.algebra)
            and np.array_equal(self.degrees, other.degrees)
            and np.array_equal(self.action, other.action)
        )

    def to_dict(self) -> dict:
        """Report form: graded dimension vector plus action tables."""
        return {
            "dim": self.dim,
            "slice_dims": {str(k): v for k, v in sorted(self.slice_dims().items())},
            "degrees": self.degrees.tolist(),
            "action": self.action.tolist(),
        }

    def __repr__(self) -> str:
        return f"GradedModule(dim={self.dim}, slices={self.slice_dims()})"


class GradedMorphism:
    """Degree-preserving intertwiner, stored as a (dim target, dim source) matrix."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: GradedModule, target: GradedModule, matrix):
        self.source = source
        self.target = target
        self.matrix = modp.normalize(matrix, source.p).reshape(target.dim, source.dim)

    def validate(self) -> "GradedMorphism":
        m, n, f = self.source, self.target, self.matrix
        if not m.algebra.same_as(n.algebra):
            raise AlgebraMismatch("morphism endpoints live over different algebras")
        bad = (f != 0) & (n.degrees[:, None] != m.degrees[None, :])
        if np.any(bad):
            raise CheckFailed("morphism does not preserve degrees")
        i = intertwine_fault(f, m.action, n.action, m.p)
        if i is not None:
            raise CheckFailed(f"morphism does not intertwine {m.algebra.names[i]}")
        return self


# ---------------------------------------------------------------------------
# construction helpers


def zero_module(a: GradedAlgebra) -> GradedModule:
    return GradedModule(a, np.zeros(0, dtype=np.int64), modp.zeros(a.dim, 0, 0))


def regular_module(a: GradedAlgebra) -> GradedModule:
    return GradedModule(a, a.degrees.copy(), a.left)


def width(m: GradedModule) -> int:
    if m.dim == 0:
        return 0
    return int(m.degrees.max() - m.degrees.min() + 1)


def shift(m: GradedModule, d: int) -> GradedModule:
    """Degree shift M(d): an element of old degree g gets degree g - d."""
    out = GradedModule(m.algebra, m.degrees - d, m.action)
    if m._adapted is not None:
        degs, verts, action = m._adapted
        out._adapted = (degs - d, verts, action)
    return out


def direct_sum(parts: list[GradedModule]) -> GradedModule:
    if not parts:
        raise ValueError("direct_sum of nothing (pass the algebra's zero module)")
    a = parts[0].algebra
    for q in parts[1:]:
        if not a.same_as(q.algebra):
            raise AlgebraMismatch("direct sum over different algebras")
    degrees = np.concatenate([q.degrees for q in parts])
    total = int(degrees.shape[0])
    action = modp.zeros(a.dim, total, total)
    off = 0
    for q in parts:
        action[:, off : off + q.dim, off : off + q.dim] = q.action
        off += q.dim
    return GradedModule(a, degrees, action)


def _stable_action(m: GradedModule, basis: np.ndarray, pivots: list[int]) -> np.ndarray:
    """Action of A on the row span of ``basis``, read off its pivot columns.

    Raises CheckFailed unless the span is action-stable.
    """
    img = (m.action @ basis.T) % m.p  # img[i]: columns b_i * (basis rows)
    action = img[:, pivots, :]
    if np.any((basis.T @ action - img) % m.p):
        raise CheckFailed("rows do not span an action-stable subspace")
    return action


def submodule(m: GradedModule, rows: np.ndarray) -> GradedModule:
    """Submodule spanned by ``rows`` (must be action-stable), as its own module."""
    basis, degs, pivots = homogeneous_row_basis(rows, m.degrees, m.p)
    return GradedModule(m.algebra, degs, _stable_action(m, basis, pivots))


def quotient_module(m: GradedModule, rows: np.ndarray):
    """Quotient by an action-stable graded subspace.

    Returns (quotient, reduce, section) with reduce/section the coordinate
    maps; callers that only need the module drop the maps.
    """
    basis, _, pivots = homogeneous_row_basis(rows, m.degrees, m.p)
    red, sec, free = quotient_maps(basis, pivots, m.dim, m.p)
    _stable_action(m, basis, pivots)
    action = ((red @ m.action) % m.p @ sec) % m.p
    q = GradedModule(m.algebra, m.degrees[free], action)
    return q, red, sec


@cached
def _proj_arrays(a: GradedAlgebra, i: int):
    """(degrees, action, basis) of Ae_i, whose basis rows b_j e_i sit in A (cached)."""
    span = a.right_mult(a.idempotents[i]).T  # rows: b_j * e_i
    basis, degs, pivots = homogeneous_row_basis(span, a.degrees, a.p)
    action = (a.left[:, pivots, :] @ basis.T) % a.p
    for arr in (degs, action, basis):
        arr.flags.writeable = False
    return degs, action, basis


def proj(a: GradedAlgebra, i: int, d: int = 0) -> GradedModule:
    """The indecomposable projective Ae_i(d)."""
    degs, action, _ = _proj_arrays(a, i)
    return GradedModule(a, degs - d, action)


def inj(a: GradedAlgebra, i: int, d: int = 0) -> GradedModule:
    """The graded injective D(e_i A)(d), with D(eA)_n = D(e A_{-n})."""
    span = a.left_mult(a.idempotents[i]).T  # rows: e_i * b_j
    basis, degs, pivots = homogeneous_row_basis(span, a.degrees, a.p)
    rho = (a.right[:, pivots, :] @ basis.T) % a.p  # right action on e_i A
    return GradedModule(a, -degs - d, rho.transpose(0, 2, 1))


def simple(a: GradedAlgebra, i: int, d: int = 0) -> GradedModule:
    """The simple top of Ae_i, shifted by d."""
    return shift(top(proj(a, i, 0)), d)


# ---------------------------------------------------------------------------
# radical series


def radical_rows(m: GradedModule) -> np.ndarray:
    """Rows spanning rad(A) * M."""
    acts = np.tensordot(radical(m.algebra), m.action, axes=1) % m.p  # acts[u]: rad[u] on M
    return acts.transpose(0, 2, 1).reshape(len(acts) * m.dim, m.dim)


def top(m: GradedModule) -> GradedModule:
    return quotient_module(m, radical_rows(m))[0]


def socle(m: GradedModule) -> GradedModule:
    rad = radical(m.algebra)
    if rad.shape[0] == 0 or m.dim == 0:
        return submodule(m, modp.identity(m.dim))
    stack = np.vstack([m.act(r) for r in rad])
    _, ker = modp.rank_kernel(stack, m.p)
    return submodule(m, ker)


# ---------------------------------------------------------------------------
# hom spaces (degree 0 only; the constructions here never need other degrees)


def _intertwining_system(gen_degrees, src, tgt, t, u, p: int) -> np.ndarray:
    """Non-zero rows of N(x) f = f M(x) in the unknowns f[t, u].

    ``src`` and ``tgt`` are (degrees, generator action) of M and N.  Equation
    (x, r, s) reads sum_t N(x)[r, t] f[t, s] = sum_u f[r, u] M(x)[u, s].  Both
    sides vanish unless deg N_r - deg M_s = deg x, so only those rows are
    gathered, each against the unknowns.
    """
    (deg_m, act_m), (deg_n, act_n) = src, tgt
    x, r, s = np.nonzero(gen_degrees[:, None, None] == deg_n[None, :, None] - deg_m[None, None, :])
    x, r, s = x[:, None], r[:, None], s[:, None]
    system = np.where(s == u, act_n[x, r, t], 0) - np.where(r == t, act_m[x, u, s], 0)
    return system[np.any(system, axis=1)] % p


def hom_basis(m: GradedModule, n: GradedModule) -> list[GradedMorphism]:
    """Basis of degree-preserving module maps M -> N.

    Solves N(x) f = f M(x) over the entries f[t, u] allowed by the gradings
    (deg N_t = deg M_u), for x running over ``generators(A)`` only: a map
    that commutes with the generators commutes with their products and sums,
    which make up A.  So the system has the solutions of the one over every
    basis element, hence the same row space and the same RREF, and the
    kernel basis comes back bit-identical, in the same order.

    The generators come from ``radical``, so this raises PrimeTooSmall when
    p <= dim A, an algebra that ``validate_algebra`` already refuses.
    """
    if not m.algebra.same_as(n.algebra):
        raise AlgebraMismatch("hom endpoints live over different algebras")
    a, p = m.algebra, m.p
    gens = generators(a)
    t, u = np.nonzero(n.degrees[:, None] == m.degrees[None, :])
    if t.size == 0:
        return []
    system = _intertwining_system(
        a.degrees[gens], (m.degrees, m.action[gens]), (n.degrees, n.action[gens]), t, u, p
    )
    if system.shape[0] == 0:
        ker = modp.identity(t.size)
    else:
        _, ker = modp.rank_kernel(system, p)
    out = []
    for vec in ker:
        f = modp.zeros(n.dim, m.dim)
        f[t, u] = vec
        out.append(GradedMorphism(m, n, f))
    return out


def _adapted(m: GradedModule):
    """(degrees, vertices, generator action) in a basis adapted to the idempotents.

    The basis is the RREF row basis of each e_i M in turn, and the action is
    that of ``generators(A)`` in it.  Cached on the module; ``shift`` keeps it.
    e_i has degree 0, so e_i M is the sum of the e_i M_g, whose RREF rows sit
    in the columns of one degree each, and together they are in RREF: each
    row is homogeneous, of the degree of its pivot.
    """
    if m._adapted is None:
        a, p = m.algebra, m.p
        splits = np.tensordot(a.idempotents, m.action, axes=1) % p
        rows, pivots, verts = [modp.zeros(0, m.dim)], [], []
        for i, e in enumerate(splits):
            block, piv = modp.row_basis(e.T, p)
            rows.append(block)
            pivots += piv
            verts += [i] * len(piv)
        basis = np.vstack(rows)
        degs = m.degrees[pivots]
        inv = modp.invert(basis.T, p) if basis.shape[0] == m.dim else None
        if inv is None or np.any((basis != 0) & (m.degrees[None, :] != degs[:, None])):
            raise CheckFailed("the idempotents do not split the module into a basis")
        action = ((inv @ m.action[generators(a)]) % p @ basis.T) % p
        m._adapted = (degs, np.array(verts, dtype=np.int64), action)
        for arr in m._adapted:
            arr.flags.writeable = False
    return m._adapted


def hom_dim(m: GradedModule, n: GradedModule) -> int:
    """dim of the degree-preserving module maps M -> N, from a rank only.

    The designated idempotents e_i are orthogonal, have degree 0 and sum to
    1, so M is the direct sum of the spaces e_i M_g, and so is N.  A module
    map f of degree 0 commutes with every e_i, so f(e_i M_g) lies in e_i N_g:
    in bases adapted to these sums (``_adapted``) every map is block
    diagonal, with a block for each label (g, i).  So the unknowns are the
    entries f[t, u] whose labels agree, and among their combinations the
    equations N(x) f = f M(x), for x in ``generators(A)``, cut out exactly
    the module maps (see ``hom_basis``).  The dimension is the number of
    unknowns minus the rank of those equations.

    Raises CheckFailed when the rows of the e_i M_g do not form a basis,
    which happens only if the idempotents fail one of the three facts.
    """
    if not m.algebra.same_as(n.algebra):
        raise AlgebraMismatch("hom endpoints live over different algebras")
    deg_m, vert_m, act_m = _adapted(m)
    deg_n, vert_n, act_n = _adapted(n)
    t, u = np.nonzero((deg_n[:, None] == deg_m[None, :]) & (vert_n[:, None] == vert_m[None, :]))
    if t.size == 0:
        return 0
    a, p = m.algebra, m.p
    gen_degrees = a.degrees[generators(a)]
    system = _intertwining_system(gen_degrees, (deg_m, act_m), (deg_n, act_n), t, u, p)
    return t.size - modp.rank(system, p)


# ---------------------------------------------------------------------------
# simples, tops, projective covers


@cached
def simple_classes(a: GradedAlgebra):
    """Partition designated idempotents into isomorphism classes (cached).

    Returns (reps, class_of, corners): representative index per class, the
    class index of every designated idempotent, and for each representative
    r the non-zero rows e_r b_j e_r, which span the corner e_r A e_r.
    """
    _, red, _ = semisimple_quotient(a)
    l, p = a.n_idempotents, a.p
    lefts = [a.left_mult(e) for e in a.idempotents]
    rights = [a.right_mult(e) for e in a.idempotents]
    # sandwich[i][j] has the columns e_i b e_j, one per basis element b
    sandwich = [[(left @ right) % p for right in rights] for left in lefts]
    nonzero = [[bool(np.any((red @ s) % p)) for s in row] for row in sandwich]
    reps: list[int] = []
    class_of = [-1] * l
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
        rows = rows[rows.any(axis=1)]
        rows.flags.writeable = False
        corners.append(rows)
    return reps, class_of, corners


def top_summands(m: GradedModule):
    """The simple summands of top(M) = M / rad(A) M, each with a lift to M.

    Returns (summands, lifts): one (representative index r, degree g) pair
    per summand S_r(-g) of top(M), and a vector of e_r M_g whose image in
    the top generates that summand, so Ae_r(-g) -> M, x -> x v covers it.
    Per class and degree, the vectors of e_r top(M)_g are taken in turn, and
    one starts a new summand only outside the span of those found so far.
    The summand of w is e_r A e_r w, not F_p w: End(S_r) may be a larger
    field, and then one summand holds several F_p-independent vectors.
    """
    a, p = m.algebra, m.p
    reps, _, corners = simple_classes(a)
    t, _, sec = quotient_module(m, radical_rows(m))
    summands: list[tuple[int, int]] = []
    lifts: list[np.ndarray] = []
    for r, corner in zip(reps, corners):
        er_top = t.act(a.idempotents[r])
        er_mod = m.act(a.idempotents[r])
        corner_mats = np.tensordot(corner, t.action, axes=1) % p
        for g in np.unique(t.degrees).tolist():
            cand, _, _ = homogeneous_row_basis(er_top[:, t.slice_indices(g)].T, t.degrees, p)
            spanned, spiv = modp.zeros(0, t.dim), []
            for w in cand:
                if modp.in_row_span(spanned, spiv, w, p):
                    continue
                summands.append((r, g))
                lifts.append((er_mod @ ((sec @ w) % p)) % p)
                orbit = (corner_mats @ w) % p  # the summand e_r A e_r w
                spanned, spiv = modp.row_basis(np.vstack([spanned, orbit]), p)
    return summands, lifts


def cover_map(m: GradedModule):
    """The minimal projective cover P -> M, without building P.

    Returns (summands, K): the (idempotent index, degree) pair of each
    indecomposable summand Ae_i(-g) of P, as ``top_summands`` lists them, and
    the (dim M, dim P) matrix K of the cover map in the basis of P that
    ``projective_cover`` builds.  Raises CheckFailed unless K is onto.
    """
    a, p = m.algebra, m.p
    summands, lifts = top_summands(m)
    cols = [modp.zeros(m.dim, 0)]
    for (r, _), v in zip(summands, lifts):
        basis = _proj_arrays(a, r)[2]
        cols.append((basis @ ((m.action @ v) % p)).T % p)  # column x: x v
    K = np.hstack(cols)
    if modp.rank(K, p) != m.dim:
        raise CheckFailed("projective cover map is not surjective")
    return summands, K


def projective_cover(m: GradedModule):
    """Minimal projective cover P -> M.

    Returns (P, K, summands) where K is the (dim M, dim P) matrix of the
    cover map and summands lists one (idempotent index, degree) pair per
    indecomposable summand Ae_i(-g) of P.
    """
    summands, K = cover_map(m)
    parts = [proj(m.algebra, r, -g) for r, g in summands]
    P = direct_sum(parts) if parts else zero_module(m.algebra)
    return P, K, summands


def projective_cover_dim(m: GradedModule) -> int:
    return cover_map(m)[1].shape[1]


def is_projective(m: GradedModule) -> bool:
    """dim of the minimal cover equals dim M exactly for projectives."""
    return projective_cover_dim(m) == m.dim


def syzygy(m: GradedModule) -> GradedModule:
    """Kernel of the minimal projective cover, as a module in its own right."""
    if m.dim == 0:
        return m
    P, K, _ = projective_cover(m)
    _, ker = modp.rank_kernel(K, m.p)
    return submodule(P, ker)
