"""Finitely generated graded modules and their structure theory.

A module is a tuple (algebra, degrees, action): ``degrees[t]`` is the
(possibly negative) degree of the t-th basis vector and ``action[i]`` the
matrix of the i-th algebra basis element acting on coordinate columns.

Projectives Ae_i and graded injectives D(e_i A) are built from the regular
representation; tops, socles, projective covers and the projectivity test
follow the usual artin-algebra recipes, everything computed by exact row
reduction over F_p.
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


def submodule(m: GradedModule, rows: np.ndarray) -> GradedModule:
    """Submodule spanned by ``rows`` (must be action-stable), as its own module."""
    basis, degs, pivots = homogeneous_row_basis(rows, m.degrees, m.p)
    k = basis.shape[0]
    action = modp.zeros(m.algebra.dim, k, k)
    for i in range(m.algebra.dim):
        img = (m.action[i] @ basis.T) % m.p
        action[i] = img[pivots]
        if not np.array_equal((basis.T @ action[i]) % m.p, img):
            raise CheckFailed("rows do not span an action-stable subspace")
    return GradedModule(m.algebra, degs, action)


def quotient_module(m: GradedModule, rows: np.ndarray):
    """Quotient by an action-stable graded subspace.

    Returns (quotient, reduce, section) with reduce/section the coordinate
    maps; callers that only need the module drop the maps.
    """
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
    q = GradedModule(m.algebra, m.degrees[free], action)
    return q, red, sec


def _proj_with_embedding(a: GradedAlgebra, i: int):
    e = a.idempotents[i]
    span = a.right_mult(e).T  # rows: b_j * e_i
    basis, degs, pivots = homogeneous_row_basis(span, a.degrees, a.p)
    k = basis.shape[0]
    action = modp.zeros(a.dim, k, k)
    for t in range(a.dim):
        action[t] = ((a.left[t] @ basis.T) % a.p)[pivots]
    return GradedModule(a, degs, action), basis


def proj(a: GradedAlgebra, i: int, d: int = 0) -> GradedModule:
    """The indecomposable projective Ae_i(d)."""
    m, _ = _proj_with_embedding(a, i)
    return shift(m, d)


def inj(a: GradedAlgebra, i: int, d: int = 0) -> GradedModule:
    """The graded injective D(e_i A)(d), with D(eA)_n = D(e A_{-n})."""
    e = a.idempotents[i]
    span = a.left_mult(e).T  # rows: e_i * b_j
    basis, degs, pivots = homogeneous_row_basis(span, a.degrees, a.p)
    k = basis.shape[0]
    action = modp.zeros(a.dim, k, k)
    for t in range(a.dim):
        rho = ((a.right[t] @ basis.T) % a.p)[pivots]  # right action on e_i A
        action[t] = rho.T % a.p
    return GradedModule(a, -degs - d, action)


def simple(a: GradedAlgebra, i: int, d: int = 0) -> GradedModule:
    """The simple top of Ae_i, shifted by d."""
    return shift(top(proj(a, i, 0)), d)


# ---------------------------------------------------------------------------
# radical series


def radical_rows(m: GradedModule) -> np.ndarray:
    """Rows spanning rad(A) * M."""
    rad = radical(m.algebra)
    if rad.shape[0] == 0 or m.dim == 0:
        return modp.zeros(0, m.dim)
    imgs = [m.act(r).T for r in rad]
    return np.vstack(imgs)


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
# simples, multiplicities, projective covers


@cached
def simple_classes(a: GradedAlgebra):
    """Partition designated idempotents into isomorphism classes (cached).

    Returns (reps, class_of, endo_dims): representative index per class,
    the class index of every designated idempotent, and the F_p-dimension
    of each representative simple's endomorphism field.
    """
    q, red, _ = semisimple_quotient(a)
    l = a.n_idempotents
    imgs = []
    for i in range(l):
        li = a.left_mult(a.idempotents[i])
        imgs.append(li)
    nonzero = np.zeros((l, l), dtype=bool)
    for i in range(l):
        for j in range(l):
            block = (red @ ((imgs[i] @ a.right_mult(a.idempotents[j])) % a.p)) % a.p
            nonzero[i, j] = bool(np.any(block))
    reps: list[int] = []
    class_of = [-1] * l
    for i in range(l):
        for ci, r in enumerate(reps):
            if nonzero[i, r] and nonzero[r, i]:
                class_of[i] = ci
                break
        else:
            class_of[i] = len(reps)
            reps.append(i)
    endo_dims = []
    for r in reps:
        ere = (red @ ((imgs[r] @ a.right_mult(a.idempotents[r])) % a.p)) % a.p
        endo_dims.append(modp.rank(ere.T, a.p))
    return reps, class_of, endo_dims


def simple_multiplicities(m: GradedModule) -> dict[tuple[int, int], int]:
    """Multiplicity of each shifted simple S_rep(-g) in top(m).

    Keys are (representative idempotent index, degree g); the multiplicity
    divides out the endomorphism field dimension, so it counts summands.
    """
    t = top(m)
    a = m.algebra
    reps, _, endo_dims = simple_classes(a)
    out: dict[tuple[int, int], int] = {}
    for ci, r in enumerate(reps):
        er = t.act(a.idempotents[r])
        for g in sorted(set(int(x) for x in t.degrees)):
            cols = t.slice_indices(g)
            if cols.size == 0:
                continue
            dim_slice = modp.rank(er[:, cols].T, a.p)
            if dim_slice == 0:
                continue
            mult, rem = divmod(dim_slice, endo_dims[ci])
            if rem:
                raise CheckFailed("slice dimension not a multiple of the endo field")
            out[(r, g)] = mult
    return out


def projective_cover(m: GradedModule):
    """Minimal projective cover P -> M.

    Returns (P, K, summands) where K is the (dim M, dim P) matrix of the
    cover map and summands lists one (idempotent index, degree) pair per
    indecomposable summand Ae_i(-g) of P.
    """
    a, p = m.algebra, m.p
    reps, _, endo_dims = simple_classes(a)
    t, _, sec = quotient_module(m, radical_rows(m))
    summands: list[tuple[int, int]] = []
    lifts: list[np.ndarray] = []
    for ci, r in enumerate(reps):
        er_top = t.act(a.idempotents[r])
        er_mod = m.act(a.idempotents[r])
        corner_cols = (a.left_mult(a.idempotents[r]) @ a.right_mult(a.idempotents[r])) % p
        corner_mats = np.tensordot(corner_cols.T, t.action, axes=1) % p
        for g in sorted(set(int(x) for x in t.degrees)):
            cols = t.slice_indices(g)
            if cols.size == 0:
                continue
            cand, _, _ = homogeneous_row_basis(er_top[:, cols].T, t.degrees, p)
            if cand.shape[0] == 0:
                continue
            spanned = modp.zeros(0, t.dim)
            spiv: list[int] = []
            for w in cand:
                if modp.in_row_span(spanned, spiv, w, p):
                    continue
                summands.append((r, g))
                lifts.append((er_mod @ ((sec @ w) % p)) % p)
                orbit = (corner_mats @ w) % p  # the endomorphism-field span of w
                spanned, spiv = modp.row_basis(np.vstack([spanned, orbit]), p)
    if not summands:
        return zero_module(a), modp.zeros(m.dim, 0), []
    parts = []
    cols = []
    for (r, g), v in zip(summands, lifts):
        pr, basis = _proj_with_embedding(a, r)
        parts.append(shift(pr, -g))
        block = (basis @ ((m.action @ v) % p)).T % p
        cols.append(block)
    P = direct_sum(parts)
    K = np.hstack(cols) % p
    if modp.rank(K, p) != m.dim:
        raise CheckFailed("projective cover map is not surjective")
    return P, K, summands


def projective_cover_dim(m: GradedModule) -> int:
    if m.dim == 0:
        return 0
    P, _, _ = projective_cover(m)
    return P.dim


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
