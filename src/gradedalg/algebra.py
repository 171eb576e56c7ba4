"""Finite-dimensional positively graded algebras over F_p.

An algebra is given by structure constants: ``table[i, j]`` holds the
coordinate vector of (basis_i * basis_j).  It stores them once, as the
left-regular stack ``left`` (``left[i, k, j] = table[i, j, k]``); ``table``
and ``right`` are read-only views of that one array.  Every basis element
is homogeneous; ``degrees[i]`` is its degree.  A complete set of orthogonal
primitive idempotents is part of the data, not discovered: the validator
only certifies the supplied set.

Conventions used throughout the package:

* module elements are coordinate column vectors; ``left(i)`` is the matrix
  of x -> basis_i * x, so ``left(i) @ v`` multiplies on the left;
* subspaces are given as arrays of row vectors, reduced per degree so the
  basis stays homogeneous and coordinates can be read off pivot columns.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from . import modp
from .errors import (
    CheckFailed,
    GradingViolation,
    IdempotentFault,
    NonAssociative,
    NotIdempotent,
    NotPrimitive,
    PrimeTooSmall,
    TrivialGrading,
    UnitMismatch,
    ActionFault,
)


def cached(fn):
    """Compute fn(obj, *args) once per object and arguments, kept in obj._cache.

    Every caller shares the value, so none may change it.  It must not refer
    back to obj: the cycle would keep obj alive until the cyclic GC runs.
    ``record(obj, value, *args)`` stores a value known to be fn(obj, *args).
    """

    @functools.wraps(fn)
    def wrapper(obj, *args):
        key = (fn, *args)
        if key not in obj._cache:
            obj._cache[key] = fn(obj, *args)
        return obj._cache[key]

    wrapper.record = lambda obj, value, *args: obj._cache.update({(fn, *args): value})
    return wrapper


class GradedAlgebra:
    __slots__ = (
        "p",
        "names",
        "degrees",
        "left",
        "unit",
        "idempotents",
        "_cache",
    )

    def __init__(self, p, names, degrees, table, unit, idempotents):
        self.p = modp.require_prime(p)
        self.names = [str(s) for s in names]
        n = len(self.names)
        if len(set(self.names)) != n:
            raise ValueError("basis names must be unique")
        self.degrees = np.asarray(degrees, dtype=np.int64)
        table = np.asarray(table, dtype=np.int64)
        self.unit = modp.normalize(unit, self.p)
        ide = modp.normalize(idempotents, self.p)
        self.idempotents = ide.reshape(-1, n)
        if self.degrees.shape != (n,):
            raise ValueError("degrees must match the basis length")
        if np.any(self.degrees < 0):
            raise ValueError("degrees must be nonnegative")
        if table.shape != (n, n, n):
            raise ValueError("structure table must have shape (n, n, n)")
        if self.unit.shape != (n,):
            raise ValueError("unit must be a coordinate vector")
        # the one stored copy of the structure constants: reduced and laid out in one pass
        self.left = np.remainder(table.transpose(0, 2, 1), self.p, order="C")
        for arr in (self.degrees, self.left, self.unit, self.idempotents):
            arr.flags.writeable = False
        self._cache = {}

    # -- basic geometry ------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def n_idempotents(self) -> int:
        return self.idempotents.shape[0]

    def top_degree(self) -> int:
        return int(self.degrees.max(initial=0))

    def component_dims(self) -> list[int]:
        return np.bincount(self.degrees, minlength=self.top_degree() + 1).tolist()

    def degree_indices(self, d: int) -> np.ndarray:
        return np.nonzero(self.degrees == d)[0]

    # -- multiplication ------------------------------------------------

    @property
    def table(self) -> np.ndarray:
        """Structure constants, a view of ``left``: table[i, j] = basis_i * basis_j."""
        return self.left.transpose(0, 2, 1)

    @property
    def right(self) -> np.ndarray:
        """Right-multiplication matrices, a view of ``left``: right[j] @ v = v * basis_j."""
        return self.left.transpose(2, 1, 0)

    def same_as(self, other: "GradedAlgebra") -> bool:
        if self is other:
            return True
        return (
            self.p == other.p
            and self.names == other.names
            and np.array_equal(self.degrees, other.degrees)
            and np.array_equal(self.left, other.left)
            and np.array_equal(self.unit, other.unit)
            and np.array_equal(self.idempotents, other.idempotents)
        )

    def __repr__(self) -> str:
        return f"GradedAlgebra(dim={self.dim}, c={self.top_degree()}, p={self.p})"


# ---------------------------------------------------------------------------
# homogeneous subspace utilities


def homogeneous_row_basis(
    rows: np.ndarray, ambient_degrees: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The RREF rows of each degree component of the span of ``rows``, in
    order of degree: (basis rows, their degrees, pivot columns).

    Works for any rows spanning a graded subspace (components of a vector in
    a graded subspace lie in it again).  One ``modp.row_basis`` reduces the
    degree components of every row together, and its rows are then ordered
    stably by the degree of their pivots.  That is the RREF of each
    component in turn: homogeneous vectors of different degrees have
    disjoint coordinate supports, so the union of the components' RREFs is
    in RREF, and it spans the whole, whose RREF is unique.  So the pivot
    columns are globally distinct and coordinates of any member vector can
    be read off the pivots.
    """
    rows = modp.normalize(rows, p)
    n = ambient_degrees.shape[0]
    values = np.unique(ambient_degrees[rows.any(axis=0)])
    comps = np.where(ambient_degrees == values[:, None, None], rows, 0).reshape(values.size * len(rows), n)
    basis, pivots = modp.row_basis(comps[comps.any(axis=1)], p)
    pivots = np.array(pivots, dtype=np.int64)
    order = np.argsort(ambient_degrees[pivots], kind="stable")
    return basis[order], ambient_degrees[pivots[order]], pivots[order].tolist()


def quotient_maps(rows_basis: np.ndarray, pivots: list[int], n: int, p: int):
    """Reduction/section pair for the quotient by an RREF row space.

    reduce (nf x n) sends a vector to quotient coordinates; section (n x nf)
    picks the representative supported on free coordinates.
    """
    free = np.setdiff1d(np.arange(n), pivots).tolist()
    sec = modp.identity(n)[:, free]
    red = sec.T.copy()
    if pivots:
        red[:, pivots] = (-rows_basis[:, free].T) % p
    return red, sec, free


# ---------------------------------------------------------------------------
# validation

#: Most entries of the arrays that one step of a batched pass forms.  It
#: bounds the chunk of rows that ``intertwine_fault`` compares at once, and
#: the batches of ``modules.ModuleFamily.batches``: members x per x d^2, d the
#: family's largest dimension and per the matrices a pass stacks for each
#: member (dim A for the cover pass, ``modules.module_faults`` and
#: ``modules._splits``).  128 KiB an int64 or float64 array.
COVER_CELLS = 2**14


def intertwine_fault(
    f: np.ndarray, src: np.ndarray, tgt: np.ndarray, rows: np.ndarray, p: int
) -> Optional[tuple[int, int, int]]:
    """First (rows[k], col, m) where tgt[k] @ f[m] != f[m] @ src[k], or None.

    ``f`` is one matrix or a stack of them; src[k] and tgt[k] are the matrices
    of the basis element rows[k].  tgt[k] may also be a stack of one matrix
    per member of a family, whose maps then fill f in turn, as many to a
    member: map m is checked against tgt[k][m // (len(f) // members)].  Then
    src[k] may be such a stack too, or one matrix, which meets every map by
    broadcasting, in the same product.  The first failing row wins, then
    the first column failing in any map, then the first map failing there.
    The one check of module actions, module maps (``generators`` gives
    their forms) and theta in ``equiv._sigma_of``;
    the associativity of A itself, and every bimodule, are decided by
    ``_associativity_fault`` instead (``bimodule_extension``).
    Compares a chunk of consecutive rows per step, one ``modp.dot`` per
    side: as many rows as keep rows x (entries of f) within ``COVER_CELLS``,
    and at least one.  So each product, and each array formed from it, has
    at most the larger of ``COVER_CELLS`` and f's entries, and a stack f of
    at least the budget's entries goes one row at a time.  The first
    failing row of the first failing chunk is the first failing row.
    Both sides come from ``modp.dot``, so their difference is an integer
    below 2^53 in magnitude, exact in float64 and in int64, and its int64
    remainder tells whether it vanishes mod p; most entries are exactly 0,
    and only the others take one.
    """
    f = np.asarray(f)
    n, dt, ds = f.shape if f.ndim == 3 else (1, *f.shape)
    src, tgt = (np.asarray(x, dtype=np.float64, order="C") for x in (src, tgt))
    members = tgt.shape[1] if tgt.ndim == 4 else 1
    per = n // members
    # g[q, a, m, b] = f[q per + m][a, b]; the products broadcast over q, and
    # src of one matrix a row meets every map of every member at once
    g = f.reshape(members, per, dt, ds).transpose(0, 2, 1, 3).astype(np.float64, order="C")
    wide, tall = g.reshape(members, dt, per * ds), g.reshape(members if src.ndim == 4 else 1, -1, ds)
    step = max(COVER_CELLS // max(f.size, 1), 1)
    for lo in range(0, len(rows), step):
        hi = min(lo + step, len(rows))
        # diff[k, q, a, (m, b)] = (tgt[lo + k] @ f[q per + m] - f[q per + m] @ src[lo + k])[a, b]
        diff = modp.dot(tgt[lo:hi], wide, p).reshape(hi - lo, members, dt, per * ds)
        diff -= modp.dot(tall, src[lo:hi], p).reshape(hi - lo, members, dt, per * ds)
        wrong = diff != 0
        wrong[wrong] = diff[wrong].astype(np.int64) % p != 0
        if wrong.any():
            k = int(np.flatnonzero(wrong.reshape(hi - lo, -1).any(axis=1))[0])
            bad = wrong[k].reshape(members, dt, per, ds).any(axis=1).reshape(n, ds)  # bad[m, b]
            col = int(np.flatnonzero(bad.any(axis=0))[0])
            return int(rows[lo + k]), col, int(np.flatnonzero(bad[:, col])[0])
    return None


def validate_algebra(a: GradedAlgebra) -> GradedAlgebra:
    """Verify all GradedAlgebra invariants, raising a ValidationError subclass.

    Checks: prime size, two-sided unit, graded multiplicativity,
    associativity on all basis triples (``_associativity_fault``, an exact
    join of the non-zero structure constants), orthogonal idempotents summing
    to the unit, and primitivity of each designated idempotent (its corner in
    A_0/rad A_0 is commutative with Frobenius fixed space of dimension one),
    all of them from one pass over the corners (``_check_primitive``).
    """
    _check_unit_and_grading(a)
    # associativity on every triple: the generators, which the other
    # multiplication checks read, come from the radical, which presumes it
    fault = _associativity_fault(a)
    if fault is not None:
        raise _non_associative(a, *fault)
    _check_idempotents(a)
    _check_primitive(a)
    return a


def validate_extension(t: GradedAlgebra) -> GradedAlgebra:
    """``validate_algebra`` without the join, for an algebra that
    ``bimodule_extension`` has just built: its join on the same table
    decided associativity there, so only the prime, the unit, the grading,
    the idempotents and their primitivity are checked, in that order."""
    _check_unit_and_grading(t)
    _check_idempotents(t)
    _check_primitive(t)
    return t


def _check_unit_and_grading(a: GradedAlgebra) -> None:
    """Refuse a prime p <= dim A, a unit that is not two-sided, or a product
    b_i b_j outside degree d_i + d_j."""
    p, n = a.p, a.dim
    if p <= n:
        raise PrimeTooSmall(f"prime {p} must exceed dim {n}")

    # unit: two-sided identity, L(1) and the transpose of R(1) one contraction each
    if not np.array_equal(np.tensordot(a.unit, a.left, axes=1) % p, modp.identity(n)):
        raise UnitMismatch("unit is not a left identity")
    if not np.array_equal(a.left @ a.unit % p, modp.identity(n)):
        raise UnitMismatch("unit is not a right identity")

    # graded multiplicativity: support of b_i b_j sits in degree d_i + d_j
    deg = a.degrees
    want = deg[:, None, None] + deg[None, :, None]
    viol = (a.table != 0) & (want != deg[None, None, :])
    if np.any(viol):
        i, j, _ = np.argwhere(viol)[0]
        raise GradingViolation(
            f"product {a.names[i]} * {a.names[j]} leaves the graded component"
        )


def _non_associative(a: GradedAlgebra, i: int, j: int, k: int) -> NonAssociative:
    """The refusal of ``a`` for the triple (i, j, k) of ``_associativity_fault``."""
    return NonAssociative(
        f"({a.names[i]} * {a.names[j]}) * {a.names[k]} != "
        f"{a.names[i]} * ({a.names[j]} * {a.names[k]})"
    )


#: Most joined pairs of structure constants that one block of
#: ``_associativity_fault`` forms (unless one i alone has more); about 34
#: bytes each at the peak.
_JOIN_BUDGET = 1 << 15


def _join_packing(n: int, p: int) -> tuple[int, int]:
    """(b, span) for the join of an n-dimensional algebra over F_p: each pair
    is packed as key * 2^b + value, b the bit length of p - 1, with its key
    taken relative to the block's first i, and a block spans at most ``span``
    consecutive i.  So every packed value is below span n^3 2^b <= 2^63 (see
    ``modp``)."""
    b = (p - 1).bit_length()
    return b, max(1, min(n, (1 << 63) // (n**3 << b)))


def _associativity_fault(a: GradedAlgebra) -> Optional[tuple[int, int, int]]:
    """First (i, j, k), in lexicographic order, where (b_i b_j) b_k differs
    from b_i (b_j b_k), or None: an exact int64 join of the non-zeros of t = table.

    Coordinate l of (b_i b_j) b_k is sum_m t[i, j, m] t[m, k, l], and that of
    b_i (b_j b_k) is sum_m t[j, k, m] t[i, m, l].  So each non-zero (i, j, m)
    meets the non-zeros of first index m, and each (i, m, l) meets those of
    third index m.  Every product is reduced mod p, the right side's negated,
    and packed under its key ((i n + j) n + k) n + l as key * 2^b + product
    (``_join_packing``); one in-place sort of the packed values orders them
    by key, and ``np.add.reduceat`` sums each key's products: the smallest
    key whose sum is not 0 mod p names the triple.  The pairs are formed in
    blocks of consecutive i, each of at most ``_JOIN_BUDGET`` pairs or of one
    i, and of at most ``span`` i; the first block with a fault ends the
    check.  See ``modp`` for why int64 is exact here.
    """
    n, p, left = a.dim, a.p, a.left
    n2, n3 = n * n, n * n * n
    b, span = _join_packing(n, p)
    flat = np.flatnonzero(left)  # left[i, m, j] = t[i, j, m]: in order of i
    nnz = flat.size
    c = left.ravel()[flat]
    i, rest = np.divmod(flat, n2)
    m, j = np.divmod(rest, n)
    by_m = np.argsort(m)  # any order within a group will do
    first, third = np.bincount(i, minlength=n), np.bincount(m, minlength=n)
    end1, end3 = np.cumsum(first), np.cumsum(third)
    # One outer row per side and non-zero.  Its partners are the rows begin ..
    # begin + reps of the inner stack [non-zeros in order of i; in order of m],
    # and key = okey[outer] + ikey[inner], value = oval[outer] * ival[inner]:
    # (i, j, m) meets (m, k, l) on the left, (i, m, l) meets (j, k, m) on the right.
    reps = np.concatenate([first[m], third[j]])
    begin = np.concatenate([end1[m] - first[m], end3[j] - third[j] + nnz])
    okey = np.concatenate([i * n3 + j * n2, i * n3 + m])
    ikey = np.concatenate([j * n + m, (i * n2 + j * n)[by_m]]) << b
    oval = np.tile(c, 2)
    ival = np.concatenate([c, p - c[by_m]])
    cost = np.concatenate([[0], np.cumsum(reps[:nnz] + reps[nnz:])])  # pairs before each non-zero
    lo = 0
    while lo < nnz:  # whole i within the budget and the span from non-zero lo, at least one
        hi = int(np.searchsorted(cost, cost[lo] + _JOIN_BUDGET, "right")) - 1
        if hi < nnz:
            hi = int(end1[i[hi]] - first[i[hi]])
        hi = min(max(hi, int(end1[i[lo]])), int(np.searchsorted(i, i[lo] + span)))
        rows = np.r_[lo:hi, nnz + lo : nnz + hi]
        r = reps[rows]
        inner = np.repeat(begin[rows] + r - np.cumsum(r), r)
        inner += np.arange(inner.size)
        base = int(i[lo]) * n3
        packed = ikey[inner]
        packed += np.repeat((okey[rows] - base) << b, r)
        val = ival[inner]
        del inner
        val *= np.repeat(oval[rows], r)
        val %= p
        packed += val
        del val
        packed.sort()
        key = packed >> b
        heads = np.flatnonzero(np.r_[key[:1] >= 0, key[1:] != key[:-1]])  # each key's first pair
        packed &= (1 << b) - 1
        bad = np.flatnonzero(np.add.reduceat(packed, heads) % p)
        if bad.size:
            k = base + int(key[heads[bad[0]]])
            return k // n3, k // n2 % n, k // n % n
        lo = hi
    return None


def _check_idempotents(a: GradedAlgebra) -> None:
    ide = a.idempotents
    if ide.shape[0] == 0:
        raise IdempotentFault("no designated idempotents")
    if np.any(ide[:, a.degrees != 0]):
        raise IdempotentFault("idempotents must lie in the degree-0 component")
    # prods[i, :, j] = e_i * e_j, which must be e_i when i = j and 0 otherwise;
    # the e_i lie in A_0 and the grading is checked, so A_0's block is enough
    zero = np.flatnonzero(a.degrees == 0)
    ide0 = ide[:, zero]
    prods = (np.tensordot(ide0, a.left[np.ix_(zero, zero, zero)], axes=1) % a.p) @ ide0.T % a.p
    wrong = np.any(prods != np.einsum("ij,ik->ikj", modp.identity(len(ide)), ide0), axis=1)
    for i in range(ide.shape[0]):
        if not np.any(ide[i]):
            raise IdempotentFault(f"designated idempotent {i} is zero")
        if wrong[i].any():
            j = int(np.argmax(wrong[i]))
            raise IdempotentFault(f"e_{i} * e_{j} is not {'e_' + str(i) if i == j else '0'}")
    if not np.array_equal(ide.sum(axis=0) % a.p, a.unit):
        raise IdempotentFault("designated idempotents do not sum to the unit")


def _check_primitive(a: GradedAlgebra) -> None:
    """Refuse the first designated e_i whose corner in S = A_0/rad A_0 is not
    a division ring: e_i is primitive iff it is one.

    That corner is e_i A_0 e_i modulo its radical (Assem-Simson-Skowronski,
    Elements I, ch. I), so it is semisimple, and over F_p a division ring iff
    commutative (Wedderburn) with a one-dimensional fixed space of x -> x^p
    (a product of finite fields; Frobenius fixes an F_p in each factor).
    All corners are decided together, from ``_corner_pass`` of S, on stacks
    zero-padded to the largest corner: the multiplication map L_u of each
    basis element u of e_i S e_i, read in that basis at its pivots; one
    comparison for commutativity; u^p = L_u^p e_i from one ``modp.mat_pow``
    of the whole stack; and the fixed spaces from one ``modp.ranks``.  The
    first failing idempotent is refused, its commutativity first.  S is
    ``semisimple_quotient(a)``: the S(A_0) object when A has a positive
    degree (see ``_radical_and_quotient``), and S(A) itself, A_0 being A,
    when A is trivially graded.
    """
    s, _, _ = semisimple_quotient(a)
    p, l = s.p, s.n_idempotents
    _, rows, pivots = _corner_pass(s)
    dims = pivots.sum(axis=1)
    w = int(dims.max())
    maps = modp.zeros(l, w, w, w)  # maps[i, u, k, t]: coordinate k of u t in e_i S e_i
    units = modp.zeros(l, w)  # e_i in the basis of its corner
    for i, d in enumerate(dims.tolist()):
        maps[i, :d, :d, :d] = _products(s, rows[i, :d], rows[i, :d])[:, pivots[i]]
        units[i, :d] = s.idempotents[i, pivots[i]]
    noncommutative = (maps != maps.transpose(0, 3, 2, 1)).any(axis=(1, 2, 3))
    frob = (modp.mat_pow(maps, p, p) @ units[:, None, :, None] % p)[..., 0]  # frob[i, u] = u^p
    eye = modp.identity(w) * (np.arange(w) < dims[:, None, None])  # zero on the padding
    fixed = dims - modp.ranks((frob - eye) % p, p)
    for i in range(l):
        if noncommutative[i]:
            raise NotPrimitive(f"idempotent {i}: corner semisimple quotient is noncommutative")
        if fixed[i] != 1:
            raise NotPrimitive(f"idempotent {i}: Frobenius fixed space has dimension {fixed[i]}")


# ---------------------------------------------------------------------------
# radical / semisimple quotient


@cached
def _radical_and_quotient(a: GradedAlgebra):
    """(radical rows, (A/rad A, reduce, section)), built together (cached).

    p > dim A is checked first, whatever the grading.  When A_0 and some
    A_d with d >= 1 are both non-zero, rad A = rad A_0 + A_{>=1}: A_{>=1} is
    an ideal, nilpotent as A_{>=1}^(c+1) = 0 for the top degree c, with
    quotient A_0, so rad A is the preimage of rad A_0 (Assem-Simson-
    Skowronski, Elements I, ch. I).  The rows are then rad A_0's, embedded,
    and the unit rows of A_{>=1} in order of degree, which is the RREF per
    degree that the trace form gives; A_0's columns are the only free ones,
    so S(A) is the very S(A_0) object, with reduce and section zero-padded.
    Otherwise the radical is the kernel of the trace form
    (x, y) -> trace(L_{xy}), valid whenever p > dim (Dickson), and the
    quotient that verifies it (its own trace form must be nondegenerate) is
    the one kept.  Both forms are read off the structure constants (see
    ``_trace_form``), so ``a`` must be associative.
    """
    modp.require_prime_exceeds(a.p, a.dim)
    zero = a.degree_indices(0)
    if 0 < zero.size < a.dim:
        rows0, (q, red0, sec0) = _radical_and_quotient(degree_zero_subalgebra(a))
        positive = np.argsort(a.degrees, kind="stable")[zero.size :]  # by degree, then index
        rows = modp.zeros(a.dim - q.dim, a.dim)
        rows[: len(rows0), zero] = rows0
        rows[np.arange(len(rows0), len(rows)), positive] = 1
        red, sec = modp.zeros(q.dim, a.dim), modp.zeros(a.dim, q.dim)
        red[:, zero], sec[zero] = red0, sec0
    else:
        _, ker = modp.rank_kernel(_trace_form(a), a.p)
        rows, _, _ = homogeneous_row_basis(ker, a.degrees, a.p)
        q, red, sec = quotient_algebra(a, rows)
        if modp.rank(_trace_form(q), q.p) != q.dim:
            raise CheckFailed("radical check failed: quotient is not semisimple")
    rows.flags.writeable = False
    return rows, (q, red, sec)


def radical(a: GradedAlgebra) -> np.ndarray:
    """Homogeneous row basis of the Jacobson radical (cached, and verified)."""
    return _radical_and_quotient(a)[0]


@cached
def generators(a: GradedAlgebra) -> np.ndarray:
    """Basis indices G whose elements generate ``a`` as an algebra (cached).

    They are the free columns of the RREF of rad^2, so they span a complement
    of rad^2, and there are dim A - dim rad^2 of them.  The radical is the
    trace-form one, so ``a`` must be associative, with p > dim A or this
    raises PrimeTooSmall.

    Every multiplication check of a module or a module map in the package
    is a call of ``intertwine_fault(f, src, tgt, rows)`` that reads only the
    rows G, by the lemma below.  The lemma presumes that A is associative,
    which ``validate_algebra`` checks on every basis triple by a join of the
    non-zero structure constants, not by ``intertwine_fault``; every
    bimodule, and so every automorphism, is checked by the same join on its
    extension (``bimodule_extension``), without G.
    Let M be a linear map from A to matrices with M(g) M(b) = M(gb) for
    every g in G and every basis element b.  Then M(a) M(b) = M(ab) for all a, b.  Proof: the
    a with M(a) M(b) = M(ab) for all b form a subspace S.  It contains G, and
    it is closed under left multiplication by G, since then
    M(ga) M(b) = M(g) M(a) M(b) = M(g) M(ab) = M(gab).  So S contains the
    non-unital algebra C generated by G, and C = A: as A = C + rad^2, every
    element of rad is one of rad and C plus one of rad^2, so expanding
    products gives rad^j in C + rad^(j+1) for every j, and then
    A = C + rad^2 = C + rad^3 = ... = C, since rad^k = 0 for some k
    (Assem-Simson-Skowronski, Elements I, ch. II).  With M(1) = I checked on
    its own, M is a representation, a module.  The check reads the orbit
    maps F_c : b -> M(b) e_c (f = M.T, src = L(g), tgt = M(g)): column b of
    M(g) F_c = F_c L(g) is M(g) M(b) e_c = M(gb) e_c.  So it rests on this
    case, not on the intertwiner case below, as M is not yet known to be a
    representation.  The same argument gives the module maps: an
    intertwiner f from a representation M to a representation M', from
    M'(g) f = f M(g), since the a with M'(a) f = f M(a) form a subalgebra.
    """
    rad = radical(a)
    rows = _products(a, rad, rad).transpose(0, 2, 1).reshape(-1, a.dim)
    # most products vanish; reducing only the rest keeps the rref temporaries small
    _, pivots = modp.row_basis(rows[rows.any(axis=1)], a.p)
    gens = np.setdiff1d(np.arange(a.dim), pivots)
    gens.flags.writeable = False
    return gens


def _products(a: GradedAlgebra, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """prods[s, k, t] = coordinate k of u[s] * v[t], for stacks of row vectors."""
    return (np.tensordot(u, a.left, axes=1) % a.p) @ v.T % a.p


def _trace_form(a: GradedAlgebra) -> np.ndarray:
    """gram[i, j] = trace(L_{b_i b_j}) = sum_k table[i, j, k] trace(L_k).

    In an associative algebra L_{xy} = L_x L_y, so this is the form
    trace(L_i L_j), read off the table in O(n^3) rather than O(n^4).
    """
    traces = np.trace(a.left, axis1=1, axis2=2) % a.p
    return (traces @ a.left) % a.p  # traces[k] left[i, k, j] summed over k


def semisimple_quotient(a: GradedAlgebra):
    """(A/rad A, reduce, section): the quotient that verified ``radical`` (cached)."""
    return _radical_and_quotient(a)[1]


@cached
def _corner_pass(s: GradedAlgebra):
    """(nonzero, rows, pivots): the corners e_i S e_j of a semisimple S (cached).

    One product forms e_i b e_j for every i, j and basis element b of S.
    nonzero[i, j] tells whether e_i S e_j != 0, which decides the simple
    classes (``modules.simple_classes``, on S = A/rad A), and rows[i] and
    pivots[i] are the RREF rows, then zero rows, and the pivot columns of
    every diagonal corner e_i S e_i, from one ``modp.rrefs``; primitivity
    (``_check_primitive``, on S = A_0/rad A_0) reads them too.  Both read
    one pass when A has a positive degree, as A/rad A is then the object
    A_0/rad A_0 (``_radical_and_quotient``).
    """
    p = s.p
    lefts = np.tensordot(s.idempotents, s.left, axes=1) % p
    rights = np.tensordot(s.idempotents, s.right, axes=1) % p
    # sandwich[i, j] has the columns e_i b e_j, one per basis element b of S
    sandwich = lefts[:, None] @ rights[None, :] % p
    rows, pivots = modp.rrefs(sandwich.diagonal().transpose(2, 1, 0), p)  # the rows e_i b e_i
    return sandwich.any(axis=(2, 3)), rows, pivots


def quotient_algebra(a: GradedAlgebra, ideal_rows: np.ndarray):
    """Quotient by a two-sided ideal given as homogeneous rows.

    Returns (quotient, reduce, section).  The quotient designates the images
    of A's idempotents and is never validated; in A/rad A each image is
    primitive exactly when its preimage is (see ``_check_primitive``).
    """
    rows, _, pivots = homogeneous_row_basis(ideal_rows, a.degrees, a.p)
    red, sec, free = quotient_maps(rows, pivots, a.dim, a.p)
    table = _induced_table(a, sec.T, red)
    q = GradedAlgebra(
        a.p, [a.names[f] for f in free], a.degrees[free], table,
        red @ a.unit % a.p, a.idempotents @ red.T % a.p,
    )
    return q, red, sec


def _induced_table(a: GradedAlgebra, basis: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """table[s, t] = coords @ (basis[s] * basis[t]): the structure constants of a
    corner (coords picks the pivots) or a quotient (coords is the reduction)."""
    left = (coords @ _products(a, basis, basis)) % a.p  # left[s, r, t] = table[s, t, r]
    return left.transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# substructures


@cached
def degree_zero_subalgebra(a: GradedAlgebra) -> GradedAlgebra:
    idx = a.degree_indices(0)
    sub = np.ix_(idx, idx, idx)
    return GradedAlgebra(
        a.p,
        [a.names[i] for i in idx],
        np.zeros(len(idx), dtype=np.int64),
        a.table[sub],
        a.unit[idx],
        a.idempotents[:, idx],
    )


def corner(a: GradedAlgebra, e: np.ndarray) -> GradedAlgebra:
    """The corner algebra eAe for e a sum of designated idempotents.

    The corner keeps the induced grading, has unit e, and designates the
    summands of e as its idempotent set.
    """
    p = a.p
    e = modp.normalize(e, p)
    left = np.tensordot(e, a.left, axes=1) % p  # L(e)
    right = (a.left @ e % p).T  # R(e): column j is b_j e
    if not np.array_equal(left @ e % p, e) or not np.any(e):
        raise NotIdempotent("corner element is not a nonzero idempotent")
    E = a.idempotents
    # e_i is a summand of e when e e_i = e_i = e_i e: columns of left E^T, right E^T
    fixed = ((left @ E.T % p).T == E) & ((right @ E.T % p).T == E)
    members = np.flatnonzero(fixed.all(axis=1))
    if not np.array_equal(E[members].sum(axis=0) % p, e):
        raise NotIdempotent("corner element is not a sum of designated idempotents")
    span = (left @ right) % p  # columns: e * b_j * e
    basis, degs, pivots = homogeneous_row_basis(span.T, a.degrees, p)
    table = _induced_table(a, basis, modp.identity(a.dim)[pivots])
    names = [f"c{t}:{a.names[pivots[t]]}" for t in range(len(pivots))]
    unit = e[pivots]
    idems = a.idempotents[members][:, pivots]
    return GradedAlgebra(p, names, degs, table, unit, idems)


# ---------------------------------------------------------------------------
# predicates


def _well_graded_witness(a: GradedAlgebra, mult: np.ndarray) -> tuple[bool, Optional[int]]:
    """(True, None) when every e_i acts non-trivially on A_c through the
    stack ``mult`` (``left`` or ``right``), else (False, the first i that
    does not): one contraction of the idempotents with the top-degree columns."""
    c = a.top_degree()
    if c == 0:
        raise TrivialGrading("well-gradedness needs top degree >= 1")
    top = a.degree_indices(c)
    hits = (np.tensordot(a.idempotents, mult[:, :, top], axes=1) % a.p).any(axis=(1, 2))
    if hits.all():
        return True, None
    return False, int(np.argmin(hits))


def is_left_well_graded(a: GradedAlgebra) -> tuple[bool, Optional[int]]:
    """e_i A_c != 0 for every designated primitive idempotent (witness on failure)."""
    return _well_graded_witness(a, a.left)


def is_right_well_graded(a: GradedAlgebra) -> tuple[bool, Optional[int]]:
    """A_c e_i != 0 for every designated primitive idempotent (witness on failure)."""
    return _well_graded_witness(a, a.right)


def is_well_graded(a: GradedAlgebra) -> bool:
    return is_left_well_graded(a)[0] and is_right_well_graded(a)[0]


def is_basic(a: GradedAlgebra) -> bool:
    """Commutativity of A/rad(A); over a finite field this means basic."""
    q, _, _ = semisimple_quotient(a)
    return bool(np.array_equal(q.table, q.table.transpose(1, 0, 2)))


# ---------------------------------------------------------------------------
# bimodules


class Bimodule:
    """Two-sided module over one algebra, by per-basis action matrices."""

    __slots__ = ("algebra", "names", "left_action", "right_action")

    def __init__(self, algebra: GradedAlgebra, names, left_action, right_action):
        self.algebra = algebra
        self.names = [str(s) for s in names]
        d = len(self.names)
        n = algebra.dim
        # reduced and laid out in C order in one pass, also when a transposed view comes in
        left, right = (np.asarray(x, dtype=np.int64).reshape(n, d, d) for x in (left_action, right_action))
        self.left_action = np.remainder(left, algebra.p, order="C")
        self.right_action = np.remainder(right, algebra.p, order="C")
        self.left_action.flags.writeable = False
        self.right_action.flags.writeable = False

    @property
    def dim(self) -> int:
        return len(self.names)

    def unit_fault(self) -> Optional[str]:
        """Why the unit of A does not act as the identity, the left action
        first, or None."""
        ident, unit, p = modp.identity(self.dim), self.algebra.unit, self.algebra.p
        if not np.array_equal(np.tensordot(unit, self.left_action, axes=1) % p, ident):
            return "left action is not unital"
        if not np.array_equal(np.tensordot(unit, self.right_action, axes=1) % p, ident):
            return "right action is not unital"
        return None

    def validate(self) -> "Bimodule":
        """Check that both actions are unital, then that A is associative and
        the actions a bimodule, by the join of ``bimodule_extension``: for any
        A, graded or not, and any p."""
        fault = self.unit_fault()
        if fault is not None:
            raise ActionFault(fault)
        bimodule_extension(self)
        return self


#: The law of a bimodule X that a triple of basis elements of A |x X states,
#: by the position of its one element in X (see ``bimodule_extension``).
_LAWS = ("right action not associative", "left/right actions do not commute", "left action not associative")


def bimodule_extension(x: Bimodule) -> GradedAlgebra:
    """A |x X, for X over A, after one join has decided that A is associative
    and X an A-bimodule; X's unit is the caller's to check.

    The product is (a, m)(a', m') = (a a', a m' + m a'), with A's degrees
    and X in degree 1 (a grading only when A is trivially graded; the check
    reads none).  One ``_associativity_fault`` on the extension decides the
    laws, since a triple of basis elements states one of them by which of
    its elements lie in X: (a a') m = a (a' m) for the left action,
    (m a) a' = m (a a') for the right one, (a m) a' = a (m a') for the two
    commuting, and the associativity of A when none does.

    Lemma: no triple with two or three elements in X can fail.  As X^2 = 0
    and A X, X A lie in X, a product of three factors two of which lie in X
    is 0 whichever pair is multiplied first.

    So the first failing triple names the law, at its first element in A:
    ActionFault for a law of X (``_LAWS``), NonAssociative as
    ``validate_algebra`` words it for a triple inside A.
    """
    b = x.algebra
    nb, nx = b.dim, x.dim
    n = nb + nx
    table = modp.zeros(n, n, n)
    table[:nb, :nb, :nb] = b.table
    table[:nb, nb:, nb:] = x.left_action.transpose(0, 2, 1)
    table[nb:, :nb, nb:] = x.right_action.transpose(2, 0, 1)
    names = list(b.names) + list(x.names)
    if len(set(names)) != n:
        names = list(b.names) + [f"X.{s}" for s in x.names]
    degrees = np.concatenate([b.degrees, np.ones(nx, dtype=np.int64)])
    unit = np.concatenate([b.unit, modp.zeros(nx)])
    idems = np.hstack([b.idempotents, modp.zeros(b.n_idempotents, nx)])
    t = GradedAlgebra(b.p, names, degrees, table, unit, idems)
    del table  # t keeps its own reduced copy: free this one before the join
    fault = _associativity_fault(t)
    if fault is not None:
        in_x = [q >= nb for q in fault]  # by the lemma, one True at most
        if not any(in_x):
            raise _non_associative(t, *fault)
        first_b = fault[1] if in_x[0] else fault[0]
        raise ActionFault(f"{_LAWS[in_x.index(True)]} at {names[first_b]}")
    return t
