"""Finitely generated graded modules and their structure theory.

A module is a tuple (algebra, degrees, action): ``degrees[t]`` is the
(possibly negative) degree of the t-th basis vector and ``action[i]`` the
matrix of the i-th algebra basis element acting on coordinate columns.

Projectives Ae_i and graded injectives D(e_i A) are built from the regular
representation by one routine, ``_graded_spans``, which reduces each span
of the rows b_j e_i or e_i b_j by one elimination
(``homogeneous_row_basis``); everything else by exact row reduction over F_p.  Each
question has one entry point, which treats a whole family at once, a
``ModuleFamily``, and names its members by their position in it:

- ``hom_dims`` and ``hom_bases``: degree-0 Hom spaces of the entries
  (k, l, d) and pairs (k, l), from one sparse assembly of the systems
  N(x) f = f M(x), ranked or solved in stacks;
- ``tops``: top(M) = M / rad(A) M, from one stacked elimination of the
  rows spanning rad(A) M, the first steps of the cover pass;
- ``cover_maps``: the minimal projective covers, and ``syzygies`` their
  kernels;
- ``module_faults`` and ``morphism_faults``: the checks of modules and of
  the maps between members, each stack of maps named by its pair (k, l).

The split along the idempotents, ``_splits``, returns the family rewritten
in its split bases.  The passes that stack the members' matrices (the cover
pass, the module checks and ``_splits``) cut the family one way,
``ModuleFamily.batches``, and every stack is zero-padded one way,
``ModuleFamily.padded``.  ``hom_basis``, ``projective_cover``, ``syzygy``
and ``GradedModule.validate`` are their calls on one object.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import modp
from .algebra import (
    COVER_CELLS,
    GradedAlgebra,
    _corner_pass,
    cached,
    generators,
    homogeneous_row_basis,
    intertwine_fault,
    radical,
    semisimple_quotient,
)
from .errors import AlgebraMismatch, CheckFailed, PreconditionFailed

#: Most hom systems that ``_hom_systems`` assembles, and ``hom_dims`` and
#: ``hom_bases`` eliminate, at once.  It bounds the memory of one batch,
#: whose padded stack has this many matrices.
HOM_BATCH = 128


class GradedModule:
    __slots__ = ("algebra", "degrees", "action")

    def __init__(self, algebra: GradedAlgebra, degrees, action):
        self.algebra = algebra
        self.degrees = np.asarray(degrees, dtype=np.int64)
        d = self.degrees.shape[0]
        self.action = modp.normalize(action, algebra.p).reshape(algebra.dim, d, d)
        self.degrees.flags.writeable = False
        self.action.flags.writeable = False

    @property
    def dim(self) -> int:
        return int(self.degrees.shape[0])

    @property
    def p(self) -> int:
        return self.algebra.p

    def slice_dims(self) -> dict[int, int]:
        vals, counts = np.unique(self.degrees, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}

    def validate(self) -> "GradedModule":
        """Check that the action is unital, a representation and degree-compatible:
        ``module_faults`` on M alone, whose fault it raises as CheckFailed."""
        fault = module_faults(ModuleFamily.of(self.algebra, [self]))[0]
        if fault is not None:
            raise CheckFailed(fault)
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
        self.matrix = modp.normalize(matrix, source.p)
        if self.matrix.shape != (target.dim, source.dim):
            raise ValueError(f"morphism matrix must have shape (dim N, dim M) = {(target.dim, source.dim)}")


class ModuleFamily:
    """Modules over one algebra side by side, for the passes that treat a family at once.

    ``action`` is (dim A) x (the sum of the d_k^2), of residues mod p: member
    k, of dimension d_k, fills the next d_k^2 columns, entry [r, s] of its
    matrix of basis element i at row i, column r d_k + s of its block.
    ``degrees`` holds the members' degrees in turn; per column, ``member`` is
    its member, and ``out`` and ``inp`` index ``degrees`` by its output row r
    and its input column s.
    """

    __slots__ = ("algebra", "dims", "degrees", "action", "member", "out", "inp")

    def __init__(self, algebra: GradedAlgebra, dims, degrees, action, columns=None):
        self.algebra, self.dims, self.degrees, self.action = algebra, dims, degrees, action
        if columns is None:
            squares = dims * dims
            member = np.repeat(np.arange(dims.size), squares)
            local = np.arange(member.size) - (np.cumsum(squares) - squares)[member]
            first, d = (np.cumsum(dims) - dims)[member], dims[member]
            columns = member, first + local // d, first + local % d
        self.member, self.out, self.inp = columns

    @classmethod
    def of(cls, algebra: GradedAlgebra, mods) -> "ModuleFamily":
        """The family of the modules ``mods``, in order.  Raises AlgebraMismatch
        unless all of them live over ``algebra``: the one check that a family
        lives over one algebra."""
        for m in mods:
            if not algebra.same_as(m.algebra):
                raise AlgebraMismatch("family members live over different algebras")
        dims = np.array([m.dim for m in mods], dtype=np.int64)
        degrees = np.concatenate([np.zeros(0, dtype=np.int64)] + [m.degrees for m in mods])
        blocks = [modp.zeros(algebra.dim, 0)] + [m.action.reshape(algebra.dim, m.dim * m.dim) for m in mods]
        return cls(algebra, dims, degrees, np.concatenate(blocks, axis=1))

    def like(self, algebra: GradedAlgebra, degrees, action) -> "ModuleFamily":
        """The members of the same dimensions with these degrees and action over ``algebra``."""
        return ModuleFamily(algebra, self.dims, degrees, action, (self.member, self.out, self.inp))

    @property
    def owner(self) -> np.ndarray:
        """The member of each basis vector, as ``degrees`` lists them."""
        return np.repeat(np.arange(self.dims.size), self.dims)

    def select(self, keep: np.ndarray) -> "ModuleFamily":
        """The members k with keep[k], in order."""
        if keep.all():
            return self
        return ModuleFamily(self.algebra, self.dims[keep], self.degrees[keep[self.owner]], self.action[:, keep[self.member]])

    def same_members(self, other: "ModuleFamily") -> np.ndarray:
        """Whether each member equals the other family's, degrees and tables,
        for two families of the same dimensions over one algebra."""
        differ = self.member[(self.action != other.action).any(axis=0)]
        differ = np.concatenate([differ, self.owner[self.degrees != other.degrees]])
        return np.bincount(differ, minlength=self.dims.size) == 0

    def modules(self) -> list[GradedModule]:
        """Each member as a module of its own."""
        ends, col_ends = np.cumsum(self.dims).tolist(), np.cumsum(self.dims * self.dims).tolist()
        return [
            GradedModule(self.algebra, self.degrees[hi - d : hi], self.action[:, cols - d * d : cols])
            for d, hi, cols in zip(self.dims.tolist(), ends, col_ends)
        ]

    def padded(self, rows):
        """(stack, degrees): stack[k, j] is the matrix of basis element
        rows[j] on member k and degrees[k] its degrees, both zero-padded to
        the family's largest dimension (at least 1)."""
        # inside[k, r]: whether member k has a basis vector r; the mask below
        # lists the members' entries in the order of their columns
        inside = np.arange(max(int(self.dims.max(initial=0)), 1)) < self.dims[:, None]
        action = self.action[rows]
        stack = modp.zeros(self.dims.size, len(action), inside.shape[1], inside.shape[1])
        stack.transpose(1, 0, 2, 3)[:, inside[:, :, None] & inside[:, None, :]] = action
        degrees = np.zeros(inside.shape, dtype=np.int64)
        degrees[inside] = self.degrees
        return stack, degrees

    def batches(self, per: int):
        """(first, part, stack, degrees) for each batch of consecutive members, in order.

        ``first`` is the position of the batch's first member and ``part``
        the batch as a family; stack[k, i] is the matrix of basis element i
        on member k of the batch and degrees[k] its degrees, both zero-padded
        to the batch's largest dimension by ``padded``.  A batch holds as
        many members as keep members x per x d^2 within ``COVER_CELLS``, d
        the family's largest dimension, and at least one.
        """
        count, d = self.dims.size, int(self.dims.max(initial=0))
        size = max(COVER_CELLS // max(per * d * d, 1), 1)
        ends = np.concatenate([[0], np.cumsum(self.dims)])
        col_ends = np.concatenate([[0], np.cumsum(self.dims * self.dims)])
        for first in range(0, count, size):
            last = min(first + size, count)
            dims = self.dims[first:last]
            degrees = self.degrees[ends[first] : ends[last]]
            part = self if size >= count else ModuleFamily(
                self.algebra, dims, degrees, self.action[:, col_ends[first] : col_ends[last]]
            )
            yield first, part, *part.padded(slice(None))


def module_faults(fam: ModuleFamily) -> list[Optional[str]]:
    """Why each member of a family is not a graded module, or None where it is one.

    The checks of a module M, of which the first that fails names its fault:
    the action is unital, M(1) = I; it is a representation, checked on the
    products M(g) M(b) = M(gb) for g in ``generators(A)`` only, which
    suffices (see there): A must be associative, with p > dim A or this
    raises PrimeTooSmall; and it is degree-compatible, M(b) moving degrees
    by deg b.  The unit and the degrees are one comparison each over the
    whole family.  The products are one ``intertwine_fault`` per batch of
    the members that pass the unit check, from ``ModuleFamily.batches`` at
    dim A matrices a member: on the orbit maps b -> M(b) e_c of its members
    against M(g) for each member.  A batch with a fault is checked again one
    member at a time, which finds the first generator at which each of its
    members fails.
    """
    a, p = fam.algebra, fam.algebra.p
    count = fam.dims.size
    faults: list[Optional[str]] = [None] * count  # filled from the last check to the first
    moved = (fam.action != 0) & (fam.degrees[fam.out] - fam.degrees[fam.inp] != a.degrees[:, None])
    if moved.any():
        element, column = np.nonzero(moved)  # by element, so the first of each member comes first
        members, first = np.unique(fam.member[column], return_index=True)
        for k, i in zip(members.tolist(), element[first].tolist()):
            faults[k] = f"action of {a.names[i]} is not degree-compatible"
    nonunital = np.zeros(count, dtype=bool)
    nonunital[fam.member[a.unit @ fam.action % p != (fam.out == fam.inp)]] = True
    alive = ~nonunital & (fam.dims > 0)
    live = np.flatnonzero(alive)
    for first, _, stack, _ in fam.select(alive).batches(a.dim):
        gens = generators(a)
        left, d = a.left[gens], stack.shape[2]
        orbits = np.ascontiguousarray(stack.transpose(0, 3, 2, 1))  # orbits[q, c]: b -> M(b) e_c of member q
        actions = stack[:, gens].transpose(1, 0, 2, 3)  # actions[j, q]: M(gens[j]) of member q
        if intertwine_fault(orbits.reshape(-1, d, a.dim), left, actions, gens, p) is not None:
            for q, k in enumerate(live[first : first + len(stack)].tolist()):
                fault = intertwine_fault(orbits[q], left, actions[:, q], gens, p)
                if fault is not None:
                    faults[k] = f"module action not associative at {a.names[fault[0]]}"
    for k in np.flatnonzero(nonunital).tolist():
        faults[k] = "module action is not unital"
    return faults


def morphism_faults(fam: ModuleFamily, pairs, stacks) -> list[list[Optional[str]]]:
    """Why each map of each stack is not a module map M -> N, or None where it is one.

    stacks[q] holds the maps of the pair q = (k, l), M member k and N member
    l of the family, each a (dim N, dim M) matrix: another shape raises
    ValueError, and a member outside 0 .. count - 1 PreconditionFailed
    "family-index".  A map must preserve degrees, and it must intertwine the
    action of ``generators(A)``, which suffices when both endpoints are
    modules (see ``generators``).  Every map, zero-padded with its endpoints
    by ``ModuleFamily.padded``, goes through one comparison of degrees, then
    one stacked ``intertwine_fault`` over those that preserve degrees, each
    against its own endpoints.  When it finds a fault, they are checked
    again one at a time, which finds the first generator at which each of
    them fails.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    _require_members(fam, pairs)
    a, p = fam.algebra, fam.algebra.p
    gens = generators(a)
    action, degrees = fam.padded(gens)
    sizes = [len(stack) for stack in stacks]
    f = modp.zeros(sum(sizes), degrees.shape[1], degrees.shape[1])
    for (k, l), stack, end in zip(pairs.tolist(), stacks, np.cumsum(sizes).tolist()):
        shape = (len(stack), int(fam.dims[l]), int(fam.dims[k]))
        if np.shape(stack) != shape:
            raise ValueError(f"morphism matrices must have shape (dim N, dim M) = {shape[1:]}")
        f[end - shape[0] : end, : shape[1], : shape[2]] = modp.normalize(stack, p)
    src, tgt = np.repeat(pairs, sizes, axis=0).T
    moved = ((f != 0) & (degrees[tgt][:, :, None] != degrees[src][:, None, :])).any(axis=(1, 2))
    faults = ["morphism does not preserve degrees" if x else None for x in moved.tolist()]
    rest = np.flatnonzero(~moved)
    ends = (action[x[rest]].swapaxes(0, 1) for x in (src, tgt))  # generator j on an end of map q, at [j, q]
    if rest.size and intertwine_fault(f[rest], *ends, gens, p) is not None:
        for i in rest.tolist():
            fault = intertwine_fault(f[i], action[src[i]], action[tgt[i]], gens, p)
            if fault is not None:
                faults[i] = f"morphism does not intertwine {a.names[fault[0]]}"
    return [faults[end - size : end] for size, end in zip(sizes, np.cumsum(sizes).tolist())]


def _require_members(fam: ModuleFamily, index: np.ndarray) -> None:
    """Raise PreconditionFailed "family-index", naming the first entry (row
    of ``index``) that names a member outside 0 .. count - 1 of the family."""
    count = fam.dims.size
    outside = (index < 0) | (index >= count)
    if outside.any():
        q, side = np.argwhere(outside)[0].tolist()
        raise PreconditionFailed("family-index", f"entry {q} names member {index[q, side]} of a family of {count}")


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
    return GradedModule(m.algebra, m.degrees - d, m.action)


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
    """Submodule spanned by ``rows``, as its own module: the action of A on
    the homogeneous RREF basis of the span, read off its pivot columns.

    Raises CheckFailed unless the span is action-stable.
    """
    basis, degs, pivots = homogeneous_row_basis(rows, m.degrees, m.p)
    img = (m.action @ basis.T) % m.p  # img[i]: columns b_i * (basis rows)
    action = img[:, pivots, :]
    if np.any((basis.T @ action - img) % m.p):
        raise CheckFailed("rows do not span an action-stable subspace")
    return GradedModule(m.algebra, degs, action)


def _graded_spans(a: GradedAlgebra, mult: np.ndarray):
    """(degrees, action, basis) of the span of the rows mult[j] e_i, for each
    designated e_i: the rows of ``homogeneous_row_basis`` and the action of
    every mult[k] on them, read off their pivots.  With mult = ``a.left``
    the rows b_j e_i span Ae_i, and with mult = ``a.right`` the rows e_i b_j
    span e_i A, acted on from the right."""
    out = []
    for span in (mult @ a.idempotents.T % a.p).transpose(2, 0, 1):  # span[j] = mult[j] e_i
        basis, degs, pivots = homogeneous_row_basis(span, a.degrees, a.p)
        action = (mult[:, pivots, :] @ basis.T) % a.p
        for arr in (degs, action, basis):
            arr.flags.writeable = False
        out.append((degs, action, basis))
    return out


@cached
def _projectives(a: GradedAlgebra):
    """(degrees, action, basis) of every Ae_i, whose basis rows b_j e_i sit in A (cached)."""
    return _graded_spans(a, a.left)


def proj(a: GradedAlgebra, i: int, d: int = 0) -> GradedModule:
    """The indecomposable projective Ae_i(d)."""
    degs, action, _ = _projectives(a)[i]
    return GradedModule(a, degs - d, action)


@cached
def _injectives(a: GradedAlgebra):
    """(degrees, action) of every D(e_i A): those of e_i A, from the rows
    e_i b_j in A, negated and transposed (cached)."""
    out = []
    for degs, rho, _ in _graded_spans(a, a.right):
        degs = -degs
        degs.flags.writeable = False
        out.append((degs, rho.transpose(0, 2, 1)))
    return out


def inj(a: GradedAlgebra, i: int, d: int = 0) -> GradedModule:
    """The graded injective D(e_i A)(d), with D(eA)_n = D(e A_{-n})."""
    degs, action = _injectives(a)[i]
    return GradedModule(a, degs - d, action)


def simple(a: GradedAlgebra, i: int, d: int = 0) -> GradedModule:
    """The simple top of Ae_i, shifted by d."""
    return shift(tops(ModuleFamily.of(a, [proj(a, i, 0)]))[0], d)


# ---------------------------------------------------------------------------
# hom spaces (degree 0 only; the constructions here never need other degrees)


def _splits(fam: ModuleFamily):
    """A family rewritten in the bases of its split along the designated idempotents e_i, M = sum of the e_i M_g.

    Returns (split, vertices): the family of the same dimensions whose
    member k is member k in that basis, the RREF row basis of each e_i M in
    turn, and the index i of each of its vectors, as ``degrees`` lists
    them.  e_i has degree 0, so the rows of e_i M of degree g are the RREF
    of e_i M_g, homogeneous.  Each batch of ``ModuleFamily.batches``, at
    dim A matrices a member, as many as its products have, goes through one
    ``modp.rrefs`` of every e_i M and one of every [basis.T | I], whose
    basis is padded with the identity to stay invertible, and the product
    (basis.T)^-1 M(b) basis.T on its padded stack.

    Raises CheckFailed, naming the first failing member by its position in
    the family, unless the rows form a basis, as they do when the e_i are
    orthogonal, of degree 0 and of sum 1.
    """
    a, p = fam.algebra, fam.algebra.p
    n = a.n_idempotents
    actions, degrees_of, vertices = [modp.zeros(a.dim, 0)], [modp.zeros(0)], [modp.zeros(0)]
    for first, part, stack, degrees in fam.batches(a.dim):
        count, d = stack.shape[0], stack.shape[2]
        # rows[k, i]: the e_i b_j of member k, one per row j
        rows = (a.idempotents @ stack.reshape(count, a.dim, d * d) % p).reshape(count * n, d, d)
        ech, pivots = modp.rrefs(rows.transpose(0, 2, 1), p)
        # the non-zero RREF rows of e_0 M, e_1 M, ... in turn, then the identity past dim M
        ech = ech.reshape(count, n * d, d)
        order = (~ech.any(axis=2)).argsort(axis=1, kind="stable")[:, :d]
        basis = ech[np.arange(count)[:, None], order]
        inside = np.arange(d) < part.dims[:, None]
        basis += modp.identity(d) * ~inside[:, :, None]
        degs = np.take_along_axis(degrees, (basis != 0).argmax(axis=2), axis=1)
        unit = np.broadcast_to(modp.identity(d), basis.shape)
        inv, full = modp.rrefs(np.concatenate([basis.transpose(0, 2, 1), unit], axis=2), p)
        mixed = ((basis != 0) & (degrees[:, None, :] != degs[:, :, None])).any(axis=(1, 2))
        bad = (pivots.reshape(count, -1).sum(axis=1) != part.dims) | ~full[:, :d].all(axis=1) | mixed
        if bad.any():
            raise CheckFailed(
                f"the idempotents do not split the module into a basis (member {first + int(bad.argmax())})"
            )
        split = inv[:, None, :d, d:] @ stack % p @ basis.transpose(0, 2, 1)[:, None] % p
        actions.append(split.transpose(1, 0, 2, 3)[:, inside[:, :, None] & inside[:, None, :]])
        degrees_of.append(degs[inside])
        vertices.append(order[inside] // d)
    return fam.like(a, np.concatenate(degrees_of), np.concatenate(actions, axis=1)), np.concatenate(vertices)


def _expand(groups, bounds, order):
    """(k, e) for each member e of group groups[k], the group of g being
    order[bounds[g] : bounds[g + 1]]."""
    start, sizes = bounds[groups], bounds[groups + 1] - bounds[groups]
    k = np.repeat(np.arange(groups.size), sizes)
    return k, order[np.repeat(start - (np.cumsum(sizes) - sizes), sizes) + np.arange(k.size)]


def _hom_systems(fam: ModuleFamily, entries, split: bool):
    """The systems N(d)(x) f = f M(x) of the entries (k, l, d), M member k
    and N member l of the family, ``HOM_BATCH`` at a time.

    Yields (stack, unknowns, t, u) for each batch: stack[q] holds the
    equations of its entry q, zero-padded to one shape, whose first
    unknowns[q] columns are the unknowns f[t, u] of that entry, which t and
    u list in turn, entry by entry, t indexing N and u indexing M.

    Each member is written in a frame: a basis with a degree and a vertex
    label for each vector.  The unknowns of an entry are the f[t, u] whose
    labels agree, the label of N(d) being the one of N with the degree moved
    by -d, and the equations are those for x in ``generators(A)``, which cut
    out the module maps (the lemma at ``generators``); A must be
    associative, with p > dim A or this raises PrimeTooSmall.  With ``split``
    the frame is the split of ``_splits``, whose family, of one call, is
    read in place of this one, and which raises CheckFailed if the
    idempotents fail to split a member; without it, it is the member's own
    basis under one vertex label.  N(d) is never
    built: it has the frame and the action of N.  An entry that names a
    member outside 0 .. count - 1 raises PreconditionFailed "family-index"
    before anything is assembled.

    Equation (x, r, s) reads sum_t N(x)[r, t] f[t, s] = sum_u f[r, u]
    M(x)[u, s], so its non-zero entries come from the non-zeros of the
    framed actions, which lie in the family's columns: column t of N(x) for
    the unknown f[t, s], row u of M(x) for f[r, u].
    """
    entries = np.asarray(entries, dtype=np.int64).reshape(-1, 3)
    if not len(entries):
        return
    _require_members(fam, entries[:, :2])
    gens, vert = generators(fam.algebra), np.zeros(fam.degrees.size, dtype=np.int64)
    if split:
        fam, vert = _splits(fam)
    act, deg = fam.action[gens], fam.degrees
    dims = fam.dims
    off = np.cumsum(dims) - dims
    total, most = int(dims.sum()), int(dims.max())
    # all bases in one index; the grids pad with slot `total`, whose vertex
    # differs between the N and the M side, so that it matches nothing
    grid = np.where(np.arange(most) < dims[:, None], off[:, None] + np.arange(most), total)
    deg = np.concatenate([deg, [0]])
    vert_n, vert_m = np.concatenate([vert, [-1]]), np.concatenate([vert, [-2]])
    # the non-zeros (x, r, t) of every framed action, grouped by column t for
    # N(x)[r, t] and by row r for M(x)[u, s], u = r
    gen, cols = np.nonzero(act)
    row, col, val = fam.out[cols], fam.inp[cols], act[gen, cols]
    by_col, by_row = np.argsort(col), np.argsort(row)
    col_bounds = np.searchsorted(col[by_col], np.arange(total + 1))
    row_bounds = np.searchsorted(row[by_row], np.arange(total + 1))
    n_gens = len(gens)
    src, tgt, shifts = entries.T
    for lo in range(0, len(entries), HOM_BATCH):
        part = slice(lo, lo + HOM_BATCH)
        gm, gn, count = grid[src[part]], grid[tgt[part]], len(src[part])
        # the unknowns f[t, u] of entry q: t of N, u of M, under equal labels
        match = (vert_n[gn][:, :, None] == vert_m[gm][:, None, :]) & (
            deg[gn][:, :, None] - shifts[part, None, None] == deg[gm][:, None, :]
        )
        q, it, iu = np.nonzero(match)
        unknowns = np.bincount(q, minlength=count)
        t, u = gn[q, it], gm[q, iu]
        column = np.arange(q.size) - (np.cumsum(unknowns) - unknowns)[q]
        # f[t, s] enters equation (x, r, s) with N(x)[r, t], and f[r, u]
        # enters it with -M(x)[u, s]
        ka, ea = _expand(t, col_bounds, by_col)
        kb, eb = _expand(u, row_bounds, by_row)
        k = np.concatenate([ka, kb])
        qk = q[k]
        r = np.concatenate([row[ea], t[kb]]) - off[tgt[part]][qk]
        s = np.concatenate([u[ka], col[eb]]) - off[src[part]][qk]
        x = gen[np.concatenate([ea, eb])]
        key = ((qk * n_gens + x) * most + r) * most + s
        eqs, eq = np.unique(key, return_inverse=True)
        per = np.bincount(eqs // (n_gens * most * most), minlength=count)
        eq -= (np.cumsum(per) - per)[qk]
        stack = np.zeros((count, int(per.max()), int(unknowns.max())), dtype=np.int64)
        np.add.at(stack, (qk, eq, column[k]), np.concatenate([val[ea], -val[eb]]))
        yield stack, unknowns, t - off[tgt[part]][q], u - off[src[part]][q]


def hom_dims(fam: ModuleFamily, entries) -> list[int]:
    """dim Hom(M, N(d)) of degree-preserving module maps, for each entry
    (k, l, d), M member k and N member l of the family.

    The designated idempotents e_i are orthogonal, have degree 0 and sum to
    1, so M is the direct sum of the spaces e_i M_g, and so is N.  A module
    map f of degree 0 commutes with every e_i, so f(e_i M_g) lies in e_i N_g:
    in the bases of ``_splits``, which follow these sums, every map is block
    diagonal, with a block for each label (g, i).  So the systems of
    ``_hom_systems`` in the split frames have the module maps as solutions,
    with far fewer unknowns than in the modules' own bases, and the
    dimension is the number of unknowns less the rank, from one
    ``modp.ranks`` per batch.  Each member is split once, however many
    entries name it or shift it.  The split raises CheckFailed if the
    idempotents fail one of the three facts.
    """
    out: list[int] = []
    for stack, unknowns, _, _ in _hom_systems(fam, entries, split=True):
        out += (unknowns - modp.ranks(stack, fam.algebra.p)).tolist()
    return out


def hom_bases(fam: ModuleFamily, pairs) -> list[np.ndarray]:
    """A basis of the degree-preserving module maps M -> N, for each pair
    (k, l), M member k and N member l of the family: a stack of
    (dim N, dim M) matrices.

    The systems of ``_hom_systems`` in the members' own bases, whose
    unknowns are the entries f[t, u] with deg N_t = deg M_u in row-major
    order, go through one ``modp.rrefs`` per batch, and each kernel basis is
    formed from the RREF as ``modp.rank_kernel`` forms it: a vector for
    each free column, 1 there, the pivot entries read off the RREF.  The
    generators cut out the same maps as every basis element, so the system
    has the row space, and the RREF, of the one over all of A, and the
    bases are those of that system.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    p, out = fam.algebra.p, []
    systems = _hom_systems(fam, np.column_stack([pairs, np.zeros(len(pairs), dtype=np.int64)]), split=False)
    for lo, (stack, unknowns, t, u) in zip(range(0, len(pairs), HOM_BATCH), systems):
        rows, pivots = modp.rrefs(stack, p)
        ends = np.cumsum(unknowns).tolist()
        for q, ((k, l), size, end) in enumerate(zip(pairs[lo : lo + HOM_BATCH].tolist(), unknowns.tolist(), ends)):
            pivot = pivots[q, :size]
            free = np.flatnonzero(~pivot)
            ker = modp.zeros(free.size, size)
            ker[np.arange(free.size), free] = 1
            ker[:, pivot] = -rows[q, : size - free.size][:, free].T % p
            maps = modp.zeros(free.size, fam.dims[l], fam.dims[k])
            maps[:, t[end - size : end], u[end - size : end]] = ker
            out.append(maps)
    return out


def hom_basis(m: GradedModule, n: GradedModule) -> list[GradedMorphism]:
    """Basis of the degree-preserving module maps M -> N: ``hom_bases`` on one pair."""
    return [GradedMorphism(m, n, f) for f in hom_bases(ModuleFamily.of(m.algebra, [m, n]), [(0, 1)])[0]]


# ---------------------------------------------------------------------------
# simples, tops, projective covers


@cached
def simple_classes(a: GradedAlgebra):
    """Partition designated idempotents into isomorphism classes (cached).

    Returns (reps, class_of, corners): representative index per class, the
    class index of every designated idempotent, and for each representative
    r lifts of a basis of e_r S e_r, S = A/rad(A) (the RREF rows of the
    e_r b e_r, b in S), which act on any top as e_r A e_r does.  There are
    dim End(S_r) of them, as e_r S e_r is End(S_r)^op.  e_i and e_j are
    isomorphic iff e_i S e_j != 0.  All of it is read off the corner pass
    of S, ``algebra._corner_pass``, which primitivity shares.
    """
    s, _, sec = semisimple_quotient(a)
    nonzero, rows, pivots = _corner_pass(s)
    reps: list[int] = []
    class_of = [-1] * a.n_idempotents
    for i in range(a.n_idempotents):
        for ci, r in enumerate(reps):
            if nonzero[i, r]:  # S is semisimple, so then nonzero[r, i] too
                class_of[i] = ci
                break
        else:
            class_of[i] = len(reps)
            reps.append(i)
    corners = []
    for basis, rank in zip(rows[reps], pivots[reps].sum(axis=1).tolist()):
        lifted = basis[:rank] @ sec.T
        lifted.flags.writeable = False
        corners.append(lifted)
    return reps, class_of, corners


def _top_pass(first: int, fam: ModuleFamily, stack: np.ndarray, degs: np.ndarray):
    """The tops of one batch of the cover pass, from ``ModuleFamily.batches``:
    its member k is member first + k of the family.

    Returns (act_t, sec, top_act, top_degs, n_free), zero-padded stacks:
    act_t[k, b] is the transpose of M_k(b); top(M_k) = M_k / rad(A) M_k has
    dimension n_free[k], its basis is the unit vectors of the free columns of
    the RREF of rad(A) M_k, of which sec[k] is the section into M_k and
    top_degs[k] the degrees, and top_act[k, b] is the action of b on it.

    1. One ``modp.rrefs`` of the non-zero rows spanning rad(A) M gives the
       free columns and the map reducing M onto them.
    2. rad(A) M is action-stable iff the reduction kills the image of every
       RREF row under A, and then b acts on the top as the reduction of M(b)
       on the section.  Raises CheckFailed, naming the first failing module
       by its position in the family, unless it is stable.
    """
    a, p = fam.algebra, fam.algebra.p
    count, n, d = len(stack), a.dim, stack.shape[2]
    act_t = np.ascontiguousarray(stack.transpose(0, 1, 3, 2))  # act_t[k, b]: the transpose of M_k(b)

    # 1. rad(A) M, spanned by the columns of every M(r), r in rad(A), of which
    # only the non-zero ones enter the elimination
    rad = radical(a)
    rows = rad @ act_t.reshape(count, n, d * d)
    rows %= p
    rows = rows.reshape(count, len(rad) * d, d)
    live = rows.any(axis=2)
    order = (~live).argsort(axis=1, kind="stable")[:, : int(live.sum(axis=1).max(initial=0))]
    basis, pivots = modp.rrefs(rows[np.arange(count)[:, None], order], p)
    del rows  # as large as the action stack, and not needed again
    free = ~pivots & (np.arange(d) < fam.dims[:, None])
    n_free = free.sum(axis=1)
    f = int(n_free.max())
    free_cols = (~free).argsort(axis=1, kind="stable")[:, :f]
    unit = modp.identity(d)
    sec = unit[free_cols].transpose(0, 2, 1) * (np.arange(f) < n_free[:, None])[:, None]
    # row i of picks picks the pivot of basis row i
    picks = unit[(~pivots).argsort(axis=1, kind="stable")] * (basis != 0).any(axis=2)[:, :, None]
    # reduce: v on the free columns, less the basis rows weighted by v's pivots
    red = sec.transpose(0, 2, 1) @ ((unit - basis.transpose(0, 2, 1) @ picks) % p) % p

    # 2. stability, then the top actions
    lowered = red[:, None] @ stack % p
    stray = (lowered @ basis.transpose(0, 2, 1)[:, None] % p).any(axis=(1, 2, 3))
    if stray.any():
        raise CheckFailed(
            f"rows do not span an action-stable subspace (rad(A) M of member {first + int(stray.argmax())})"
        )
    top_degs = degs[np.arange(count)[:, None], free_cols]
    return act_t, sec, lowered @ sec[:, None] % p, top_degs, n_free


def tops(fam: ModuleFamily) -> list[GradedModule]:
    """top(M) = M / rad(A) M of each member of a family, as a module in its own right.

    Its basis is the unit vectors of the free columns of the RREF of
    rad(A) M, with their degrees in M, and b acts on it as the reduction of
    M(b) onto those columns: the first steps of the cover pass, in its
    batches (see ``_top_pass``).  Raises CheckFailed, naming the first
    failing member by its position in the family, unless rad(A) M is
    action-stable.
    """
    out = []
    for batch in fam.batches(fam.algebra.dim):
        _, _, top_act, top_degs, n_free = _top_pass(*batch)
        out += [GradedModule(fam.algebra, top_degs[k, :f], top_act[k, :, :f, :f]) for k, f in enumerate(n_free)]
    return out


def cover_maps(fam: ModuleFamily) -> list[tuple[list[tuple[int, int]], np.ndarray]]:
    """The minimal projective cover P -> M of each member of a family, without building P.

    Returns (summands, K) for each member, in order: the (idempotent index,
    degree) pair of each indecomposable summand Ae_r(-g) of P, by class,
    then by degree, and the (dim M, dim P) matrix K of the cover map in the
    basis of P that ``projective_cover`` builds.  The summands are those of
    top(M): per class and degree, the RREF rows w of e_r top(M)_g are taken
    in turn, and one starts a new summand S_r(-g) only outside the span of
    those found so far.  The summand of w is e_r A e_r w, not F_p w:
    End(S_r) may be a larger field, and then one summand holds several
    F_p-independent vectors.  Each summand has a lift v in e_r M_g of its
    w, and K sends x in Ae_r(-g) to x v.  K is onto by Nakayama's lemma: its
    image N is a submodule that maps onto top(M), so N + rad(A) M = M, and
    then rad(A)^j M lies in N + rad(A)^(j+1) M for every j, so M = N, as
    rad(A) is nilpotent.

    Each batch of ``ModuleFamily.batches``, at dim A matrices a member,
    goes through a few steps, each on zero-padded stacks:

    1. the tops of ``_top_pass``, with its check that rad(A) M is
       action-stable;
    2. one ``modp.rrefs`` of e_r top(M) for each module and each class r
       with a vector there gives the candidates w;
    3. the summands, where only the classes whose End(S_r) is larger than
       F_p test the span of the orbits: where it is F_p, e_r A e_r acts on
       e_r top(M) by scalars, so every candidate starts a summand;
    4. K from the lifts;
    5. one ``modp.ranks`` of every K.

    Raises CheckFailed, naming the first failing member by its position in
    the family, unless rad(A) M is action-stable and K is onto; K can fail
    to be onto only when the radical is wrong.
    """
    out = []
    for batch in fam.batches(fam.algebra.dim):
        out += _covers(*batch)
    return out


def _covers(first: int, fam: ModuleFamily, stack: np.ndarray, degs: np.ndarray):
    """(summands, K) for each member of one batch of ``cover_maps``,
    whose member k is member first + k of the family."""
    a, p = fam.algebra, fam.algebra.p
    act_t, sec, top_act, top_degs, n_free = _top_pass(first, fam, stack, degs)
    reps, _, corners = simple_classes(a)
    count, n, d, f = len(stack), a.dim, stack.shape[2], top_act.shape[2]
    dims = fam.dims

    # 2. the candidates, the RREF rows of each e_r top(M)
    ide = a.idempotents[reps]
    e_top = ((ide @ top_act.reshape(count, n, f * f)) % p).reshape(count, len(reps), f, f)
    kk, cc = e_top.any(axis=(2, 3)).nonzero()  # (module, class) with a vector
    cands, cand_pivots = modp.rrefs(e_top[kk, cc].transpose(0, 2, 1), p)
    ce, cj = (np.arange(f) < cand_pivots.sum(axis=1)[:, None]).nonzero()  # (entry, RREF row)
    g = top_degs[kk[ce], (~cand_pivots).argsort(axis=1, kind="stable")[ce, cj]]
    order = np.lexsort((cj, g, ce))  # by module and class, then degree, then RREF order
    ce, cj, g = ce[order], cj[order], g[order]

    # 3. a candidate starts a summand unless e_r A e_r times those before spans it
    keep = np.ones(ce.size, dtype=bool)
    for e in np.flatnonzero([len(corners[c]) > 1 for c in cc.tolist()]):
        nf = int(n_free[kk[e]])
        corner_mats = np.tensordot(corners[cc[e]], top_act[kk[e], :, :nf, :nf], axes=1) % p
        for deg in np.unique(g[ce == e]).tolist():
            spanned, spiv = modp.zeros(0, nf), []
            for i in np.flatnonzero((ce == e) & (g == deg)).tolist():
                w = cands[e, cj[i], :nf]
                if modp.in_row_span(spanned, spiv, w, p):
                    keep[i] = False
                    continue
                orbit = (corner_mats @ w) % p  # the summand e_r A e_r w
                spanned, spiv = modp.row_basis(np.vstack([spanned, orbit]), p)
    ce, cj, g = ce[keep], cj[keep], g[keep]
    ks, cs = kk[ce], cc[ce]
    e_mod_t = ((ide @ act_t.reshape(count, n, d * d)) % p).reshape(count, len(reps), d, d)
    lifts = (((sec[ks] @ cands[ce, cj, :, None]) % p).transpose(0, 2, 1) @ e_mod_t[ks, cs] % p)[:, 0]

    # 4. K, stacked as K^T: the rows of summand Ae_r(-g) are the b v, b in the basis of Ae_r
    bounds = ks.searchsorted(np.arange(count + 1))
    slot = np.arange(ks.size) - bounds[ks]  # the place of each lift among its module's
    by_module = modp.zeros(count, d, int(slot.max(initial=-1)) + 1)
    by_module[ks, :, slot] = lifts
    images = (stack @ by_module[:, None] % p)[ks, :, :, slot]  # images[s, b]: b v_s
    sizes = np.array([len(_projectives(a)[reps[c]][2]) for c in cs.tolist()], dtype=np.int64)
    start = sizes.cumsum() - sizes
    start -= start[bounds[ks]]  # from the first row of the module
    heights = np.bincount(ks, sizes, minlength=count).astype(np.int64)
    k_t = modp.zeros(count, int(heights.max()), d)
    for c in sorted(set(cs.tolist())):
        at = (cs == c).nonzero()[0]
        made = _projectives(a)[reps[c]][2] @ images[at] % p
        k_t[ks[at, None], start[at, None] + np.arange(made.shape[1])] = made

    # 5. K must be onto
    short = modp.ranks(k_t, p) != dims
    if short.any():
        raise CheckFailed(f"projective cover map is not surjective (member {first + int(short.argmax())})")
    out = []
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        summands = [(reps[c], x) for c, x in zip(cs[lo:hi].tolist(), g[lo:hi].tolist())]
        out.append((summands, k_t[k, : heights[k], : dims[k]].T.copy()))
    return out


def _cover_module(a: GradedAlgebra, summands) -> GradedModule:
    parts = [proj(a, r, -g) for r, g in summands]
    return direct_sum(parts) if parts else zero_module(a)


def projective_cover(m: GradedModule):
    """Minimal projective cover P -> M: ``cover_maps`` on M alone, with P built.

    Returns (P, K, summands) where K is the (dim M, dim P) matrix of the
    cover map and summands lists one (idempotent index, degree) pair per
    indecomposable summand Ae_i(-g) of P.
    """
    summands, K = cover_maps(ModuleFamily.of(m.algebra, [m]))[0]
    return _cover_module(m.algebra, summands), K, summands


def syzygies(fam: ModuleFamily) -> list[GradedModule]:
    """The kernel of the minimal projective cover of each member, as a module
    in its own right, from one ``cover_maps`` call; a zero module is its own."""
    a, live = fam.algebra, fam.dims > 0
    covers = iter(cover_maps(fam.select(live)))
    out = []
    for alive in live.tolist():
        if alive:
            summands, K = next(covers)
            _, ker = modp.rank_kernel(K, a.p)
            out.append(submodule(_cover_module(a, summands), ker))
        else:
            out.append(zero_module(a))
    return out


def syzygy(m: GradedModule) -> GradedModule:
    """Kernel of the minimal projective cover, as a module in its own right."""
    return syzygies(ModuleFamily.of(m.algebra, [m]))[0]
