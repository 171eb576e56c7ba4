"""Algebra-level constructions: block algebras, duals, trivial extensions.

Block conventions (0-indexed, c = top degree of the source):

* the block algebra b(A) is upper triangular, entry (r, s) holding the
  component A_{s-r} for r <= s;
* its complementary bimodule x(A) is lower triangular inclusive, entry
  (r, s) holding A_{c+s-r} for r >= s, with both actions given by block
  matrix multiplication;

so each row of the combined grid carries each of A_0 .. A_c exactly once,
which is the canonical counting test (dim t(A) = c * dim A).

``block_layout`` records which basis element of A sits in which block as two
read-only int64 arrays of rows (row, col, source index), b(A) first, then
x(A); their order is the basis order of b(A), x(A) and t(A).  Everything
built on the grid is a gather over these arrays: the structure constants
of b(A) and both actions on x(A) are A's table at the source indices,
masked to the block products (row, k)(k, col) -> (row, col).

Trivial extensions B |x X put B in degree 0 and X in degree 1 with product
(b, m)(b', m') = (b b', b m' + m b').  Each is checked on the structure
constants it builds: X's unit checks, then the associativity join of
``algebra.bimodule_extension``, the one routine that assembles an
extension and names the law its first failing triple breaks.  That join
decides at once that B is associative and that X is a B-bimodule, so t(A)
and T(B) are built without the radical or the generators of B, and
``Bimodule.validate`` is the same join.  The dual bimodule D(B) acts by
(b f)(x) = f(x b), (f b)(x) = f(b x); the sigma-twisted variant
precomposes the right action with the automorphism before dualizing, so
D(B^sigma) acts by (b f)(x) = f(x sigma(b)).  It is a bimodule iff sigma
is an automorphism, which ``equiv._sigma_of`` decides by conjugating a
known bimodule onto it and ``AlgebraAutomorphism.validate`` by the join of
B |x D(B^sigma).
"""

from __future__ import annotations

import numpy as np

from . import modp
from .algebra import (
    _LAWS,
    Bimodule,
    GradedAlgebra,
    bimodule_extension,
    cached,
    degree_zero_subalgebra,
)
from .errors import (
    ActionFault,
    GradingViolation,
    NotAutomorphism,
    PrimeTooSmall,
    TrivialGrading,
    ZeroBimodule,
)


class AlgebraAutomorphism:
    """Degree-preserving algebra automorphism, stored as a coordinate matrix."""

    __slots__ = ("algebra", "matrix", "inverse", "_cache")

    def __init__(self, algebra: GradedAlgebra, matrix):
        self.algebra = algebra
        self.matrix = modp.normalize(matrix, algebra.p).reshape(algebra.dim, algebra.dim)
        inv = modp.invert(self.matrix, algebra.p)
        if inv is None:
            raise NotAutomorphism("matrix is singular")
        self.inverse = inv
        self.matrix.flags.writeable = False
        self.inverse.flags.writeable = False
        self._cache = {}

    @cached
    def power(self, k: int) -> np.ndarray:
        """sigma^k as a read-only matrix, computed once per exponent."""
        base = self.matrix if k >= 0 else self.inverse
        out = modp.mat_pow(base, abs(k), self.algebra.p)
        out.flags.writeable = False
        return out

    def validate(self) -> "AlgebraAutomorphism":
        """Raise NotAutomorphism unless this is a degree-preserving algebra automorphism.

        After the degrees, the join of A |x D(A^sigma) (``bimodule_extension``)
        decides it, for any A and p: D(A^sigma) is a bimodule iff sigma is an
        automorphism of an associative unital A, as its left action is unital
        iff sigma(1) = 1 and associative iff sigma is multiplicative (see
        ``twisted_dual_bimodule``).  A unit fault reads "does not fix the
        unit", a broken left law "is not multiplicative at b"; any other
        refusal, such as a non-associative A, is the join's own.
        """
        a, s = self.algebra, self.matrix
        if np.any((s != 0) & (a.degrees[:, None] != a.degrees[None, :])):
            raise NotAutomorphism("does not preserve degrees")
        x = twisted_dual_bimodule(a, self)
        if x.unit_fault() is not None:
            raise NotAutomorphism("does not fix the unit")
        try:
            bimodule_extension(x)
        except ActionFault as exc:
            if not str(exc).startswith(_LAWS[2]):
                raise
            raise NotAutomorphism(str(exc).replace(_LAWS[2], "is not multiplicative", 1)) from None
        return self


# ---------------------------------------------------------------------------
# block layout shared by b(A), x(A) and the functors in equiv


@cached
def block_layout(a: GradedAlgebra):
    """The block grid of b(A) and x(A) as index arrays (cached, read-only).

    Returns (b_rows, x_rows): int64 arrays whose rows are (row, col, source
    basis index), with row and col in 0..c-1; the basis order of every
    construction downstream is exactly the order of these rows.  Row r of
    the grid is the basis of A sorted by degree: an element of degree
    d < c - r sits in b(A) at col r + d, any other in x(A) at col r + d - c.
    """
    c = a.top_degree()
    if c < 1:
        raise TrivialGrading("block constructions need top degree >= 1")
    order = np.argsort(a.degrees, kind="stable")
    deg = a.degrees[order]
    in_b = np.arange(c)[:, None] + deg < c
    layouts = []
    for mask, offset in ((in_b, 0), (~in_b, c)):
        r, k = np.nonzero(mask)
        rows = np.column_stack([r, r + deg[k] - offset, order[k]]).astype(np.int64)
        rows.flags.writeable = False
        layouts.append(rows)
    return tuple(layouts)


def _block_products(a: GradedAlgebra, lhs, rhs, out) -> np.ndarray:
    """T[l, r, o], the coefficient of out[o] in lhs[l] * rhs[r], for layout rows.

    Blocks multiply as matrix entries: (row, k)(k, col) lands in block
    (row, col).  No degree mask is needed, because the product of A vanishes
    outside the degree of that block.
    """
    # one axis at a time: the same gather as np.ix_, three times faster here
    prods = a.table[lhs[:, 2]][:, rhs[:, 2]][:, :, out[:, 2]]
    meets = (lhs[:, 1, None] == rhs[:, 0])[:, :, None]
    lands = (out[:, 0] == lhs[:, 0, None, None]) & (out[:, 1] == rhs[:, 1, None])
    prods *= meets & lands
    return prods


def beilinson(a: GradedAlgebra) -> GradedAlgebra:
    """The c x c upper-triangular block algebra of ``a``, trivially graded.

    Designated idempotents are the diagonal refinements {e_rr e_i}, ordered
    by (r, i).
    """
    c = a.top_degree()
    b_rows, _ = block_layout(a)
    nb = len(b_rows)
    if a.p <= nb:
        raise PrimeTooSmall(f"prime {a.p} must exceed dim b(A) = {nb}")
    table = _block_products(a, b_rows, b_rows, b_rows)
    names = [f"b[{r},{s}]{a.names[j]}" for r, s, j in b_rows.tolist()]
    row, col, src = b_rows.T
    diag = row == col
    unit = np.where(diag, a.unit[src], 0)
    idems = np.where(diag & (row == np.arange(c)[:, None, None]), a.idempotents[:, src], 0)
    return GradedAlgebra(a.p, names, np.zeros(nb, dtype=np.int64), table, unit, idems.reshape(-1, nb))


def x_bimodule(a: GradedAlgebra) -> Bimodule:
    """The complementary block bimodule over beilinson(a)."""
    b_rows, x_rows = block_layout(a)
    b_alg = beilinson(a)
    # left[t, o, u] is the coefficient of x_o in b_t x_u, right[t, o, u] that in x_u b_t
    left = _block_products(a, b_rows, x_rows, x_rows).transpose(0, 2, 1)
    right = _block_products(a, x_rows, b_rows, x_rows).transpose(1, 2, 0)
    names = [f"x[{r},{s}]{a.names[j]}" for r, s, j in x_rows.tolist()]
    return Bimodule(b_alg, names, left, right)


# ---------------------------------------------------------------------------
# trivial extensions


def trivial_extension(b: GradedAlgebra, x: Bimodule) -> GradedAlgebra:
    """B |x X, B in degree 0 (and cached as the degree-0 part) and X in degree 1.

    Refuses, in this order, a graded B (GradingViolation), an X over another
    algebra, a zero X (ZeroBimodule), a prime p <= dim B |x X
    (PrimeTooSmall) and an X whose unit does not act as the identity
    (ActionFault).  Then ``bimodule_extension`` builds the extension and its
    join decides that B is associative and X a B-bimodule, refusing the
    first failing triple: ActionFault for a law of X, NonAssociative for a
    triple inside B.
    """
    if b.top_degree() != 0:
        raise GradingViolation("trivial extensions here require B trivially graded")
    if not x.algebra.same_as(b):
        raise ActionFault("bimodule is not over the given algebra")
    if x.dim == 0:
        raise ZeroBimodule("trivial extension by the zero bimodule is trivially graded")
    n = b.dim + x.dim
    if b.p <= n:
        raise PrimeTooSmall(f"prime {b.p} must exceed dim {n}")
    fault = x.unit_fault()
    if fault is not None:
        raise ActionFault(fault)
    t = bimodule_extension(x)
    degree_zero_subalgebra.record(t, b)  # equal to the one it would build
    return t


def dual_bimodule(b: GradedAlgebra) -> Bimodule:
    """D(B): left action transposes right regular action and vice versa,
    the arrays ``twisted_dual_bimodule`` gives at sigma = id."""
    return Bimodule(b, [f"{s}^" for s in b.names], b.left.transpose(2, 0, 1), b.table)


def twisted_dual_bimodule(b: GradedAlgebra, sigma: AlgebraAutomorphism) -> Bimodule:
    """D(B^sigma): the twisted regular bimodule x * b = x sigma(b), dualized.

    The twist only moves the dual's left action: (b f)(x) = f(x sigma(b)).
    With sigma = id this reproduces dual_bimodule exactly.  sigma is not
    checked here: a sigma that does not fix 1 leaves the left action not
    unital, and one that is not multiplicative leaves it not associative, as
    (b (b' f))(x) = f(x sigma(b) sigma(b')) and ((b b') f)(x) =
    f(x sigma(b b')).  ``equiv._sigma_of`` decides that with its iso onto
    this bimodule, and ``AlgebraAutomorphism.validate`` with the join.
    """
    if not sigma.algebra.same_as(b):
        raise NotAutomorphism("automorphism is not over the given algebra")
    left = (b.left @ sigma.matrix).transpose(2, 0, 1)  # left[i] = R(sigma(b_i))^T
    return Bimodule(b, [f"{s}^" for s in b.names], left, b.table)


@cached
def t_of(a: GradedAlgebra) -> GradedAlgebra:
    """t(A) = b(A) |x x(A), built once per algebra."""
    x = x_bimodule(a)
    return trivial_extension(x.algebra, x)


def T_of(b: GradedAlgebra) -> GradedAlgebra:
    """T(B) = B |x D(B)."""
    return trivial_extension(b, dual_bimodule(b))
