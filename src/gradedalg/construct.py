"""Algebra-level constructions: block algebras, duals, trivial extensions.

Block conventions (0-indexed, c = top degree of the source):

* the block algebra b(A) is upper triangular, entry (r, s) holding the
  component A_{s-r} for r <= s;
* its complementary bimodule x(A) is lower triangular inclusive, entry
  (r, s) holding A_{c+s-r} for r >= s, with both actions given by block
  matrix multiplication;

so each row of the combined grid carries each of A_0 .. A_c exactly once,
which is the canonical counting test (dim t(A) = c * dim A).

Trivial extensions B |x X put B in degree 0 and X in degree 1 with product
(b, m)(b', m') = (b b', b m' + m b').  The dual bimodule D(B) acts by
(b f)(x) = f(x b), (f b)(x) = f(b x); the sigma-twisted variant precomposes
the right action with the automorphism before dualizing.
"""

from __future__ import annotations

import numpy as np

from . import modp
from .algebra import (
    Bimodule,
    GradedAlgebra,
    cached,
    dual_bimodule_of,
    intertwine_fault,
    regular_bimodule,
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

    @classmethod
    def identity(cls, algebra: GradedAlgebra) -> "AlgebraAutomorphism":
        return cls(algebra, modp.identity(algebra.dim))

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return (self.matrix @ (v % self.algebra.p)) % self.algebra.p

    @cached
    def power(self, k: int) -> np.ndarray:
        """sigma^k as a read-only matrix, computed once per exponent."""
        base = self.matrix if k >= 0 else self.inverse
        out = modp.mat_pow(base, abs(k), self.algebra.p)
        out.flags.writeable = False
        return out

    def validate(self) -> "AlgebraAutomorphism":
        a, s, p = self.algebra, self.matrix, self.algebra.p
        if not np.array_equal(s @ a.unit % p, a.unit):
            raise NotAutomorphism("does not fix the unit")
        if np.any((s != 0) & (a.degrees[:, None] != a.degrees[None, :])):
            raise NotAutomorphism("does not preserve degrees")
        # L(sigma(b_i)) sigma == sigma L(b_i) on every basis element
        i = intertwine_fault(s, a.left, np.einsum("ki,kab->iab", s, a.left) % p, p)
        if i is not None:
            raise NotAutomorphism(f"not multiplicative at {a.names[i]}")
        return self


# ---------------------------------------------------------------------------
# block layout shared by b(A), x(A) and the functors in equiv


@cached
def block_layout(a: GradedAlgebra):
    """Index lists for the block algebra and bimodule of ``a`` (cached).

    Returns (b_index, x_index): each entry is (row, col, source basis index),
    rows/cols in 0..c-1; the basis order of every construction downstream is
    exactly the order of these lists.
    """
    c = a.top_degree()
    if c < 1:
        raise TrivialGrading("block constructions need top degree >= 1")
    b_index = [
        (r, s, int(j))
        for r in range(c)
        for s in range(r, c)
        for j in a.degree_indices(s - r)
    ]
    x_index = [
        (r, s, int(j))
        for r in range(c)
        for s in range(r + 1)
        for j in a.degree_indices(c + s - r)
    ]
    return b_index, x_index


def beilinson(a: GradedAlgebra) -> GradedAlgebra:
    """The c x c upper-triangular block algebra of ``a``, trivially graded.

    Designated idempotents are the diagonal refinements {e_rr e_i}, ordered
    by (r, i).
    """
    c = a.top_degree()
    b_index, _ = block_layout(a)
    pos = {key: t for t, key in enumerate(b_index)}
    nb = len(b_index)
    if a.p <= nb:
        raise PrimeTooSmall(f"prime {a.p} must exceed dim b(A) = {nb}")
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
    return GradedAlgebra(a.p, names, np.zeros(nb, dtype=np.int64), table, unit, idems)


def x_bimodule(a: GradedAlgebra) -> Bimodule:
    """The complementary block bimodule over beilinson(a)."""
    b_index, x_index = block_layout(a)
    bpos = {key: t for t, key in enumerate(b_index)}
    xpos = {key: t for t, key in enumerate(x_index)}
    nb, nx = len(b_index), len(x_index)
    b_alg = beilinson(a)
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
    return Bimodule(b_alg, names, left, right)


# ---------------------------------------------------------------------------
# trivial extensions


def trivial_extension(b: GradedAlgebra, x: Bimodule) -> GradedAlgebra:
    """B |x X with B in degree 0 and X in degree 1 (so X * X = 0)."""
    if b.top_degree() != 0:
        raise GradingViolation("trivial extensions here require B trivially graded")
    if not x.algebra.same_as(b):
        raise ActionFault("bimodule is not over the given algebra")
    if x.dim == 0:
        raise ZeroBimodule("trivial extension by the zero bimodule is trivially graded")
    x.validate()
    nb, nx = b.dim, x.dim
    n = nb + nx
    if b.p <= n:
        raise PrimeTooSmall(f"prime {b.p} must exceed dim {n}")
    table = modp.zeros(n, n, n)
    table[:nb, :nb, :nb] = b.table
    for i in range(nb):
        table[i, nb:, nb:] = x.left_action[i].T
        table[nb:, i, nb:] = x.right_action[i].T
    names = list(b.names) + list(x.names)
    if len(set(names)) != n:
        names = list(b.names) + [f"X.{s}" for s in x.names]
    degrees = np.concatenate([np.zeros(nb, dtype=np.int64), np.ones(nx, dtype=np.int64)])
    unit = np.concatenate([b.unit, modp.zeros(nx)])
    idems = np.hstack([b.idempotents, modp.zeros(b.n_idempotents, nx)])
    return GradedAlgebra(b.p, names, degrees, table, unit, idems)


def dual_bimodule(b: GradedAlgebra) -> Bimodule:
    """D(B): left action transposes right regular action and vice versa."""
    return dual_bimodule_of(regular_bimodule(b))


def twisted_dual_bimodule(b: GradedAlgebra, sigma: AlgebraAutomorphism) -> Bimodule:
    """D(B^sigma): the twisted regular bimodule x * b = x sigma(b), dualized.

    The twist only moves the dual's left action: (b f)(x) = f(x sigma(b)).
    With sigma = id this reproduces dual_bimodule exactly.
    """
    if not sigma.algebra.same_as(b):
        raise NotAutomorphism("automorphism is not over the given algebra")
    sigma.validate()
    p = b.p
    left = modp.zeros(b.dim, b.dim, b.dim)
    for i in range(b.dim):
        left[i] = b.right_mult(sigma.matrix[:, i]).T
    right = np.ascontiguousarray(b.left.transpose(0, 2, 1))
    return Bimodule(b, [f"{s}^" for s in b.names], left, right % p)


@cached
def t_of(a: GradedAlgebra) -> GradedAlgebra:
    """t(A) = b(A) |x x(A), built once per algebra."""
    x = x_bimodule(a)
    return trivial_extension(x.algebra, x)


def T_of(b: GradedAlgebra) -> GradedAlgebra:
    """T(B) = B |x D(B)."""
    return trivial_extension(b, dual_bimodule(b))


def T_twisted(b: GradedAlgebra, sigma: AlgebraAutomorphism) -> GradedAlgebra:
    """T(B^sigma) = B |x D(B^sigma)."""
    return trivial_extension(b, twisted_dual_bimodule(b, sigma))
