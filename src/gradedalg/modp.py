"""Dense exact linear algebra over a prime field F_p.

Vectors are 1-d int64 numpy arrays with entries reduced into [0, p);
matrices are 2-d arrays, row-major.  Every routine is a pure function and
returns fresh arrays, so results can be shared freely between threads.

Two kinds of kernel multiply residues:

* ``dot`` multiplies in float64 through BLAS, exactly: a sum of at most
  ``block_len(p)`` = (2^53 - 1) // (p - 1)^2 products of residues stays
  below 2^53, and longer inner dimensions are reduced blockwise (the
  delayed reduction of FFLAS-FFPACK, Dumas, Giorgi and Pernet, ACM TOMS
  35(3), 2008).  ``mat_mul`` uses it, and so does the multiplication check
  of module actions, module maps and theta, ``algebra.intertwine_fault``,
  which reads only the rows it is given (those of ``algebra.generators``
  for modules and maps) and hands ``dot`` a chunk of consecutive rows per
  product, a stack of one matrix per row, as many as keep the product
  within ``algebra.COVER_CELLS`` entries, and at least one.  Results are
  reduced by casting to int64 and taking ``%``: every value is an integer
  below 2^53 in magnitude;
* everything else (row reduction, and the einsum, tensordot and matmul
  contractions such as the trace form) sums in int64, which is exact while
  the inner dimension is at most ``MAX_INNER``.  Each such sum runs over
  one basis, of an algebra or of a module, so its length is a dimension.

The associativity check of ``algebra.validate_algebra`` is an int64 join
of the n-dimensional algebra's non-zero structure constants.  Each product
of two residues is below p^2 <= 2^40 and is reduced before any sum, and
each sum has at most 2n terms, n from each side of the associative law.
Each reduced product, below 2^b for b the bit length of p - 1 (at most
20), is packed with its key as key * 2^b + product, the key taken relative
to the first i of its block and so below span n^3 when the block spans
``span`` consecutive i.  A block spans at most 2^63 // (n^3 2^b) of them,
and at least one, so every packed value is below 2^63 while
n^3 2^b <= 2^63: for every n up to 20,642 at the largest accepted prime,
far past any whose dense structure table (n^3 int64 entries, 70 TB at
that n) fits in memory.

Row reduction is plain Gauss-Jordan on dense arrays: all inputs in this
project are desk-scale (dimension a few hundred at most).  There are two
eliminations.  ``rref`` reduces one matrix, each pivot step touching only
the rows with a non-zero entry in the pivot column; it stays, as a stack of
one costs 2-4 times as much, its every step updating every row.  ``_eliminate``
runs over a zero-padded stack of matrices in one pass; ``ranks`` reads its
pivots, for ``modules.hom_dims``, and ``rrefs`` its echelon rows, for the
covers and splits of ``modules``.  Each of its steps forms products of two
residues, each below p^2 <= 2^40, subtracts one from another and reduces
the result before the next step, so no value leaves int64.  It scales rows
by their pivots instead of inverting them; ``rrefs`` inverts each pivot
once, at the end.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import PrimeTooSmall

#: Session default prime.  Large enough that the trace-form radical
#: criterion (valid for p > dim) applies to every algebra built here.
DEFAULT_PRIME = 7919

#: Longest sum of products accumulated in int64 anywhere in the package.  Every
#: int64 kernel (all but ``dot``) multiplies two residues in [0, p) and sums
#: them over one basis, of an algebra or of a module (the trace form too: it
#: sums dim(A) products of table entries and traces), so this covers every
#: dimension up to 2^23, far past any whose dense structure table fits in
#: memory.
MAX_INNER = 2**23

#: Largest modulus accepted: (p - 1)^2 * MAX_INNER <= 2^63 - 1, so no int64
#: accumulation overflows.  Equals 2^20.  ``dot`` needs no bound of its own,
#: but at this one its blocks are at least 8192 terms long, longer than any
#: inner dimension the package multiplies, so its block loop never runs.
PRIME_BOUND = math.isqrt((2**63 - 1) // MAX_INNER) + 1


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def require_prime(p: int) -> int:
    """``p`` as an int, or ValueError unless it is a prime <= PRIME_BOUND.

    The bound is checked first, so a huge modulus never reaches trial division.
    """
    p = int(p)
    if p > PRIME_BOUND:
        raise ValueError(f"modulus {p} exceeds {PRIME_BOUND}, the largest with exact int64 arithmetic")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


def require_prime_exceeds(p: int, dim: int) -> None:
    """Guard for the trace-form radical criterion and friends."""
    if p <= dim:
        raise PrimeTooSmall(f"prime {p} must exceed the dimension {dim}")


def normalize(a, p: int) -> np.ndarray:
    return np.asarray(a, dtype=np.int64) % p


def zeros(*shape: int) -> np.ndarray:
    return np.zeros(shape, dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def block_len(p: int) -> int:
    """Most products of two residues mod ``p`` that float64 sums exactly.

    K (p - 1)^2 <= 2^53 - 1, and every integer of magnitude below 2^53 is a
    float64, so a sum of K such products is exact in any order, with or
    without fused multiply-adds.  K >= 8192 for every p <= PRIME_BOUND.
    """
    return (2**53 - 1) // (p - 1) ** 2


def dot(a, b, p: int) -> np.ndarray:
    """``a @ b`` as float64 integers congruent to the exact product mod ``p``.

    Operands hold residues in [0, p); ``b`` is at least 2-d and may be a
    stack.  Each entry of the result is an integer in [0, 2^53), so a
    difference of two results is exact too, and the cast of either to int64
    is exact, after which ``% p`` reduces it.  Inner dimensions longer than
    ``block_len(p)`` are cut into blocks, each reduced in int64 before it
    joins the running sum, which then stays below 2p.  No inner dimension in
    this package is that long, so the block loop never runs outside the tests.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    k, step = a.shape[-1], block_len(p)
    if k <= step:
        return a @ b
    out = (a[..., :step] @ b[..., :step, :]).astype(np.int64) % p
    for s in range(step, k, step):
        out += (a[..., s : s + step] @ b[..., s : s + step, :]).astype(np.int64) % p
        out %= p
    return out.astype(np.float64)


def mat_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return dot(normalize(a, p), normalize(b, p), p).astype(np.int64) % p


def inv_scalar(x: int, p: int) -> int:
    return pow(int(x) % p, -1, p)


def rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a copy of ``m``; returns (rref, pivot columns)."""
    a = normalize(m, p)
    if a.ndim != 2:
        raise ValueError("rref expects a 2-d array")
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        # row r is zero left of c, so the row operations start at column c,
        # and only rows with a non-zero entry in column c change
        a[r, c:] = (a[r, c:] * inv_scalar(int(a[r, c]), p)) % p
        col = a[:, c].copy()
        col[r] = 0
        hit = np.flatnonzero(col)
        if hit.size:
            sub = a[hit, c:]
            sub -= sub[:, :1] * a[r, c:]
            sub %= p
            a[hit, c:] = sub
        pivots.append(c)
        r += 1
    return a, pivots


def rank(m: np.ndarray, p: int) -> int:
    return len(rref(m, p)[1])


def _eliminate(stack: np.ndarray, p: int):
    """Fraction-free elimination of a 3-d stack, one column at a time.

    Column by column, each matrix takes its first row with a non-zero entry
    there as pivot row, and every row is replaced by pv * row - a_rc * pivot
    row, pv the pivot entry.  That scales each row by the unit pv and
    subtracts a multiple of the pivot row, which itself becomes zero: so the
    row space loses exactly the pivot row, which was independent of the new
    rows (they vanish in column c, it does not), and the rank drops by one.
    A matrix without a pivot in column c is left as it is.  No inverse is
    taken, and zero padding of rows or columns changes no pivot.

    Yields (c, lead, row) for each column c, before its step: lead[k] is the
    pivot entry of matrix k in column c (0 when it has none) and row[:, k]
    its pivot row right of c.  Each pivot row is zero left of its pivot, so
    the pivot rows, in column order, are an echelon basis of the row space.
    """
    # columns outermost, so that the columns right of c are one block
    a = np.remainder(np.asarray(stack, dtype=np.int64).transpose(2, 0, 1), p, order="C")
    ncols, count, nrows = a.shape
    if nrows == 0:
        return
    every = np.arange(count)
    for c in range(ncols):
        col = a[c]  # never written again: the updates start right of it
        piv = (col != 0).argmax(axis=1)
        lead = col[every, piv]
        rest = a[c + 1 :]
        row = rest[:, every, piv]
        yield c, lead, row
        rest *= np.where(lead == 0, 1, lead)[:, None]
        rest -= row[:, :, None] * col
        rest %= p


def ranks(stack: np.ndarray, p: int) -> np.ndarray:
    """Rank of every matrix in a 3-d stack, by one elimination over all of them."""
    if np.ndim(stack) != 3:
        raise ValueError("ranks expects a 3-d stack")
    out = np.zeros(len(stack), dtype=np.int64)
    for _, lead, _ in _eliminate(stack, p):
        out += lead != 0
    return out


def rrefs(stack: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of every matrix in a 3-d stack, by one elimination.

    Returns (rows, pivots): rows[k] (ncols x ncols) holds the RREF rows of
    stack[k] in pivot order, then zero rows, and pivots[k] marks its pivot
    columns.  The echelon basis of ``_eliminate`` is kept by pivot column,
    each row is scaled by the inverse of its pivot entry, and then, from the
    last column to the first, every pivot column is cleared above its pivot.
    The RREF of a row space is unique, so each matrix gets the rows ``rref``
    gives it, and zero padding changes none of them.
    """
    if np.ndim(stack) != 3:
        raise ValueError("rrefs expects a 3-d stack")
    count, _, ncols = np.shape(stack)
    ech = zeros(count, ncols, ncols)  # ech[k, c]: the echelon row with pivot c, if any
    for c, lead, row in _eliminate(stack, p):
        ech[:, c, c] = lead
        ech[:, c, c + 1 :] = np.where(lead[:, None] != 0, row.T, 0)
    lead = ech.diagonal(axis1=1, axis2=2)
    pivots = lead != 0
    inv = np.ones_like(lead)
    inv[pivots] = [pow(x, -1, p) for x in lead[pivots].tolist()]
    ech = ech * inv[:, :, None] % p
    # a row c that is no matrix's pivot row is zero everywhere and changes nothing
    for c in reversed(pivots.any(axis=0).nonzero()[0].tolist()):
        above = ech[:, :c, c:]
        above -= ech[:, :c, c, None] * ech[:, None, c, c:]
        above %= p
    order = (~pivots).argsort(axis=1, kind="stable")
    return ech[np.arange(count)[:, None], order], pivots


def rank_kernel(m: np.ndarray, p: int) -> tuple[int, np.ndarray]:
    """Rank and a right-kernel basis of ``m``.

    The kernel comes back as an array of shape (nullity, ncols) whose rows
    are linearly independent vectors v with m @ v == 0 (mod p).
    """
    a = normalize(m, p)
    nrows, ncols = a.shape
    red, pivots = rref(a, p)
    free = [c for c in range(ncols) if c not in pivots]
    ker = zeros(len(free), ncols)
    # most inputs are 1x1 of full rank, where the indexing would cost more than the rref
    if free:
        ker[range(len(free)), free] = 1
        ker[:, pivots] = -red[: len(pivots), free].T % p
    return len(pivots), ker


def invert(m: np.ndarray, p: int) -> Optional[np.ndarray]:
    """Inverse of a square matrix, or None when singular."""
    a = normalize(m, p)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"invert expects a square matrix, got {a.shape}")
    n = a.shape[0]
    red, pivots = rref(np.hstack([a, identity(n)]), p)
    if pivots != list(range(n)):
        return None
    return red[:, n:]


def mat_pow(m: np.ndarray, k: int, p: int) -> np.ndarray:
    """``m`` to a (possibly negative) integer power.

    ``m`` may be a stack of square matrices, each raised to the power k; a
    negative power inverts, so it needs a single 2-d matrix.
    """
    a = normalize(m, p)
    if k < 0:
        inv = invert(a, p)
        if inv is None:
            raise ValueError("negative power of a singular matrix")
        a, k = inv, -k
    out = np.broadcast_to(identity(a.shape[-1]), a.shape).copy()
    while k:
        if k & 1:
            out = mat_mul(out, a, p)
        a = mat_mul(a, a, p)
        k >>= 1
    return out


def row_basis(rows: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF basis of the row span (zero rows dropped), plus pivot columns."""
    a = normalize(rows, p)
    if a.size == 0:
        return zeros(0, a.shape[1] if a.ndim == 2 else 0), []
    red, pivots = rref(a, p)
    return red[: len(pivots)], pivots


def in_row_span(basis: np.ndarray, pivots: list[int], v: np.ndarray, p: int) -> bool:
    if len(pivots) == 0:
        return not np.any(v % p)
    res = (v - v[pivots] @ basis) % p
    return not np.any(res)

