"""Operations the tests read their references through, which the package
itself no longer needs: the multiplication map of one element, of an
algebra or of a bimodule; the dual of a bimodule; and T(B^sigma)."""

import numpy as np

from gradedalg.algebra import Bimodule
from gradedalg.construct import trivial_extension, twisted_dual_bimodule


def left_mult(a, v):
    """L(v), the matrix of x -> v x in A."""
    return np.tensordot(v % a.p, a.left, axes=1) % a.p


def right_mult(a, v):
    """R(v), the matrix of x -> x v in A: column b is basis_b * v."""
    return ((a.left @ (v % a.p)) % a.p).T


def act_left(x, v):
    """The matrix of the element v of A acting on the bimodule x from the left."""
    return np.tensordot(v % x.algebra.p, x.left_action, axes=1) % x.algebra.p


def act_right(x, v):
    """The matrix of the element v of A acting on the bimodule x from the right."""
    return np.tensordot(v % x.algebra.p, x.right_action, axes=1) % x.algebra.p


def dual_bimodule_of(x):
    """The vector-space dual D(X), with (b f)(m) = f(m b) and (f b)(m) = f(b m)."""
    left = x.right_action.transpose(0, 2, 1)
    right = x.left_action.transpose(0, 2, 1)
    return Bimodule(x.algebra, [f"{s}^" for s in x.names], left, right)


def T_twisted(b, sigma):
    """T(B^sigma) = B |x D(B^sigma), checked by the join of ``trivial_extension``."""
    return trivial_extension(b, twisted_dual_bimodule(b, sigma))
