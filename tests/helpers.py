"""Operations the tests read their references through, which the package
itself no longer needs: the multiplication map of one element, of an
algebra or of a bimodule; the dual of a bimodule; T(B^sigma); the check of
one module map; and, as oracles for the join that now decides them, the
generator-based checks of a bimodule and of an algebra map."""

import numpy as np

from gradedalg.algebra import Bimodule, generators, intertwine_fault
from gradedalg.construct import trivial_extension, twisted_dual_bimodule
from gradedalg.errors import ActionFault, CheckFailed
from gradedalg.modules import morphism_faults


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


def validate_morphism(f):
    """Raise CheckFailed with the fault of ``morphism_faults`` on the one
    GradedMorphism f, or return f."""
    fault = morphism_faults(f.source, f.target, [f.matrix])[0]
    if fault is not None:
        raise CheckFailed(fault)
    return f


def algebra_map_fault(h, src, tgt):
    """Why the linear map h : src -> tgt (a coordinate matrix) is not an algebra
    map, or None when it is: h(1) = 1, then h(g b) = h(g) h(b) for g in
    ``generators(src)`` and every basis element b (the lemma at
    ``generators``).  Both algebras must be associative, with p > dim src."""
    p = src.p
    if not np.array_equal(h @ src.unit % p, tgt.unit):
        return "does not fix the unit"
    gens = generators(src)
    images = np.tensordot(h[:, gens].T, tgt.left, axes=1) % p  # images[k] = L(h(g_k))
    fault = intertwine_fault(h, src.left[gens], images, gens, p)
    if fault is not None:
        return f"is not multiplicative at {src.names[fault[0]]}"
    return None


def validate_bimodule_by_generators(x):
    """The bimodule check that read ``generators(A)`` only: unital actions,
    then the left action a representation, the right one an
    anti-representation and the two commuting, each checked on the
    generators (the lemma at ``generators``).  A must be associative, with
    p > dim A.  Raises ActionFault, or returns x."""
    a, p = x.algebra, x.algebra.p
    fault = x.unit_fault()
    if fault is not None:
        raise ActionFault(fault)
    la, ra, gens = x.left_action, x.right_action, generators(a)
    # the orbit maps .T: la(g) la(b) = la(gb) and ra(g) ra(b) = ra(bg)
    fault = intertwine_fault(la.T, a.left[gens], la[gens], gens, p)
    if fault is not None:
        raise ActionFault(f"left action not associative at {a.names[fault[0]]}")
    fault = intertwine_fault(ra.T, a.right[gens], ra[gens], gens, p)
    if fault is not None:
        raise ActionFault(f"right action not associative at {a.names[fault[1]]}")
    fault = intertwine_fault(ra[gens], la[gens], la[gens], gens, p)
    if fault is not None:
        raise ActionFault(f"left/right actions do not commute at {a.names[fault[0]]}")
    return x
