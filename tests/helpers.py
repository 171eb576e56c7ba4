"""Operations the tests read their references through, which the package
itself no longer needs: the multiplication map of one element, of an
algebra or of a bimodule; the dual of a bimodule; T(B^sigma); the check of
one module map; as oracles for the join that now decides them, the
generator-based checks of a bimodule and of an algebra map; and, as the
oracle of the family check, the check of a stack of maps between two
modules."""

import numpy as np

from gradedalg import modp
from gradedalg.algebra import Bimodule, generators, intertwine_fault
from gradedalg.construct import trivial_extension, twisted_dual_bimodule
from gradedalg.errors import ActionFault, AlgebraMismatch, CheckFailed
from gradedalg.modules import ModuleFamily, morphism_faults


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
    GradedMorphism f, a map between the members of a family of two, or
    return f."""
    fam = ModuleFamily.of(f.source.algebra, [f.source, f.target])
    fault = morphism_faults(fam, [(0, 1)], [f.matrix[None]])[0][0]
    if fault is not None:
        raise CheckFailed(fault)
    return f


def pair_morphism_faults(m, n, matrices):
    """Why each matrix of a stack is not a module map M -> N, or None where
    it is one: the check of one pair of modules that ``morphism_faults``
    made before it took a family.  Degrees first, over the stack, then one
    stacked ``intertwine_fault`` over the generators, and on a fault each
    matrix again on its own, which names its first failing generator."""
    if not m.algebra.same_as(n.algebra):
        raise AlgebraMismatch("morphism endpoints live over different algebras")
    a, p = m.algebra, m.p
    f = modp.normalize(np.reshape(matrices, (len(matrices), n.dim, m.dim)), p)
    moved = ((f != 0) & (n.degrees[:, None] != m.degrees[None, :])).any(axis=(1, 2))
    faults = ["morphism does not preserve degrees" if x else None for x in moved.tolist()]
    rest = np.flatnonzero(~moved)
    if rest.size:
        gens = generators(a)
        src, tgt = m.action[gens], n.action[gens]
        if intertwine_fault(f[rest], src, tgt, gens, p) is not None:
            for i in rest.tolist():
                fault = intertwine_fault(f[i], src, tgt, gens, p)
                if fault is not None:
                    faults[i] = f"morphism does not intertwine {a.names[fault[0]]}"
    return faults


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
