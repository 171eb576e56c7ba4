import re
from collections import Counter

import numpy as np
import pytest

from gradedalg import corpus, modp
from gradedalg import algebra
from gradedalg.algebra import (
    _JOIN_BUDGET,
    Bimodule,
    _associativity_fault,
    _join_packing,
    _radical_and_quotient,
    _trace_form,
    GradedAlgebra,
    corner,
    degree_zero_subalgebra,
    generators,
    homogeneous_row_basis,
    intertwine_fault,
    is_basic,
    is_left_well_graded,
    is_right_well_graded,
    quotient_algebra,
    radical,
    semisimple_quotient,
    validate_algebra,
)
from gradedalg.construct import (
    AlgebraAutomorphism,
    T_of,
    beilinson,
    dual_bimodule,
    t_of,
    trivial_extension,
    twisted_dual_bimodule,
    x_bimodule,
)
from gradedalg.equiv import extract_sigma, split_trivial_extension
from gradedalg.errors import (
    ActionFault,
    CheckFailed,
    GradingViolation,
    IdempotentFault,
    NonAssociative,
    NotAutomorphism,
    NotIdempotent,
    NotPrimitive,
    PrimeTooSmall,
    TrivialGrading,
    UnitMismatch,
)
from gradedalg.modules import GradedModule, GradedMorphism, ModuleFamily, hom_bases, inj, module_faults, proj, regular_module
from helpers import (
    T_twisted,
    act_left,
    act_right,
    algebra_map_fault,
    left_mult,
    right_mult,
    validate_bimodule_by_generators,
    validate_morphism,
)
from perfbench.inputs import random_graded_basis, rebase

P = 7919


def _mul(a, u, v):
    """u * v in A, for coordinate vectors."""
    return left_mult(a, u) @ (v % a.p) % a.p


def _act(m, v):
    """The matrix of the algebra element with coordinates v acting on m."""
    return np.einsum("i,iab->ab", v % m.p, m.action) % m.p


def test_validate_smallest_graded(truncated):
    a = truncated(2)
    assert a.top_degree() == 1
    assert a.component_dims() == [1, 1]


def test_grading_violation_detected():
    # x*x = 1 with deg x = 1 breaks graded multiplicativity
    table = modp.zeros(2, 2, 2)
    table[0, 0, 0] = 1
    table[0, 1, 1] = 1
    table[1, 0, 1] = 1
    table[1, 1, 0] = 1
    a = GradedAlgebra(P, ["1", "x"], [0, 1], table, [1, 0], [[1, 0]])
    with pytest.raises(GradingViolation):
        validate_algebra(a)


def test_exterior_associativity_brute_force(exterior2):
    a = exterior2
    assert a.dim == 4 and a.top_degree() == 2
    basis = modp.identity(4)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                lhs = _mul(a, _mul(a, basis[i], basis[j]), basis[k])
                rhs = _mul(a, basis[i], _mul(a, basis[j], basis[k]))
                assert np.array_equal(lhs, rhs)


def test_nonassociative_detected():
    # x*(x*x) = x*y = 1 but (x*x)*x = y*x = 0
    table = modp.zeros(3, 3, 3)
    table[0] = modp.identity(3)
    table[1, 0, 1] = 1
    table[2, 0, 2] = 1
    table[1, 1, 2] = 1
    table[1, 2, 0] = 1
    a = GradedAlgebra(P, ["1", "x", "y"], [0, 0, 0], table, [1, 0, 0], [[1, 0, 0]])
    with pytest.raises(NonAssociative):
        validate_algebra(a)


def test_bimodule_faults_detected(truncated):
    a = truncated(3)
    x = a.names.index("x")
    reg = Bimodule(a, list(a.names), a.left, a.right)  # the regular bimodule
    for side in ("left", "right"):
        actions = {"left": np.array(reg.left_action), "right": np.array(reg.right_action)}
        actions[side][x] = 2 * actions[side][x] % P  # still unital, no longer multiplicative
        bad = Bimodule(a, a.names, actions["left"], actions["right"])
        with pytest.raises(ActionFault, match=f"{side} action not associative"):
            bad.validate()

    # k x k acting on k^2 through two idempotent projections that do not commute
    table = modp.zeros(2, 2, 2)
    table[0, 0, 0] = 1
    table[1, 1, 1] = 1
    kk = GradedAlgebra(P, ["e1", "e2"], [0, 0], table, [1, 1], [[1, 0], [0, 1]])
    proj_p = np.array([[1, 0], [0, 0]])
    proj_q = np.array([[1, 1], [0, 0]])
    ident = modp.identity(2)
    left = [proj_p, (ident - proj_p) % P]
    right = [proj_q, (ident - proj_q) % P]
    with pytest.raises(ActionFault, match="do not commute"):
        Bimodule(kk, ["v", "w"], left, right).validate()


def test_unit_mismatch():
    from gradedalg.errors import UnitMismatch

    table = modp.zeros(2, 2, 2)
    table[0, 0, 0] = 1
    table[0, 1, 1] = 1
    table[1, 0, 1] = 1
    a = GradedAlgebra(P, ["1", "x"], [0, 1], table, [0, 1], [[1, 0]])
    with pytest.raises(UnitMismatch, match="^unit is not a left identity$"):
        validate_algebra(a)
    # e x = x but x e = 0: e is a left identity only
    table[1, 0, 1] = 0
    a = GradedAlgebra(P, ["e", "x"], [0, 1], table, [1, 0], [[1, 0]])
    with pytest.raises(UnitMismatch, match="^unit is not a right identity$"):
        validate_algebra(a)


def test_idempotent_faults():
    a = GradedAlgebra(P, ["1"], [0], np.ones((1, 1, 1), dtype=np.int64), [1], [[1]])
    validate_algebra(a)
    bad = GradedAlgebra(P, ["1"], [0], np.ones((1, 1, 1), dtype=np.int64), [1], [[2]])
    with pytest.raises(IdempotentFault):
        validate_algebra(bad)


def ref_idempotent_fault(a):
    """First fault of the pairwise products, in the order (i, then j), or None."""
    ide = a.idempotents
    for i in range(ide.shape[0]):
        if not np.any(ide[i]):
            return f"designated idempotent {i} is zero"
        for j in range(ide.shape[0]):
            expect = ide[i] if i == j else modp.zeros(a.dim)
            if not np.array_equal(_mul(a, ide[i], ide[j]), expect):
                return f"e_{i} * e_{j} is not {'e_' + str(i) if i == j else '0'}"
    return None


def _kkk():
    table = modp.zeros(3, 3, 3)
    table[0, 0, 0] = table[1, 1, 1] = table[2, 2, 2] = 1
    return ["e1", "e2", "e3"], table, [1, 1, 1]


def _upper2():
    """Upper triangular 2 x 2 matrices: u00 u01 = u01 = u01 u11."""
    table = modp.zeros(3, 3, 3)
    table[0, 0, 0] = table[0, 1, 1] = table[1, 2, 1] = table[2, 2, 2] = 1
    return ["u00", "u01", "u11"], table, [1, 0, 1]


@pytest.mark.parametrize("build, idems, message", [
    (_kkk, [[2, 0, 0], [0, 1, 0], [0, 0, 1]], "e_0 * e_0 is not e_0"),
    (_kkk, [[1, 1, 0], [0, 1, 0], [0, 0, 1]], "e_0 * e_1 is not 0"),
    (_kkk, [[1, 0, 0], [0, 0, 0], [0, 1, 1]], "designated idempotent 1 is zero"),
    (_kkk, [[1, 0, 0], [0, 0, 1], [0, 1, 1]], "e_1 * e_2 is not 0"),
    # (u00 + u01) u11 = u01 but u11 (u00 + u01) = 0: only one order of each pair fails
    (_upper2, [[1, 1, 0], [0, 0, 1]], "e_0 * e_1 is not 0"),
    (_upper2, [[0, 0, 1], [1, 1, 0]], "e_1 * e_0 is not 0"),
])
def test_idempotent_faults_in_pairwise_order(build, idems, message):
    # the first fault raised is the pairwise loop's first, message and all
    names, table, unit = build()
    a = GradedAlgebra(P, names, [0, 0, 0], table, unit, idems)
    assert ref_idempotent_fault(a) == message
    with pytest.raises(IdempotentFault) as err:
        validate_algebra(a)
    assert str(err.value) == message


def test_idempotent_faults_of_a_graded_rebased_algebra(rebased_nakayama32):
    # e_i e_j is read from A_0's block of the structure constants alone; on
    # N(3, 2) in a dense basis, with arrows in degrees 1 and 2, the faults
    # and messages are those of the products over the whole algebra
    a = rebased_nakayama32
    e = a.idempotents
    for idems, message in (
        ([e[0] + e[1], e[1], e[2] - e[1]], "e_0 * e_1 is not 0"),
        ([e[0], 2 * e[1], e[2] - e[1]], "e_1 * e_1 is not e_1"),
    ):
        bad = GradedAlgebra(a.p, a.names, a.degrees, np.array(a.table), a.unit, np.array(idems) % a.p)
        assert ref_idempotent_fault(bad) == message
        with pytest.raises(IdempotentFault) as err:
            validate_algebra(bad)
        assert str(err.value) == message


def test_non_primitive_unit_rejected():
    # k x k with the single idempotent 1 is not primitive
    table = modp.zeros(2, 2, 2)
    table[0, 0, 0] = 1
    table[1, 1, 1] = 1
    a = GradedAlgebra(P, ["e1", "e2"], [0, 0], table, [1, 1], [[1, 1]])
    with pytest.raises(NotPrimitive):
        validate_algebra(a)


def test_prime_too_small():
    table = modp.zeros(3, 3, 3)
    table[0] = modp.identity(3)
    table[1, 0, 1] = 1
    table[2, 0, 2] = 1
    a = GradedAlgebra(3, ["1", "x", "y"], [0, 1, 1], table, [1, 0, 0], [[1, 0, 0]])
    with pytest.raises(PrimeTooSmall):
        validate_algebra(a)


def test_radical_semisimple_is_zero():
    table = modp.zeros(2, 2, 2)
    table[0, 0, 0] = 1
    table[1, 1, 1] = 1
    a = GradedAlgebra(P, ["e1", "e2"], [0, 0], table, [1, 1], [[1, 0], [0, 1]])
    assert radical(a).shape[0] == 0


def test_radical_truncated(truncated):
    a = truncated(3)
    rad = radical(a)
    assert rad.shape[0] == 2
    # span{x, x^2}: no support on the unit coordinate
    assert not np.any(rad[:, 0])


def test_radical_upper_triangular(uppertri):
    a = uppertri(2)
    rad = radical(a)
    assert rad.shape[0] == 1
    assert rad[0][a.names.index("u01")] != 0


def test_radical_is_nilpotent(graded_corpus):
    for name, a in graded_corpus:
        rows = radical(a)
        span = rows
        for _ in range(a.dim):
            if span.shape[0] == 0:
                break
            nxt = []
            for r in rows:
                nxt.append((left_mult(a, r) @ span.T).T % a.p)
            span, _ = modp.row_basis(np.vstack(nxt), a.p)
        assert span.shape[0] == 0, name


def test_component_dims(truncated, exterior2, uppertri):
    assert truncated(3).component_dims() == [1, 1, 1]
    assert exterior2.component_dims() == [1, 2, 1]
    assert uppertri(3).top_degree() == 0
    for name, a in [("t3", truncated(3)), ("e2", exterior2)]:
        assert a.dim == sum(a.component_dims())


def test_well_graded(truncated, exterior2, a4, left_only_well_graded):
    assert is_left_well_graded(truncated(4)) == (True, None)
    assert is_right_well_graded(truncated(4)) == (True, None)
    assert is_left_well_graded(exterior2) == (True, None)
    assert is_right_well_graded(exterior2) == (True, None)
    ok, witness = is_left_well_graded(a4)
    assert not ok and witness == 0  # e kills the top component
    ok, witness = is_right_well_graded(a4)
    assert not ok and witness == 0
    assert is_left_well_graded(left_only_well_graded) == (True, None)
    assert is_right_well_graded(left_only_well_graded) == (False, 1)  # A_1 e2 = 0
    # in a dense basis e A_1 = 0 only modulo p, so the witness is read mod p
    dense = rebase(a4, random_graded_basis(a4, np.random.default_rng(4)))
    assert is_left_well_graded(dense) == (False, 0) and is_right_well_graded(dense) == (False, 0)


def test_well_graded_needs_grading(uppertri):
    with pytest.raises(TrivialGrading):
        is_left_well_graded(uppertri(2))


def test_is_basic(truncated, uppertri, matrix2x2):
    assert is_basic(truncated(4))
    assert is_basic(uppertri(2))
    assert not is_basic(matrix2x2)


def test_corner_by_unit_reproduces_algebra(graded_corpus):
    # corpus bases are sorted by degree, so the corner basis keeps the order
    for name, a in graded_corpus:
        c = corner(a, a.unit)
        assert c.dim == a.dim, name
        assert np.array_equal(c.table, a.table), name
        assert np.array_equal(c.unit, a.unit), name


def test_corner_of_product(a4):
    c = corner(a4, a4.idempotents[0])
    assert c.dim == 1


def test_corner_of_trivial_extension(truncated):
    t = t_of(truncated(3))
    c = corner(t, t.idempotents[0])
    assert c.dim == 2
    assert c.component_dims() == [1, 1]


def test_corner_dims_sum(truncated):
    t = t_of(truncated(3))
    for i in range(t.n_idempotents):
        e = t.idempotents[i]
        c = corner(t, e)
        per_degree = []
        for d in range(t.top_degree() + 1):
            idx = t.degree_indices(d)
            block = (left_mult(t, e) @ right_mult(t, e))[np.ix_(idx, idx)]
            per_degree.append(modp.rank(block.T, t.p))
        assert c.component_dims() == per_degree


def test_corner_rejects_non_idempotent(truncated):
    a = truncated(3)
    with pytest.raises(NotIdempotent):
        corner(a, np.array([0, 1, 0]))


def test_corner_lemma_2_4_shape(truncated):
    # eTe splits as (degree-0 corner) + (degree-1 corner), graded compatibly
    t = t_of(truncated(4))
    e = t.idempotents[0]
    c = corner(t, e)
    b0 = degree_zero_subalgebra(c)
    assert b0.dim == c.component_dims()[0]
    assert c.dim == sum(c.component_dims())


def test_quotient_algebra_by_radical_is_semisimple(graded_corpus):
    for name, a in graded_corpus:
        q, red, _ = quotient_algebra(a, radical(a))
        assert q.dim == a.dim - radical(a).shape[0], name
        assert radical(q).shape[0] == 0, name
        assert np.array_equal(red @ a.unit % a.p, q.unit), name


def test_degree_zero_subalgebra(a4, exterior2):
    a0 = degree_zero_subalgebra(a4)
    assert a0.dim == 2 and a0.top_degree() == 0
    assert degree_zero_subalgebra(exterior2).dim == 1


# ---------------------------------------------------------------------------
# exact oracles for the float64 multiplication checks and the per-degree split


def _representation_fault_int64(table, mats, p):
    for i in range(table.shape[0]):
        lhs = (mats[i] @ mats) % p  # lhs[j] = mats[i] @ mats[j]
        rhs = np.einsum("jk,kab->jab", table[i], mats) % p
        diff = lhs != rhs
        if diff.any():
            j = int(np.nonzero(diff.any(axis=(1, 2)))[0][0])
            col = int(np.nonzero(diff[j].any(axis=0))[0][0])
            return i, j, col
    return None


def _intertwine_fault_int64(f, src, tgt, p):
    """First (k, col) where tgt[k] @ f != f @ src[k], for one map f."""
    bad = (tgt @ f) % p != (f @ src) % p
    hits = np.nonzero(bad.any(axis=(1, 2)))[0]
    if not hits.size:
        return None
    k = int(hits[0])
    return k, int(np.nonzero(bad[k].any(axis=0))[0][0])


# The full-basis multiplication checks, as they stood before the library
# checked the generators of A only.  They are the references for the lemma at
# ``algebra.generators``: on every input below both give the same verdict.


def _module_validate_full(m):
    a, p = m.algebra, m.p
    if m.dim == 0:
        return
    if not np.array_equal(_act(m, a.unit), modp.identity(m.dim)):
        raise CheckFailed("module action is not unital")
    fault = _representation_fault_int64(a.table, m.action, p)
    if fault is not None:
        raise CheckFailed(f"module action not associative at {a.names[fault[0]]}")
    shiftgrid = m.degrees[:, None] - m.degrees[None, :]
    bad = (m.action != 0) & (shiftgrid[None, :, :] != a.degrees[:, None, None])
    if np.any(bad):
        raise CheckFailed(f"action of {a.names[int(np.argwhere(bad)[0][0])]} is not degree-compatible")


def _bimodule_validate_full(x):
    a, p = x.algebra, x.algebra.p
    ident = modp.identity(x.dim)
    if not np.array_equal(act_left(x, a.unit), ident):
        raise ActionFault("left action is not unital")
    if not np.array_equal(act_right(x, a.unit), ident):
        raise ActionFault("right action is not unital")
    la, ra = x.left_action, x.right_action
    fault = _representation_fault_int64(a.table, la, p)
    if fault is not None:
        raise ActionFault(f"left action not associative at {a.names[fault[0]]}")
    fault = _representation_fault_int64(a.table.transpose(1, 0, 2), ra, p)
    if fault is not None:
        raise ActionFault(f"right action not associative at {a.names[fault[1]]}")
    for i in range(a.dim):
        if _intertwine_fault_int64(la[i], ra, ra, p) is not None:
            raise ActionFault(f"left/right actions do not commute at {a.names[i]}")


def _morphism_validate_full(f):
    m, n, mat = f.source, f.target, f.matrix
    if np.any((mat != 0) & (n.degrees[:, None] != m.degrees[None, :])):
        raise CheckFailed("morphism does not preserve degrees")
    fault = _intertwine_fault_int64(mat, m.action, n.action, m.p)
    if fault is not None:
        raise CheckFailed(f"morphism does not intertwine {m.algebra.names[fault[0]]}")


def _automorphism_validate_full(sigma):
    a, s, p = sigma.algebra, sigma.matrix, sigma.algebra.p
    if np.any((s != 0) & (a.degrees[:, None] != a.degrees[None, :])):
        raise NotAutomorphism("does not preserve degrees")
    if not np.array_equal(s @ a.unit % p, a.unit):
        raise NotAutomorphism("does not fix the unit")
    # L(sigma(b_i)) sigma == sigma L(b_i) on every basis element
    fault = _intertwine_fault_int64(s, a.left, np.einsum("ki,kab->iab", s, a.left) % p, p)
    if fault is not None:
        raise NotAutomorphism(f"is not multiplicative at {a.names[fault[0]]}")


def _outcome(check):
    """None, or the class of the fault and its message without the element it
    names: the first fault found may sit at another element in the two checks."""
    try:
        check()
    except (CheckFailed, ActionFault, NotAutomorphism) as exc:
        return type(exc), re.sub(r"( at| intertwine) \S+$", r"\1", str(exc))
    return None


def _same_outcomes(obj, full, check=lambda obj: obj.validate()):
    got, want = _outcome(lambda: check(obj)), _outcome(lambda: full(obj))
    assert got == want
    return got


def _automorphism_validate_by_generators(sigma):
    """The automorphism check that read ``generators(A)``: degrees, then
    ``algebra_map_fault`` of sigma on A."""
    a, s = sigma.algebra, sigma.matrix
    if np.any((s != 0) & (a.degrees[:, None] != a.degrees[None, :])):
        raise NotAutomorphism("does not preserve degrees")
    fault = algebra_map_fault(s, a, a)
    if fault is not None:
        raise NotAutomorphism(fault)


def _bimodule_refusal_agrees(x):
    """The outcome of ``x.validate()``, after asserting that it refuses
    exactly where the full int64 check does: a unit fault word for word, a
    law as one that ``_laws_broken_int64`` finds broken."""
    got, want = _outcome(x.validate), _outcome(lambda: _bimodule_validate_full(x))
    assert (got is None) == (want is None)
    if got is not None and "unital" in got[1] + want[1]:
        assert got == want
    elif got is not None:
        assert got[0] is ActionFault and got[1] in _laws_broken_int64(x)
    return got


def _entry_corruptions(arr):
    """Every copy of ``arr`` with one entry moved up by one."""
    for idx in np.ndindex(arr.shape):
        out = np.array(arr)
        out[idx] += 1
        yield out


def _raise(fault):
    """Raise a fault of ``module_faults`` as ``GradedModule.validate`` does."""
    if fault is not None:
        raise CheckFailed(fault)


def test_generator_checks_agree_with_full_checks_on_every_single_entry(truncated):
    # T(b(k[x]/(x^5))): 20 basis elements, of which the generators are fewer;
    # each family of corruptions of one module is one module_faults call
    tb = validate_algebra(T_of(beilinson(truncated(5))))
    assert len(generators(tb)) < tb.dim
    kinds = Counter()
    for i in range(tb.n_idempotents):
        for m in (proj(tb, i), inj(tb, i)):
            assert _same_outcomes(m, _module_validate_full) is None
            corrupted = [GradedModule(tb, m.degrees, action) for action in _entry_corruptions(m.action)]
            for bad, fault in zip(corrupted, module_faults(ModuleFamily.of(tb, corrupted))):
                got = _outcome(lambda: _raise(fault))
                assert got == _outcome(lambda: _module_validate_full(bad))
                kinds[got] += 1
    assert sum(kinds.values()) == 4000
    assert kinds[CheckFailed, "module action not associative at"] > 3000

    # both actions of D(b(k[x]/(x^4))): 6 x 6 x 6 entries each
    b = validate_algebra(beilinson(truncated(4)))
    assert len(generators(b)) < b.dim
    # validate names the law of the join's first failing triple, which need
    # not be the first law the full check finds broken
    d = dual_bimodule(b)
    assert _bimodule_refusal_agrees(d) is None
    kinds, wants = Counter(), Counter()
    corrupted = [Bimodule(b, d.names, left, d.right_action) for left in _entry_corruptions(d.left_action)]
    corrupted += [Bimodule(b, d.names, d.left_action, right) for right in _entry_corruptions(d.right_action)]
    for bad in corrupted:
        kinds[_bimodule_refusal_agrees(bad)] += 1
        wants[_outcome(lambda: _bimodule_validate_full(bad))] += 1
    assert sum(kinds.values()) == 432
    assert wants[ActionFault, "left action not associative at"] > 100
    assert wants[ActionFault, "right action not associative at"] > 100
    assert wants[ActionFault, "left/right actions do not commute at"] > 0
    assert kinds[ActionFault, "left action not associative at"] > 100
    assert kinds[ActionFault, "left/right actions do not commute at"] > 100


def _laws_broken_int64(x):
    """The bimodule laws that the full int64 references find broken, each
    as the start of the message that names it."""
    b, p, la, ra = x.algebra, x.algebra.p, x.left_action, x.right_action
    broken = set()
    if _representation_fault_int64(b.table, la, p) is not None:
        broken.add("left action not associative at")
    if _representation_fault_int64(b.table.transpose(1, 0, 2), ra, p) is not None:
        broken.add("right action not associative at")
    if any(_intertwine_fault_int64(la[i], ra, ra, p) is not None for i in range(b.dim)):
        broken.add("left/right actions do not commute at")
    return broken


def _message(check):
    try:
        check()
    except ActionFault as exc:
        return str(exc)
    return None


def test_trivial_extension_join_agrees_with_bimodule_validate_on_every_single_entry(truncated, rebased_nakayama32):
    # x(k[x]/(x^4)) over b(k[x]/(x^4)), 6 x 6 x 6 entries per action, and
    # D(b(N(3, 2))) in a dense basis, 9 x 9 x 9: Bimodule.validate, and the
    # trivial extension by the same join, refuse each copy with one entry
    # moved exactly when the generator-based check did
    kinds, single = Counter(), 0
    for x in (x_bimodule(truncated(4)), dual_bimodule(beilinson(rebased_nakayama32))):
        b = x.algebra
        assert trivial_extension(b, x).dim == 2 * b.dim and x.validate() is x
        corrupted = [Bimodule(b, x.names, left, x.right_action) for left in _entry_corruptions(x.left_action)]
        corrupted += [Bimodule(b, x.names, x.left_action, right) for right in _entry_corruptions(x.right_action)]
        for bad in corrupted:
            got = _message(bad.validate)
            assert got == _message(lambda: trivial_extension(b, bad))
            want = _message(lambda: validate_bimodule_by_generators(bad))
            assert (got is None) == (want is None)
            if got is None:
                kinds[None] += 1
            elif "unital" in got or "unital" in want:
                assert got == want
                kinds[got] += 1
            else:
                # the join names the law of the first failing triple, which
                # need not be the first law the generator check checked
                law, broken = got.rpartition(" ")[0], _laws_broken_int64(bad)
                assert law in broken
                if len(broken) == 1:
                    assert law == want.rpartition(" ")[0]
                    single += 1
                kinds[law] += 1
    assert sum(kinds.values()) == 2 * 6**3 + 2 * 9**3
    assert kinds["left action is not unital"] > 0 and kinds["right action is not unital"] > 0
    assert kinds["left action not associative at"] > 100
    assert kinds["left/right actions do not commute at"] > 100
    # a broken right action mostly breaks the commuting law too, at a
    # triple (b, x, b') that comes before every (x, b, b')
    assert kinds["right action not associative at"] > 0
    assert single > 20


def test_bimodule_validate_needs_no_generators(truncated):
    # the join reads no radical, so a zero bimodule passes, and so does a
    # regular bimodule at p <= dim A, which the generators cannot reach
    a = truncated(3)
    assert Bimodule(a, [], modp.zeros(a.dim, 0, 0), modp.zeros(a.dim, 0, 0)).validate().dim == 0
    small = corpus.truncated_poly(3, prime=3)
    reg = Bimodule(small, small.names, small.left, small.right)
    with pytest.raises(PrimeTooSmall):
        validate_bimodule_by_generators(reg)
    assert reg.validate() is reg
    kinds = Counter()
    for side in ("left", "right"):
        for bad in _entry_corruptions(getattr(reg, f"{side}_action")):
            actions = {"left": reg.left_action, "right": reg.right_action, side: bad}
            kinds[_bimodule_refusal_agrees(Bimodule(small, small.names, actions["left"], actions["right"]))] += 1
    # x acting as x + x2 on one side twists the bimodule by an automorphism,
    # so exactly two copies stay bimodules
    assert sum(kinds.values()) == 2 * 27 and kinds[None] == 2
    # the zero bimodule over a non-associative algebra is refused as the
    # algebra: x (x x) = x y = 1 but (x x) x = y x = 0
    table = modp.zeros(3, 3, 3)
    table[0] = modp.identity(3)
    table[1, 0, 1] = table[2, 0, 2] = 1
    table[1, 1, 2] = table[1, 2, 0] = 1
    bad = GradedAlgebra(P, ["1", "x", "y"], [0, 0, 0], table, [1, 0, 0], [[1, 0, 0]])
    with pytest.raises(NonAssociative):
        Bimodule(bad, [], modp.zeros(3, 0, 0), modp.zeros(3, 0, 0)).validate()


def test_generator_checks_agree_with_full_checks_on_sigma_and_morphisms(truncated, rebased_nakayama):
    rng = np.random.default_rng(11)
    # b(N(4, 3)) has c = 3 block rows, so rad^2 != 0 and sigma is not the identity
    t = t_of(rebased_nakayama(4, 3, 43))
    ext, x = extract_sigma(t), split_trivial_extension(t)[1]
    b, p, gens = ext.base, ext.base.p, generators(ext.base)
    assert len(gens) < b.dim
    twisted = twisted_dual_bimodule(b, ext.sigma)
    kinds, joins = Counter(), Counter()
    assert _same_outcomes(ext.sigma, _automorphism_validate_full) is None
    assert _outcome(lambda: T_twisted(b, ext.sigma)) is None
    for _ in range(300):
        try:
            sigma = AlgebraAutomorphism(b, _corrupt(ext.sigma.matrix, rng, p))
        except NotAutomorphism:
            continue  # singular
        want = _same_outcomes(sigma, _automorphism_validate_full)
        assert _outcome(lambda: _automorphism_validate_by_generators(sigma)) == want
        kinds[want] += 1
        # the join of T(B^sigma) refuses exactly the maps that are not automorphisms
        got = _outcome(lambda: T_twisted(b, sigma))
        assert (got is None) == (want is None) and (got is None or got[0] is ActionFault)
        joins[got] += 1
    assert kinds[NotAutomorphism, "is not multiplicative at"] > 100
    assert joins[ActionFault, "left action is not unital"] > 100
    assert joins[ActionFault, "left action not associative at"] > 100

    # the bimodule isomorphism theta on the generators of B, against every
    # basis element, which is where extract_sigma checks it
    sides = ((x.left_action, twisted.left_action), (x.right_action, twisted.right_action))
    for src, tgt in sides:
        assert intertwine_fault(ext.iso, src[gens], tgt[gens], gens, p) is None
    faults = 0
    for theta in (_corrupt(ext.iso, rng, p) for _ in range(100)):
        for src, tgt in sides:
            got = intertwine_fault(theta, src[gens], tgt[gens], gens, p)
            assert (got is None) == (_intertwine_fault_int64(theta, src, tgt, p) is None)
            faults += got is not None
    assert faults > 150

    tb = validate_algebra(T_of(beilinson(truncated(5))))
    mods = [proj(tb, i) for i in range(tb.n_idempotents)] + [inj(tb, i) for i in range(tb.n_idempotents)]
    kinds = Counter()
    pairs = [(k, l) for k in range(len(mods)) for l in range(len(mods))]
    for (k, l), maps in zip(pairs, hom_bases(ModuleFamily.of(tb, mods), pairs)):
        src, tgt = mods[k], mods[l]
        for f in maps:
            assert _same_outcomes(GradedMorphism(src, tgt, f), _morphism_validate_full, validate_morphism) is None
            for _ in range(8):
                bad = GradedMorphism(src, tgt, _corrupt(f, rng, p))
                kinds[_same_outcomes(bad, _morphism_validate_full, validate_morphism)] += 1
    assert kinds[CheckFailed, "morphism does not intertwine"] > 100


def test_automorphism_validate_agrees_with_the_generator_check_on_graded_algebras(truncated, exterior2):
    # graded automorphisms of k[x]/(x^3), x -> l x, and of Lambda(2), g on
    # the degree-1 part and det g on xy; every copy with one entry moved to
    # another residue is refused exactly where the check on the generators
    # (and the full int64 check) refuses it
    rng = np.random.default_rng(30)
    kinds = Counter()
    for a in (truncated(3), exterior2):
        p = a.p
        for _ in range(4):
            if a.dim == 3:
                mat = np.diag(int(rng.integers(1, p)) ** np.arange(3) % p)
            else:
                g = rng.integers(0, p, size=(2, 2))
                if (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]) % p == 0:
                    continue
                mat = modp.zeros(4, 4)
                mat[0, 0], mat[1:3, 1:3], mat[3, 3] = 1, g, (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]) % p
            sigma = AlgebraAutomorphism(a, mat)
            assert _same_outcomes(sigma, _automorphism_validate_by_generators) is None
            for _ in range(40):
                try:
                    bad = AlgebraAutomorphism(a, _corrupt(mat, rng, p))
                except NotAutomorphism:
                    continue  # singular
                want = _same_outcomes(bad, _automorphism_validate_by_generators)
                assert want == _outcome(lambda: _automorphism_validate_full(bad))
                kinds[want] += 1
    assert kinds[NotAutomorphism, "does not preserve degrees"] > 50
    assert kinds[NotAutomorphism, "does not fix the unit"] > 5
    assert kinds[NotAutomorphism, "is not multiplicative at"] > 50


def _permuted(a, order):
    """``a`` with its basis listed in ``order``."""
    sub = np.ix_(order, order, order)
    return validate_algebra(
        GradedAlgebra(a.p, [a.names[i] for i in order], a.degrees[order], a.table[sub],
                      a.unit[order], a.idempotents[:, order])
    )


def test_faults_name_the_failing_generator(truncated):
    # x2 listed first, so the generators 1 and x sit at indices 1 and 2
    a = _permuted(truncated(5), [2, 0, 1, 3, 4])
    gens = generators(a).tolist()
    assert gens == [1, 2] and a.names[gens[1]] == "x"
    doubled = np.array(a.left)
    doubled[2] = 2 * doubled[2] % a.p  # only the action of x is wrong
    with pytest.raises(CheckFailed, match=r"not associative at x$"):
        GradedModule(a, a.degrees, doubled).validate()
    # the join names the first element of its first failing triple,
    # (x2, x, m): (x2 x) m = x3 m but x2 (x m) = 2 x3 m
    with pytest.raises(ActionFault, match=r"^left action not associative at x2$"):
        Bimodule(a, a.names, doubled, a.right).validate()
    m = regular_module(a)
    f = modp.identity(a.dim)
    f[2, 2] = 2  # degree-preserving, commutes with 1 but not with x
    with pytest.raises(CheckFailed, match=r"does not intertwine x$"):
        validate_morphism(GradedMorphism(m, m, f))
    # fixes the unit and preserves degrees, but sigma(x2) sigma(x) = 2 x3 != sigma(x3)
    with pytest.raises(NotAutomorphism, match=r"^is not multiplicative at x2$"):
        AlgebraAutomorphism(a, f).validate()


def _homogeneous_row_basis_rowwise(rows, ambient_degrees, p):
    rows = modp.normalize(rows, p)
    n = ambient_degrees.shape[0]
    pieces = {}
    for row in rows:
        for d in np.unique(ambient_degrees[np.nonzero(row)[0]]):
            comp = np.where(ambient_degrees == d, row, 0)
            pieces.setdefault(int(d), []).append(comp)
    basis_rows, basis_degs, pivots = [], [], []
    for d in sorted(pieces):
        red, piv = modp.row_basis(np.array(pieces[d]), p)
        basis_rows.extend(red)
        basis_degs.extend([d] * len(piv))
        pivots.extend(piv)
    if not basis_rows:
        return modp.zeros(0, n), np.zeros(0, dtype=np.int64), []
    return np.array(basis_rows), np.array(basis_degs, dtype=np.int64), pivots


def _corrupt(arr, rng, p):
    """A copy of ``arr`` with one entry moved to another residue."""
    out = np.array(arr)
    idx = tuple(int(rng.integers(0, s)) for s in out.shape)
    out[idx] = (out[idx] + rng.integers(1, p)) % p
    return out


def _single_target_cases(algebras):
    """(f, src, tgt, rows, p, want) for checks with one target matrix per row:
    the representation checks of the regular, anti-regular, projective and
    injective actions, and of right multiplications against the left regular
    action, each whole and with one entry corrupted; want is the fault of the
    int64 oracle."""
    rng = np.random.default_rng(2024)
    for a in algebras:
        p, table, left, right = a.p, a.table, a.left, a.right
        rows = np.arange(a.dim)  # every row: a corrupted table need not be associative
        anti = table.transpose(1, 0, 2)
        actions = [(table, left), (anti, right)]
        actions += [(table, m.action) for m in (proj(a, 0, 0), inj(a, 0, 1))]
        for tab, mats in actions:
            yield mats.T, tab.transpose(0, 2, 1), mats, rows, p, None
            for _ in range(4):
                for t2, m2 in [(_corrupt(tab, rng, p), mats), (tab, _corrupt(mats, rng, p))]:
                    # the library's module check: the orbit maps m2.T (b -> m2[b] e_c)
                    # intertwine the left multiplications of t2 with m2
                    yield m2.T, t2.transpose(0, 2, 1), m2, rows, p, _representation_fault_int64(t2, m2, p)
        # right multiplications intertwine the left regular action, and back
        for j in range(a.dim):
            yield right[j], left, left, rows, p, None
            yield left[j], right, right, rows, p, None
        for _ in range(6):
            f = _corrupt(right[int(rng.integers(0, a.dim))], rng, p)
            src = _corrupt(left, rng, p) if rng.integers(0, 2) else left
            want = _intertwine_fault_int64(f, src, left, p)
            yield f, src, left, rows, p, None if want is None else (*want, 0)


def _grouped_fault_int64(f, src, tgt, p):
    """First (k, col, m) where tgt[k][q] @ f[m] != f[m] @ src[k], q the member
    of map m, the maps filling the members in turn; with a 4-d src, against
    src[k][q]."""
    per = len(f) // tgt.shape[1]
    source = (lambda k, m: src[k][m // per]) if src.ndim == 4 else (lambda k, m: src[k])
    for k in range(len(src)):
        sides = [((tgt[k][m // per] @ f[m]) % p, (f[m] @ source(k, m)) % p) for m in range(len(f))]
        bad = np.array([(left != right).any(axis=0) for left, right in sides])
        if bad.any():
            col = int(np.flatnonzero(bad.any(axis=0))[0])
            return k, col, int(np.flatnonzero(bad[:, col])[0])
    return None


def _member_target_cases(algebras):
    """(f, src, tgt, rows, p, want) for checks with one target per member:
    three members of two maps each, the right multiplications by basis
    elements, checked against the left regular action as each member's own
    target, whole and with a corrupted target of one member, map or source;
    then the same with one source per member too, whole and with a corrupted
    source of one member or map; want is the fault of the int64 loop."""
    rng = np.random.default_rng(7)
    for a in algebras:
        p, left, right, rows = a.p, a.left, a.right, np.arange(a.dim)
        f = right[rng.integers(0, a.dim, size=6)]
        tgt = np.repeat(left[:, None], 3, axis=1)  # tgt[k, q]: L(b_k) for member q
        yield f, left, tgt, rows, p, None
        for _ in range(6):
            cases = [(f, left, _corrupt(tgt, rng, p)), (_corrupt(f, rng, p), left, tgt), (f, _corrupt(left, rng, p), tgt)]
            for f2, src2, tgt2 in cases:
                yield f2, src2, tgt2, rows, p, _grouped_fault_int64(f2, src2, tgt2, p)
        yield f, tgt, tgt, rows, p, None
        for _ in range(6):
            for f2, src2 in ((f, _corrupt(tgt, rng, p)), (_corrupt(f, rng, p), tgt)):
                yield f2, src2, tgt, rows, p, _grouped_fault_int64(f2, src2, tgt, p)


def test_multiplication_checks_match_int64_oracles(graded_corpus, rebased_nakayama32):
    algebras = [a for _, a in graded_corpus] + [rebased_nakayama32]
    faults = 0
    for f, src, tgt, rows, p, want in _single_target_cases(algebras + [t_of(a) for a in algebras]):
        got = intertwine_fault(f, src, tgt, rows, p)
        assert got == want
        faults += got is not None
    assert faults > 300  # the corruptions are mostly caught, so faults are compared


def test_intertwine_fault_with_one_target_per_member(graded_corpus, rebased_nakayama32):
    faults = 0
    for f, src, tgt, rows, p, want in _member_target_cases([a for _, a in graded_corpus] + [rebased_nakayama32]):
        got = intertwine_fault(f, src, tgt, rows, p)
        assert got == want
        faults += got is not None
    assert faults > 60


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_intertwine_fault_compares_chunks_of_rows_as_the_oracles_do(graded_corpus, rebased_nakayama32, monkeypatch, chunk):
    # the budget set so that a chunk holds `chunk` rows gives the (row, col,
    # map) of the int64 oracles on every case above, and on faults placed in
    # a later chunk, and in two rows of one chunk, of which the first wins
    algebras = [a for _, a in graded_corpus] + [rebased_nakayama32]
    extensions = [t_of(a) for a in algebras]
    cases = [*_single_target_cases(algebras + extensions), *_member_target_cases(algebras)]
    rng = np.random.default_rng(chunk)
    pairs = 0
    for a in algebras + extensions:
        # the identity among the maps sees every corrupted entry of src
        f = np.concatenate([modp.identity(a.dim)[None], a.right])
        rows = np.arange(a.dim)
        for first in range(chunk, a.dim):
            src = a.left.copy()
            hit = [first, first + 1] if chunk > 1 and first + 1 < a.dim and first % chunk < chunk - 1 else [first]
            for k in hit:
                src[k] = _corrupt(src[k], rng, a.p)
            pairs += len(hit) == 2
            want = _grouped_fault_int64(f, src, a.left[:, None], a.p)
            assert want[0] == first
            cases.append((f, src, a.left, rows, a.p, want))
    faults = 0
    for f, src, tgt, rows, p, want in cases:
        monkeypatch.setattr(algebra, "COVER_CELLS", chunk * np.size(f))
        got = intertwine_fault(f, src, tgt, rows, p)
        assert got == want
        faults += got is not None and got[0] >= chunk  # in a later chunk than the first
    assert faults > 150 and pairs >= 30 * (chunk > 1)


def test_intertwine_fault_compares_a_stack_at_the_budget_one_row_at_a_time(truncated, monkeypatch):
    # no array it forms is larger than the budget or f's size, whichever is
    # larger: a stack f of the budget's entries goes one row per product,
    # and one of half as many two rows per product
    a = truncated(5)
    shapes = []
    real = modp.dot

    def dot(x, y, p):
        out = real(x, y, p)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(modp, "dot", dot)
    for maps, rows in ((algebra.COVER_CELLS // a.dim**2 + 1, 1), (algebra.COVER_CELLS // (2 * a.dim**2), 2)):
        f = a.right[np.arange(maps) % a.dim]
        shapes.clear()
        assert intertwine_fault(f, a.left, a.left, np.arange(a.dim), a.p) is None
        assert len(shapes) == 2 * -(-a.dim // rows) and {s[0] for s in shapes} <= {rows, a.dim % rows}
        assert all(np.prod(s) <= max(algebra.COVER_CELLS, f.size) for s in shapes)


def test_validate_algebra_names_the_oracles_non_associative_triple(truncated, rebased_nakayama32):
    kinds = Counter()
    for a in (truncated(4), rebased_nakayama32):
        names, basis = a.names, modp.identity(a.dim)
        for table in _entry_corruptions(a.table):
            bad = GradedAlgebra(a.p, names, a.degrees, table, a.unit, a.idempotents)
            want = _representation_fault_int64(bad.table, bad.left, bad.p)
            try:
                validate_algebra(bad)
            except (UnitMismatch, GradingViolation) as exc:  # checked before associativity
                kinds[type(exc)] += 1
                continue
            except NonAssociative as exc:
                assert want is not None
                i, j, k = want
                assert str(exc) == f"({names[i]} * {names[j]}) * {names[k]} != {names[i]} * ({names[j]} * {names[k]})"
                b_i, b_j, b_k = basis[[i, j, k]]
                assert not np.array_equal(_mul(bad, _mul(bad, b_i, b_j), b_k), _mul(bad, b_i, _mul(bad, b_j, b_k)))
                kinds[NonAssociative] += 1
                continue
            except (IdempotentFault, NotPrimitive, CheckFailed):  # checked after associativity
                pass
            assert want is None
            kinds[None] += 1
    assert sum(kinds.values()) == 4**3 + 9**3
    assert kinds[NonAssociative] > 20 and kinds[None] > 0


def test_associativity_join_matches_the_dense_int64_reference(truncated, rebased_nakayama32, rebased_nakayama):
    # _representation_fault_int64(table, left) is the dense sweep: the first
    # (i, j, k) where L_i L_j e_k != L_{b_i b_j} e_k.  The join must find the
    # very same triple, also on tables the unit or grading check would refuse
    faults = Counter()
    for a in (truncated(4), rebased_nakayama32):
        for table in _entry_corruptions(a.table):
            bad = GradedAlgebra(a.p, a.names, a.degrees, table, a.unit, a.idempotents)
            got = _associativity_fault(bad)
            assert got == _representation_fault_int64(bad.table, bad.left, bad.p)
            faults[got is not None] += 1
    assert faults[True] + faults[False] == 4**3 + 9**3
    assert faults[True] > 700 and faults[False] > 0

    # tables with no non-zeros, or whose non-zeros meet none, join nothing
    table = np.zeros((3, 3, 3), dtype=np.int64)
    for entries in ([], [(0, 1, 2)], [(0, 1, 2), (2, 0, 1)]):
        for idx in entries:
            table[idx] = 1
        bad = GradedAlgebra(P, "abc", [0, 0, 0], table, [1, 0, 0], [[1, 0, 0]])
        assert _associativity_fault(bad) == _representation_fault_int64(bad.table, bad.left, P)

    # t(N(4, 3)) in a dense homogeneous basis: the join of its non-zeros takes
    # several blocks, counted from the table as the join counts them
    t = t_of(rebased_nakayama(4, 3, 43))
    nz = (t.table != 0).astype(np.int64)
    first, third = nz.sum(axis=(1, 2)), nz.sum(axis=(0, 1))
    # each non-zero (i, j, m) meets the m-th first index and the j-th third index
    per_i = np.einsum("ijm,m->i", nz, first) + np.einsum("ijm,j->i", nz, third)
    assert per_i.sum() > _JOIN_BUDGET
    first_block = max(int(np.count_nonzero(np.cumsum(per_i) <= _JOIN_BUDGET)), 1)
    assert _associativity_fault(t) is None
    rng = np.random.default_rng(15)
    found = []
    for _ in range(24):
        bad = GradedAlgebra(t.p, t.names, t.degrees, _corrupt(t.table, rng, t.p), t.unit, t.idempotents)
        got = _associativity_fault(bad)
        assert got == _representation_fault_int64(bad.table, bad.left, bad.p)
        found.append(got)
    assert any(f is not None and f[0] < first_block for f in found)
    assert any(f is not None and f[0] >= first_block for f in found)


def _associativity_fault_argsort(a, budget=_JOIN_BUDGET):
    """The join as it was before values were packed under their keys: an
    argsort of the keys and a gather of keys and values, kept as the oracle."""
    n, p, left = a.dim, a.p, a.left
    n2, n3 = n * n, n * n * n
    flat = np.flatnonzero(left)
    nnz = flat.size
    c = left.ravel()[flat]
    i, rest = np.divmod(flat, n2)
    m, j = np.divmod(rest, n)
    by_m = np.argsort(m)
    first, third = np.bincount(i, minlength=n), np.bincount(m, minlength=n)
    end1, end3 = np.cumsum(first), np.cumsum(third)
    reps = np.concatenate([first[m], third[j]])
    begin = np.concatenate([end1[m] - first[m], end3[j] - third[j] + nnz])
    okey = np.concatenate([i * n3 + j * n2, i * n3 + m])
    ikey = np.concatenate([j * n + m, (i * n2 + j * n)[by_m]])
    oval = np.tile(c, 2)
    ival = np.concatenate([c, p - c[by_m]])
    cost = np.concatenate([[0], np.cumsum(reps[:nnz] + reps[nnz:])])
    if cost[-1] <= budget:
        blocks = [np.arange(2 * nnz)]
    else:
        blocks, lo = [], 0
        while lo < nnz:
            hi = int(np.searchsorted(cost, cost[lo] + budget, "right")) - 1
            if hi < nnz:
                hi = int(end1[i[hi]] - first[i[hi]])
            hi = max(hi, int(end1[i[lo]]))
            blocks.append(np.r_[lo:hi, nnz + lo : nnz + hi])
            lo = hi
    for rows in blocks:
        r = reps[rows]
        outer = np.repeat(rows, r)
        inner = np.repeat(begin[rows] + r - np.cumsum(r), r)
        inner += np.arange(inner.size)
        key = okey[outer] + ikey[inner]
        val = oval[outer] * ival[inner] % p
        order = np.argsort(key)
        key, val = key[order], val[order]
        heads = np.flatnonzero(np.diff(key, prepend=-1))
        bad = np.flatnonzero(np.add.reduceat(val, heads) % p)
        if bad.size:
            k = int(key[heads[bad[0]]])
            return k // n3, k // n2 % n, k // n % n
    return None


def _extensions(a):
    """A, t(A) and T(b(A))."""
    return [a, t_of(a), T_of(beilinson(a))]


def test_packed_join_matches_the_argsort_join(
    graded_corpus, exterior2, truncated, rebased_nakayama32, rebased_nakayama, monkeypatch
):
    # the same triple, or None, as the argsort join: on the algebras and their
    # extensions, and on every single-entry corruption of four small tables,
    # at the real budget and at one that cuts every table into many blocks
    algebras = [a for _, a in graded_corpus] + [rebased_nakayama32, rebased_nakayama(4, 3, 43)]
    for a in algebras:
        for alg in _extensions(a):
            assert _associativity_fault(alg) is None and _associativity_fault_argsort(alg) is None
    faults = Counter()
    for budget in (_JOIN_BUDGET, 16):
        monkeypatch.setattr(algebra, "_JOIN_BUDGET", budget)
        for a in (truncated(4), exterior2, t_of(truncated(3)), rebased_nakayama32):
            for table in _entry_corruptions(a.table):
                bad = GradedAlgebra(a.p, a.names, a.degrees, table, a.unit, a.idempotents)
                got = _associativity_fault(bad)
                assert got == _associativity_fault_argsort(bad)
                faults[got is not None] += 1
    assert faults[True] + faults[False] == 2 * (4**3 + 4**3 + 6**3 + 9**3)
    assert faults[True] > 2000 and faults[False] > 0
    # past the first block of t(N(4, 3)), at the real budget
    monkeypatch.setattr(algebra, "_JOIN_BUDGET", _JOIN_BUDGET)
    t = t_of(rebased_nakayama(4, 3, 43))
    rng = np.random.default_rng(27)
    for _ in range(12):
        bad = GradedAlgebra(t.p, t.names, t.degrees, _corrupt(t.table, rng, t.p), t.unit, t.idempotents)
        assert _associativity_fault(bad) == _associativity_fault_argsort(bad)


@pytest.mark.parametrize("n", [1, 2, 48, 156, 1000, 20642])
def test_join_packing_round_trips_the_largest_key_and_value(n):
    # the largest key of a block, relative to its first i, packed with the
    # largest reduced value at the largest accepted prime, unpacks exactly
    p = max(q for q in range(modp.PRIME_BOUND - 100, modp.PRIME_BOUND + 1) if modp.is_prime(q))
    b, span = _join_packing(n, p)
    assert b == 20 and 1 <= span <= n
    key = span * n**3 - 1
    packed = np.array([key], dtype=np.int64) << b
    packed += p - 1
    assert int(packed[0]) == key * 2**b + p - 1 < 2**63
    assert int(packed[0] >> b) == key and int(packed[0] & (2**b - 1)) == p - 1
    assert span == n or (span + 1) * n**3 * 2**b > 2**63  # no i fewer than fit


def _trace_form_radical(a):
    """The radical and quotient from the trace form of A itself, as they were
    computed before S(A) was read from A_0, kept as the oracle."""
    modp.require_prime_exceeds(a.p, a.dim)
    _, ker = modp.rank_kernel(_trace_form(a), a.p)
    rows, _, _ = homogeneous_row_basis(ker, a.degrees, a.p)
    q, red, sec = quotient_algebra(a, rows)
    assert modp.rank(_trace_form(q), q.p) == q.dim
    return rows, (q, red, sec)


def _reversed_basis(a):
    """``a`` with its basis in reverse order, so degrees fall along it."""
    r = np.arange(a.dim)[::-1]
    return GradedAlgebra(
        a.p, [a.names[t] for t in r], a.degrees[r], a.table[np.ix_(r, r, r)], a.unit[r], a.idempotents[:, r]
    )


def test_radical_from_degree_zero_matches_the_trace_form(
    graded_corpus, rebased_nakayama32, rebased_nakayama, left_only_well_graded, nonsplit_dual_numbers
):
    algebras = [a for _, a in graded_corpus] + [rebased_nakayama32, rebased_nakayama(4, 3, 43)]
    cases = [alg for a in algebras for alg in _extensions(a)] + [left_only_well_graded, nonsplit_dual_numbers]
    cases += [_reversed_basis(a) for a in algebras]
    for a in cases:
        fresh = GradedAlgebra(a.p, a.names, a.degrees, a.table, a.unit, a.idempotents)
        rows, (q, red, sec) = _radical_and_quotient(fresh)
        want_rows, (want_q, want_red, want_sec) = _trace_form_radical(fresh)
        for got, want in ((rows, want_rows), (red, want_red), (sec, want_sec)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert q.same_as(want_q)
        if fresh.top_degree() > 0:
            assert q is semisimple_quotient(degree_zero_subalgebra(fresh))[0]


def test_prime_between_dim_a0_and_dim_a_is_still_refused():
    # dim A_0 = 1 < p = 7 <= dim A = 7: A_0 alone would pass the prime check
    a = corpus.truncated_poly(7, 7)
    with pytest.raises(PrimeTooSmall, match=r"^prime 7 must exceed dim 7$"):
        validate_algebra(a)
    with pytest.raises(PrimeTooSmall, match=r"^prime 7 must exceed the dimension 7$"):
        radical(a)


def test_validate_then_generators_form_one_trace_form_per_object(monkeypatch):
    # a trivially graded A is its own A_0, so primitivity reads S(A) and
    # not S of a copy: one form on A and one on its quotient
    formed, form = [], algebra._trace_form

    def spy(a):
        formed.append(a.dim)
        return form(a)

    monkeypatch.setattr(algebra, "_trace_form", spy)
    poly = corpus.truncated_poly(4)
    flat = GradedAlgebra(P, poly.names, np.zeros(4, dtype=np.int64), poly.table, poly.unit, poly.idempotents)
    for a, dims in ((flat, [4, 1]), (corpus.upper_triangular(3), [6, 3])):
        formed.clear()
        generators(validate_algebra(a))
        assert formed == dims
    # the refusal of a merged idempotent of a trivially graded A stays
    tri = corpus.upper_triangular(2)
    merged = GradedAlgebra(P, tri.names, tri.degrees, tri.table, tri.unit, [tri.unit])
    with pytest.raises(NotPrimitive, match=r"^idempotent 0: Frobenius fixed space has dimension 2$"):
        validate_algebra(merged)


def test_homogeneous_row_basis_matches_rowwise_oracle():
    rng = np.random.default_rng(11)
    for p in (2, 7, P):
        for _ in range(60):
            n = int(rng.integers(1, 10))
            degrees = rng.integers(0, 4, size=n)
            rows = rng.integers(0, p, size=(int(rng.integers(0, 8)), n))
            rows[rng.random(rows.shape) < 0.5] = 0  # sparse, mixed-degree rows
            if rows.shape[0]:
                rows[rng.integers(0, rows.shape[0])] = 0  # a zero row
                d = rng.integers(0, 4)  # a homogeneous row
                rows[rng.integers(0, rows.shape[0]), degrees != d] = 0
            got = homogeneous_row_basis(rows, degrees, p)
            want = _homogeneous_row_basis_rowwise(rows, degrees, p)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert got[2] == want[2]
    # no columns (a module of dimension 0), no rows, and only zero rows
    degrees = np.array([0, 2, 1, 2, 0])
    for rows, degs in ((modp.zeros(3, 0), degrees[:0]), (modp.zeros(0, 5), degrees), (modp.zeros(4, 5), degrees)):
        got = homogeneous_row_basis(rows, degs, P)
        want = _homogeneous_row_basis_rowwise(rows, degs, P)
        assert got[0].shape == want[0].shape == (0, degs.size)
        assert got[1].shape == (0,) and got[2] == want[2] == []
