"""The one stored array of structure constants, and the trace form read off it.

``GradedAlgebra`` keeps only the left-regular stack ``left``; ``table`` and
``right`` are views of it.  The radical comes from the trace form
gram[i, j] = sum_k table[i, j, k] trace(L_k); the reference below is the
definition trace(L_i L_j), which it equals on every associative algebra.
"""

import numpy as np
import pytest

from gradedalg import modp
from gradedalg.algebra import (
    GradedAlgebra,
    _trace_form,
    degree_zero_subalgebra,
    homogeneous_row_basis,
    radical,
    semisimple_quotient,
)
from gradedalg.construct import T_of, beilinson, t_of

P = 7919


def _storage_corpus(graded_corpus, truncated):
    algebras = [(name, a) for name, a in graded_corpus]
    algebras.append(("t(k[x]/(x^3))", t_of(truncated(3))))
    algebras.append(("T(b(k[x]/(x^3)))", T_of(beilinson(truncated(3)))))
    return algebras


def test_one_stored_array_with_two_views(graded_corpus, truncated):
    for name, a in _storage_corpus(graded_corpus, truncated):
        assert np.shares_memory(a.table, a.left), name
        assert np.shares_memory(a.right, a.left), name
        assert a.left.flags.c_contiguous, name
        for arr in (a.left, a.table, a.right):
            assert not arr.flags.writeable, name
        # rebuilt from a plain copy of its table: the stacks the old cached copies held
        given = np.array(a.table)
        b = GradedAlgebra(a.p, a.names, a.degrees, given, a.unit, a.idempotents)
        assert np.array_equal(b.table, given), name
        assert np.array_equal(b.left, given.transpose(0, 2, 1)), name
        assert np.array_equal(b.right, given.transpose(1, 2, 0)), name
        assert b.same_as(a), name


def test_unreduced_table_gives_the_reduced_algebra(graded_corpus, truncated):
    rng = np.random.default_rng(13)
    for name, a in _storage_corpus(graded_corpus, truncated):
        raw = a.table + a.p * rng.integers(-1, 2, size=a.table.shape)
        raw.flat[:2] = [-1, a.p + 1]
        got = GradedAlgebra(a.p, a.names, a.degrees, raw, a.unit, a.idempotents)
        want = GradedAlgebra(a.p, a.names, a.degrees, raw % a.p, a.unit, a.idempotents)
        assert got.same_as(want), name
        assert np.array_equal(got.table, raw % a.p), name


@pytest.mark.parametrize(
    "change, message",
    [
        ({"names": ["x", "x"]}, "basis names must be unique"),
        ({"degrees": [0]}, "degrees must match the basis length"),
        ({"degrees": [0, 1, 2]}, "degrees must match the basis length"),
        ({"degrees": [0, -1]}, "degrees must be nonnegative"),
        ({"table": np.zeros((2, 2), dtype=np.int64)}, r"structure table must have shape \(n, n, n\)"),
        ({"table": np.zeros((2, 2, 3), dtype=np.int64)}, r"structure table must have shape \(n, n, n\)"),
        ({"table": np.zeros((3, 2, 2), dtype=np.int64)}, r"structure table must have shape \(n, n, n\)"),
        ({"table": np.zeros((2, 2, 2, 1), dtype=np.int64)}, r"structure table must have shape \(n, n, n\)"),
        ({"unit": [1, 0, 0]}, "unit must be a coordinate vector"),
        ({"unit": [[1, 0]]}, "unit must be a coordinate vector"),
    ],
)
def test_malformed_input_is_refused_by_name(truncated, change, message):
    a = truncated(2)
    args = {
        "names": a.names, "degrees": a.degrees, "table": a.table,
        "unit": a.unit, "idempotents": a.idempotents,
    }
    args.update(change)
    with pytest.raises(ValueError, match=f"^{message}$"):
        GradedAlgebra(a.p, **args)


def ref_trace_gram(a):
    """gram[i, j] = trace(L_i L_j), from the flattened left-regular stack."""
    n = a.dim
    flat = a.left.reshape(n, n * n)
    flat_t = a.left.transpose(0, 2, 1).reshape(n, n * n)
    return (flat @ flat_t.T) % a.p


def ref_radical(a):
    _, ker = modp.rank_kernel(ref_trace_gram(a), a.p)
    return homogeneous_row_basis(ker, a.degrees, a.p)[0]


def test_trace_form_matches_the_trace_of_products(graded_corpus, rebased_nakayama32):
    bases = [a for _, a in graded_corpus] + [rebased_nakayama32]
    algebras = []
    for a in bases:
        algebras += [a, t_of(a), T_of(beilinson(a))]
    checked = 0
    for a in algebras:
        for alg in (a, degree_zero_subalgebra(a), semisimple_quotient(a)[0]):
            assert np.array_equal(_trace_form(alg), ref_trace_gram(alg)), alg
            assert np.array_equal(radical(alg), ref_radical(alg)), alg
            checked += 1
    assert checked == 3 * 3 * len(bases)
