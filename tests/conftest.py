import numpy as np
import pytest

from gradedalg import corpus, modp
from gradedalg.algebra import GradedAlgebra, validate_algebra
from gradedalg.modp import DEFAULT_PRIME

P = DEFAULT_PRIME


@pytest.fixture(scope="session")
def truncated():
    cache = {}

    def make(n):
        if n not in cache:
            cache[n] = validate_algebra(corpus.truncated_poly(n))
        return cache[n]

    return make


@pytest.fixture(scope="session")
def exterior2():
    return validate_algebra(corpus.exterior(2))


@pytest.fixture(scope="session")
def exterior1():
    return validate_algebra(corpus.exterior(1))


@pytest.fixture(scope="session")
def a4():
    """k x k[x]/(x^2): self-injective, not well-graded."""
    return validate_algebra(corpus.product_counterexample())


@pytest.fixture(scope="session")
def uppertri():
    cache = {}

    def make(c):
        if c not in cache:
            cache[c] = validate_algebra(corpus.upper_triangular(c))
        return cache[c]

    return make


@pytest.fixture(scope="session")
def graded_corpus(truncated, exterior1, exterior2, a4):
    """Every bundled algebra with a nontrivial grading."""
    return [
        ("k[x]/(x^2)", truncated(2)),
        ("k[x]/(x^3)", truncated(3)),
        ("k[x]/(x^4)", truncated(4)),
        ("k[x]/(x^5)", truncated(5)),
        ("Lambda(x)", exterior1),
        ("Lambda(x,y)", exterior2),
        ("k x k[x]/(x^2)", a4),
    ]


@pytest.fixture(scope="session")
def equivalence_corpus(truncated, exterior1, exterior2):
    """The well-graded self-injective algebras with basic degree-0 part."""
    return [
        ("k[x]/(x^2)", truncated(2)),
        ("k[x]/(x^3)", truncated(3)),
        ("k[x]/(x^4)", truncated(4)),
        ("k[x]/(x^5)", truncated(5)),
        ("Lambda(x)", exterior1),
        ("Lambda(x,y)", exterior2),
    ]


@pytest.fixture(scope="session")
def matrix2x2():
    """Full 2x2 matrix algebra over k, trivially graded (non-basic)."""
    cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
    pos = {rs: i for i, rs in enumerate(cells)}
    table = np.zeros((4, 4, 4), dtype=np.int64)
    for (r, s) in cells:
        for (r2, s2) in cells:
            if s == r2:
                table[pos[(r, s)], pos[(r2, s2)], pos[(r, s2)]] = 1
    unit = np.zeros(4, dtype=np.int64)
    unit[pos[(0, 0)]] = 1
    unit[pos[(1, 1)]] = 1
    idems = np.zeros((2, 4), dtype=np.int64)
    idems[0, pos[(0, 0)]] = 1
    idems[1, pos[(1, 1)]] = 1
    a = GradedAlgebra(P, ["m00", "m01", "m10", "m11"], [0] * 4, table, unit, idems)
    return validate_algebra(a)


@pytest.fixture(scope="session")
def product_of_duals():
    """k[x]/(x^2) x k[y]/(y^2) with deg x = deg y = 1: two idempotents,
    well-graded self-injective with basic degree-0 part."""
    import numpy as np

    table = np.zeros((4, 4, 4), dtype=np.int64)
    table[0, 0, 0] = 1
    table[1, 1, 1] = 1
    table[0, 2, 2] = 1
    table[2, 0, 2] = 1
    table[1, 3, 3] = 1
    table[3, 1, 3] = 1
    a = GradedAlgebra(
        P, ["e", "f", "x", "y"], [0, 0, 1, 1], table, [1, 1, 0, 0],
        [[1, 0, 0, 0], [0, 1, 0, 0]],
    )
    return validate_algebra(a)


@pytest.fixture(scope="session")
def swap_twisted_extension():
    """T((k x k)^swap): twisted trivial extension with a genuine twist."""
    import numpy as np

    from gradedalg.construct import AlgebraAutomorphism
    from helpers import T_twisted

    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[0, 0, 0] = 1
    table[1, 1, 1] = 1
    kk = validate_algebra(
        GradedAlgebra(P, ["e1", "e2"], [0, 0], table, [1, 1], [[1, 0], [0, 1]])
    )
    swap = AlgebraAutomorphism(kk, np.array([[0, 1], [1, 0]])).validate()
    return validate_algebra(T_twisted(kk, swap))


@pytest.fixture(scope="session")
def product_c2():
    """k[x]/(x^3) x k[y]/(y^3): top degree 2 with two idempotents."""
    import numpy as np

    table = np.zeros((6, 6, 6), dtype=np.int64)
    table[0, 0, 0] = 1
    table[1, 1, 1] = 1
    for e, v, v2 in ((0, 2, 4), (1, 3, 5)):
        table[e, v, v] = 1
        table[v, e, v] = 1
        table[e, v2, v2] = 1
        table[v2, e, v2] = 1
        table[v, v, v2] = 1
    a = GradedAlgebra(
        P, ["e", "f", "x", "y", "x2", "y2"], [0, 0, 1, 1, 2, 2], table,
        [1, 1, 0, 0, 0, 0], [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]],
    )
    return validate_algebra(a)


@pytest.fixture(scope="session")
def nonsplit_dual_numbers():
    """F_{p^2}[x]/(x^2) with deg x = 1: the simple has a 2-dimensional
    endomorphism field (p = 3 mod 4, so i^2 = -1 is irreducible)."""
    import numpy as np

    assert P % 4 == 3
    table = np.zeros((4, 4, 4), dtype=np.int64)
    prods = {
        (0, 0): [(0, 1)], (0, 1): [(1, 1)], (1, 0): [(1, 1)], (1, 1): [(0, P - 1)],
        (0, 2): [(2, 1)], (2, 0): [(2, 1)], (0, 3): [(3, 1)], (3, 0): [(3, 1)],
        (1, 2): [(3, 1)], (2, 1): [(3, 1)], (1, 3): [(2, P - 1)], (3, 1): [(2, P - 1)],
    }
    for (i, j), terms in prods.items():
        for k, coeff in terms:
            table[i, j, k] = coeff
    a = GradedAlgebra(
        P, ["1", "i", "x", "ix"], [0, 0, 1, 1], table, [1, 0, 0, 0], [[1, 0, 0, 0]]
    )
    return validate_algebra(a)


@pytest.fixture(scope="session")
def kx2_degree0(truncated):
    """k[x]/(x^2) regraded into degree 0 (periodic syzygies)."""
    base = truncated(2)
    a = GradedAlgebra(P, list(base.names), [0, 0], base.table, base.unit, base.idempotents)
    return validate_algebra(a)


@pytest.fixture(scope="session")
def left_only_well_graded():
    """e1, e2 in degree 0, beta = e1 beta e1 and alpha = e2 alpha e1 in
    degree 1, all degree-2 products zero: e_i A_1 != 0 for both i, but
    A_1 e2 = 0, so left well-graded and not right well-graded."""
    import numpy as np

    table = np.zeros((4, 4, 4), dtype=np.int64)
    table[0, 0, 0] = 1
    table[1, 1, 1] = 1
    table[0, 2, 2] = 1  # e1 beta
    table[2, 0, 2] = 1  # beta e1
    table[1, 3, 3] = 1  # e2 alpha
    table[3, 0, 3] = 1  # alpha e1
    a = GradedAlgebra(
        P, ["e1", "e2", "beta", "alpha"], [0, 0, 1, 1], table, [1, 1, 0, 0],
        [[1, 0, 0, 0], [0, 1, 0, 0]],
    )
    return validate_algebra(a)


def _rebased_nakayama(n_vertices, k, seed):
    """N(n, k), the cyclic quiver on n vertices modulo paths of length > k,
    rewritten in a seeded random basis that keeps every vector homogeneous."""
    paths = [(i, l) for l in range(k + 1) for i in range(n_vertices)]  # path from i of length l
    pos = {path: t for t, path in enumerate(paths)}
    n = len(paths)
    table = np.zeros((n, n, n), dtype=np.int64)
    for (i, l), s in pos.items():
        for (j, m), u in pos.items():
            if j == (i + l) % n_vertices and l + m <= k:
                table[s, u, pos[(i, l + m)]] = 1
    degrees = np.array([l for _, l in paths])
    idems = np.eye(n_vertices, n, dtype=np.int64)
    rng = np.random.default_rng(seed)
    basis = np.zeros((n, n), dtype=np.int64)  # column t: old coordinates of new vector t
    for d in range(k + 1):
        idx = np.nonzero(degrees == d)[0]
        while True:
            block = rng.integers(1, P, size=(idx.size, idx.size))
            if modp.invert(block, P) is not None:
                break
        basis[np.ix_(idx, idx)] = block
    inv = modp.invert(basis, P)
    half = np.einsum("si,suk->iuk", basis, table) % P
    prods = np.einsum("uj,iuk->ijk", basis, half) % P
    new_table = np.einsum("lk,ijk->ijl", inv, prods) % P
    names = [f"p{i}_{l}" for i, l in paths]
    a = GradedAlgebra(
        P, names, degrees, new_table, inv @ idems.sum(axis=0) % P, idems @ inv.T % P
    )
    return validate_algebra(a)


@pytest.fixture(scope="session")
def rebased_nakayama():
    """Factory for rebased N(n, k); N(3, 2) is the ``rebased_nakayama32`` fixture."""
    return _rebased_nakayama


@pytest.fixture(scope="session")
def rebased_nakayama32():
    """N(3, 2) in a seeded random homogeneous basis: three idempotents, a
    non-trivial Nakayama permutation, dense products."""
    return _rebased_nakayama(3, 2, 32)
