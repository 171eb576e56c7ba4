import time

import numpy as np
import pytest

from gradedalg import modp


def test_identity_rank_kernel():
    rank, ker = modp.rank_kernel(modp.identity(2), 7)
    assert rank == 2
    assert ker.shape == (0, 2)


def test_zero_matrix_rank_kernel():
    rank, ker = modp.rank_kernel(modp.zeros(2, 2), 7)
    assert rank == 0
    assert ker.shape == (2, 2)


def test_rank_one_kernel_line():
    # [[1,2],[2,4]] over F_7: single pivot, kernel on the line (2, -1)
    m = np.array([[1, 2], [2, 4]])
    rank, ker = modp.rank_kernel(m, 7)
    assert rank == 1
    assert ker.shape == (1, 2)
    assert not np.any(m @ ker[0] % 7)
    v = ker[0]
    ref = np.array([2, -1]) % 7
    assert (v[0] * ref[1] - v[1] * ref[0]) % 7 == 0  # proportional


def test_invert_identity_and_swap():
    assert np.array_equal(modp.invert(modp.identity(3), 7), modp.identity(3))
    swap = np.array([[0, 1], [1, 0]])
    assert np.array_equal(modp.invert(swap, 7), swap)


def test_invert_unipotent():
    p = 7919
    m = np.array([[1, 1], [0, 1]])
    assert np.array_equal(modp.invert(m, p), np.array([[1, p - 1], [0, 1]]))


def test_invert_singular():
    assert modp.invert(np.array([[1, 2], [2, 4]]), 7) is None


@pytest.mark.parametrize("p", [2, 5, 7919])
def test_random_rank_nullity_and_inverse(p):
    rng = np.random.default_rng(12345)
    for _ in range(25):
        rows, cols = rng.integers(1, 9, size=2)
        m = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
        rank, ker = modp.rank_kernel(m, p)
        assert rank + ker.shape[0] == cols
        for v in ker:
            assert not np.any((m @ v) % p)
        if ker.shape[0]:
            assert modp.rank(ker, p) == ker.shape[0]
    for _ in range(25):
        n = int(rng.integers(1, 8))
        m = rng.integers(0, p, size=(n, n), dtype=np.int64)
        inv = modp.invert(m, p)
        full = modp.rank(m, p) == n
        assert (inv is not None) == full
        if inv is not None:
            assert np.array_equal(modp.mat_mul(inv, m, p), modp.identity(n))
            assert np.array_equal(modp.mat_mul(m, inv, p), modp.identity(n))


def loop_rank_kernel(m, p):
    """The double loop over free x pivot columns that rank_kernel replaced."""
    a = modp.normalize(m, p)
    red, pivots = modp.rref(a, p)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    ker = modp.zeros(len(free), a.shape[1])
    for t, f in enumerate(free):
        ker[t, f] = 1
        for r, c in enumerate(pivots):
            ker[t, c] = (-red[r, f]) % p
    return len(pivots), ker


def test_rank_kernel_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for p in (2, 7, 7919):
        cases = [modp.zeros(0, 0), modp.zeros(0, 4), modp.zeros(3, 0), modp.zeros(3, 5)]
        cases += [modp.identity(4), np.hstack([modp.identity(3), rng.integers(0, p, size=(3, 2))])]
        for _ in range(40):
            rows, cols, r = (int(v) for v in rng.integers(1, 9, size=3))
            # rank at most r, so the kernels are not all empty
            cases.append(rng.integers(0, p, size=(rows, r)) @ rng.integers(0, p, size=(r, cols)))
            cases.append(rng.integers(0, p, size=(rows, cols)))
        for m in cases:
            rank, ker = modp.rank_kernel(m, p)
            want_rank, want = loop_rank_kernel(m, p)
            assert rank == want_rank
            assert ker.dtype == want.dtype and ker.shape == want.shape
            assert np.array_equal(ker, want)


def test_mat_pow_negative():
    p = 7919
    m = np.array([[1, 1], [0, 1]])
    assert np.array_equal(modp.mat_pow(m, -2, p), np.array([[1, p - 2], [0, 1]]))


@pytest.mark.parametrize("shape", [(4, 3, 3), (2, 5, 1, 1)])
def test_mat_pow_on_a_stack_matches_each_matrix(shape):
    p = 7919
    stack = np.random.default_rng(len(shape)).integers(0, p, size=shape)
    for k in (0, 1, 2, p, p + 1):
        got = modp.mat_pow(stack, k, p)
        assert got.shape == stack.shape
        for idx in np.ndindex(shape[:-2]):
            assert np.array_equal(got[idx], modp.mat_pow(stack[idx], k, p)), (shape, k, idx)
    with pytest.raises(ValueError):
        modp.mat_pow(stack, -1, p)


def test_prime_bound_keeps_int64_exact():
    # (p - 1)^2 * MAX_INNER fits in int64 at the bound and not one past it
    bound = modp.PRIME_BOUND
    assert (bound - 1) ** 2 * modp.MAX_INNER <= 2**63 - 1
    assert bound**2 * modp.MAX_INNER > 2**63 - 1
    # the largest accepted prime, summed over the longest inner dimension
    p = max(q for q in range(bound - 10, bound + 1) if modp.is_prime(q))
    assert modp.require_prime(p) == p
    # the int64 product then % p, as in every int64 contraction; (p - 1)^2 = 1 mod p
    row = np.broadcast_to(np.int64(p - 1), (1, modp.MAX_INNER))
    assert ((row @ row.T) % p)[0, 0] == modp.MAX_INNER % p


def test_require_prime_refuses_past_the_bound():
    bound = modp.PRIME_BOUND
    with pytest.raises(ValueError, match="not prime"):
        modp.require_prime(bound)  # 2^20
    with pytest.raises(ValueError, match="exceeds"):
        modp.require_prime(bound + 1)
    nxt = next(q for q in range(bound + 1, bound + 100) if modp.is_prime(q))
    with pytest.raises(ValueError, match="exceeds"):
        modp.require_prime(nxt)
    # where mat_mul would overflow: a 1x3 by 3x1 product of (p - 1)s is 3
    with pytest.raises(ValueError, match="exceeds"):
        modp.require_prime(2**31 - 1)


def test_require_prime_refuses_huge_prime_quickly():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds"):
        modp.require_prime(10**15 + 37)
    assert time.perf_counter() - start < 0.1


def test_dot_is_exact_past_one_block():
    # 8200 products of (p - 1)s sum past 2^53, so they take two blocks; the
    # odd squares of (p - 2)s also lose their last bit in one float64 sum
    p = 1048573
    assert modp.block_len(p) == 8192 and 8200 * (p - 2) ** 2 > 2**53
    for v in (p - 1, p - 2):
        row = np.full((1, 8200), v, dtype=np.int64)
        assert modp.mat_mul(row, row.T, p)[0, 0] == 8200 * v**2 % p


@pytest.mark.parametrize("p", [2, 3, 7919, 1048573])
def test_dot_matches_python_integers(p):
    # stacks and inner dimensions on both sides of a block boundary
    rng = np.random.default_rng(p)
    for k in (1, 17, 8191, 8192, 8193, 20000):
        a = rng.integers(0, p, size=(2, 3, k))
        b = rng.integers(0, p, size=(k, 2))
        a[0, 0] = p - 1
        b[:, 0] = p - 1
        got = modp.dot(a, b, p)
        want = (a.astype(object) @ b.astype(object)) % p
        assert np.all((got % p).astype(np.int64) == want.astype(np.int64))
        assert got.min() >= 0 and got.max() < 2**53


def _rref_outer(m, p):
    """Gauss-Jordan updating every row with a full outer product per pivot."""
    a = modp.normalize(m, p)
    nrows, ncols = a.shape
    pivots = []
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
        a[r] = (a[r] * modp.inv_scalar(int(a[r, c]), p)) % p
        col = a[:, c].copy()
        col[r] = 0
        if np.any(col):
            a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


@pytest.mark.parametrize("p", [2, 7, 7919])
def test_rref_matches_outer_product_oracle(p):
    rng = np.random.default_rng(100 + p)
    for _ in range(60):
        rows, cols = (int(x) for x in rng.integers(1, 12, size=2))
        m = rng.integers(0, p, size=(rows, cols))
        m[rng.random(m.shape) < rng.random()] = 0  # sparse columns, zero rows
        if rng.integers(0, 2) and rows > 1:
            m[-1] = m[0] * 3 % p  # a dependent row
        frozen = m.copy()
        red, piv = modp.rref(m, p)
        want, want_piv = _rref_outer(m, p)
        assert np.array_equal(red, want) and red.dtype == want.dtype
        assert piv == want_piv
        assert np.array_equal(m, frozen) and red is not m


LARGEST_PRIME = next(q for q in range(modp.PRIME_BOUND, 1, -1) if modp.is_prime(q))


@pytest.mark.parametrize("p", [2, 7919, LARGEST_PRIME])
def test_ranks_match_rank_on_padded_stacks(p):
    # zero, rank-deficient (a product through k < min(rows, cols)), tall,
    # wide and column-free systems, zero-padded into stacks of one shape;
    # rrefs, which reads the same elimination, gives each the rows and
    # pivots of rref, then zero rows
    rng = np.random.default_rng(7 + p % 1000)
    mats = [modp.zeros(0, 0), modp.zeros(4, 0), modp.zeros(0, 3), modp.zeros(5, 4)]
    for _ in range(80):
        rows, cols = (int(x) for x in rng.integers(1, 10, size=2))
        k = int(rng.integers(0, min(rows, cols) + 1))
        m = rng.integers(0, p, size=(rows, k)) @ rng.integers(0, p, size=(k, cols)) % p
        if rng.integers(0, 2):
            m = rng.integers(0, p, size=(rows, cols))
            m[rng.random(m.shape) < rng.random()] = 0
        mats.append(m)
    mats.append(np.full((9, 3), p - 1))
    want = [modp.rank(m, p) if m.size else 0 for m in mats]
    assert 0 in want[4:] and any(w < min(m.shape) for w, m in zip(want, mats) if m.size)
    for lo in range(0, len(mats), 25):  # stacks of several shapes
        part = mats[lo : lo + 25]
        stack = modp.zeros(len(part), max(m.shape[0] for m in part), max(m.shape[1] for m in part))
        for s, m in zip(stack, part):
            s[: m.shape[0], : m.shape[1]] = m
        frozen = stack.copy()
        assert modp.ranks(stack, p).tolist() == want[lo : lo + 25]
        assert np.array_equal(stack, frozen)
        assert modp.ranks(stack.transpose(0, 2, 1), p).tolist() == want[lo : lo + 25]
        rows, pivots = modp.rrefs(stack, p)
        assert np.array_equal(stack, frozen) and rows.shape == (len(part), stack.shape[2], stack.shape[2])
        for m, got, piv in zip(part, rows, pivots):
            red, want_piv = modp.rref(m, p) if m.size else (modp.zeros(0, m.shape[1]), [])
            assert np.flatnonzero(piv).tolist() == want_piv
            assert np.array_equal(got[: len(want_piv), : m.shape[1]], red[: len(want_piv)])
            assert not got[len(want_piv) :].any() and not got[:, m.shape[1] :].any()
    assert modp.ranks(modp.zeros(3, 4, 0), p).tolist() == [0, 0, 0]
    assert modp.ranks(modp.zeros(0, 2, 2), p).tolist() == []
    assert modp.rrefs(modp.zeros(3, 0, 4), p)[1].shape == (3, 4)
    for kernel in (modp.ranks, modp.rrefs):
        with pytest.raises(ValueError, match="3-d"):
            kernel(modp.zeros(2, 2), p)
