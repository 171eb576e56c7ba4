"""A fixed reference computation that measures how fast the host runs now.

On a shared host the speed of a vCPU drifts by tens of percent over
minutes, more than the changes the benchmark must resolve.  The reference
work is timed before and after every job and every set-up, and the
benchmark scales their times by ``REFERENCE_S`` over the mean of the two
reference times.  The reference work does not call gradedalg, so a change
to the library leaves it alone.  It has the library's instruction mix, a
Python loop of small int64 numpy operations (Gauss-Jordan elimination
mod p, as in ``modp.rref``), so host slow-downs hit both alike.
"""

from __future__ import annotations

import time

import numpy as np

P = 7919
#: Reference time in seconds: the median of ``reference_s()`` on the host
#: where the baseline was recorded (Intel Xeon, 2 vCPUs, Python 3.11,
#: numpy 2.4).  Scaled times are seconds at that speed.
REFERENCE_S = 0.16
PASSES = 30


def _eliminate(a: np.ndarray) -> int:
    """Rank of ``a`` mod P, by the same row operations as modp.rref."""
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, P)) % P
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % P
        r += 1
    return r


_MATRICES = [
    np.random.default_rng(k).integers(0, P, size=(24, 32), dtype=np.int64) for k in range(12)
]


def reference_s() -> float:
    """Wall time of one pass of the reference work."""
    start = time.perf_counter()
    total = sum(_eliminate(m.copy()) for _ in range(PASSES) for m in _MATRICES)
    if total != 24 * PASSES * len(_MATRICES):
        raise RuntimeError(f"reference elimination found rank sum {total}")
    return time.perf_counter() - start
