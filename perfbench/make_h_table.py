"""Regenerate ``h_table.npy``: ``h(i/N) = phi(Phi^-1(i/N))`` as double-doubles.

The table holds ``i = 0 .. N/2`` for ``N = 10**4`` (the upper half follows
from ``h(1-u) = h(u)``); column 0 is the nearest double, column 1 the
rounded remainder, so ``hi + lo`` carries ~32 significant digits.  Every
``n`` dividing ``N`` reads its boundary values from the same table.  The
values do not depend on any seed, so they are computed once, with mpmath
at 40 digits (about 4 s), and stored next to the benchmark:

    python3 perfbench/make_h_table.py
"""

import mpmath
import numpy as np

from oracle import TABLE_N, TABLE_PATH


def h_exact(i: int, n: int) -> mpmath.mpf:
    """``h(i/n)`` at the current mpmath precision; 0 at both ends."""
    if i <= 0 or i >= n:
        return mpmath.mpf(0)
    u = mpmath.mpf(i) / n
    x = mpmath.sqrt(2) * mpmath.erfinv(2 * u - 1)
    return mpmath.npdf(x)


def build() -> np.ndarray:
    out = np.zeros((TABLE_N // 2 + 1, 2))
    with mpmath.workdps(40):
        for i in range(1, TABLE_N // 2 + 1):
            h = h_exact(i, TABLE_N)
            hi = float(h)
            out[i] = hi, float(h - hi)
    return out


if __name__ == "__main__":
    np.save(TABLE_PATH, build())
    print(f"wrote {TABLE_PATH}")
