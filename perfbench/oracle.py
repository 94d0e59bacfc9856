"""Offline high-precision reference for ``w2sq_vs_gaussian``.

For a sorted sample ``z`` of size ``n`` against N(0, 1),

    W2^2 = (1/n) sum z_i^2 + 2 sum z_i (H_i - H_{i-1}) + 1,  H_i = h(i/n),

a sum of terms of size ~1 whose result is ~log log n / n.  The reference
evaluates it without rounding error: every product ``z_i * H_i`` is split
into an exact pair of doubles (Dekker's two-product), ``math.fsum`` rounds
the exact sum once, a second ``fsum`` recovers the residual, and the final
combination is done in exact rationals.  The only approximation left is the
stored double-double ``H`` table (~1e-32 relative), so the reference is
good to far below the kernel's ~1e-14 error.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

TABLE_N = 10 ** 4  # the stored table holds h(i/TABLE_N), i = 0..TABLE_N/2
TABLE_PATH = Path(__file__).with_name("h_table.npy")

_SPLITTER = 134217729.0  # 2^27 + 1


def h_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Double-double ``h(i/n)`` for ``i = 0..n``; ``n`` must divide 10^4."""
    if n < 2 or TABLE_N % n:
        raise ValueError(f"probe n must divide {TABLE_N}, got {n}")
    half = np.load(TABLE_PATH)
    i = np.arange(n + 1)
    rows = np.minimum(i, n - i) * (TABLE_N // n)
    return half[rows, 0], half[rows, 1]


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a: np.ndarray, b: np.ndarray):
    """``p + e == a * b`` exactly (no overflow or underflow here)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def _exact_sum(parts) -> Fraction:
    """The sum of all entries of ``parts`` to ~2^-106 relative."""
    terms = np.concatenate(parts).tolist()
    hi = math.fsum(terms)
    lo = math.fsum(terms + [-hi])
    return Fraction(hi) + Fraction(lo)


def reference_w2sq(z: np.ndarray, table=None) -> Fraction:
    """High-precision ``W2^2(F_n, N(0,1))`` of the sorted sample ``z``."""
    n = z.size
    h_hi, h_lo = table if table is not None else h_table(n)
    sq = _exact_sum(_two_product(z, z))
    up = _two_product(z, h_hi[1:])
    down = _two_product(z, h_hi[:-1])
    cross = _exact_sum([up[0], up[1], z * h_lo[1:],
                        -down[0], -down[1], -(z * h_lo[:-1])])
    return sq / n + 2 * cross + 1


def relative_error(value: float, reference: Fraction) -> float:
    return float(abs(Fraction(value) - reference) / reference)
