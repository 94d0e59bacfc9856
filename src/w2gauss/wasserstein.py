"""Exact squared 2-Wasserstein distances from sorted Gaussian samples.

The empirical quantile function of a sorted sample ``Z_1 <= ... <= Z_n`` is
the right-continuous step ``F_n^{-1}(u) = Z_{ceil(nu)}``, so the defining
integral ``W_2^2 = int_0^1 |F_n^{-1}(u) - F^{-1}(u)|^2 du`` against a
Gaussian reference splits over the cells ``((i-1)/n, i/n]`` and is computed
in closed form from the two antiderivatives

* ``int Phi^{-1}(u) du = -h(u)``  with ``h(u) = phi(Phi^{-1}(u))``,
* ``int Phi^{-1}(u)^2 du = u - Phi^{-1}(u) h(u)``,

both of which extend continuously to the endpoints (``h -> 0``), so no
truncation is ever needed.

The distance itself is assembled per cell without cancellation.  With
``m_i = n int_cell Phi^{-1}`` the cell mean of the reference quantile and
``V_n = sum_i int_cell (Phi^{-1} - m_i)^2`` the sum of the within-cell
variances (both from :func:`_cell_tables`, cached per n),

    W_2^2(F_n, N(mu, sigma^2)) = (1/n) sum_i (Z_i - mu - sigma m_i)^2
                                 + sigma^2 V_n,

a sum of nonnegative terms, reduced row-wise by one pairwise
``np.add.reduce`` (no BLAS, so the bytes do not depend on the BLAS thread
count).  Against an exact-sum reference on a double-double ``h`` table,
the largest relative error over seeded standard-normal samples was
1.8e-15 at n = 1e3 and 1e4 (200 samples each) and 4.2e-15 at n = 1e5
(20 samples); ``tests/test_wasserstein.py`` holds it to 1e-13.  The
expansion ``mean(Z^2) + 2 sum Z_i (H_i - H_{i-1}) + 1`` that it replaced
cancels terms of size 1 and reached 4.7e-13, 4.1e-12 and 3.0e-11 there.

The module also provides the two-sample distance on a common grid, the
upper-tail decomposition of the half integral into the pieces A, B, C, D
used to separate extreme-rank and bulk contributions, and the exact mean
``E[n W_2^2]`` as one integral of nonnegative Bregman gaps of ``h``.
The pieces sum the same cell form ``((Z_i - m_i)^2 + v_i)/n``, with the
per-cell variances ``v_i`` of the same table; the two partial intervals
take their mean and variance from the same truncated-normal moments, so
every piece is a sum of nonnegative terms and none needs clamping.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
from scipy.special import ndtri

from .errors import DomainError, QuadratureError
from .special import _SQRT_2PI, _de_quad
from .streams import _integer

__all__ = [
    "GaussianReference",
    "SortedSample",
    "W2Decomposition",
    "quantile_integral",
    "quantile_sq_integral",
    "w2sq_vs_gaussian",
    "w2sq_two_sample",
    "tail_decomposition",
    "expected_one_sample_w2sq",
]

@dataclasses.dataclass(frozen=True)
class GaussianReference:
    """A Gaussian reference law N(mu, sigma^2) with sigma > 0."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        # real numbers through float(), as as_correlation; not strings
        try:
            mu, sigma = (math.nan if isinstance(v, str) else float(v)
                         for v in (self.mu, self.sigma))
        except (TypeError, ValueError):
            mu = sigma = math.nan
        if not (math.isfinite(mu) and math.isfinite(sigma) and sigma > 0.0):
            raise DomainError(
                f"GaussianReference requires finite mu and sigma > 0, "
                f"got mu={self.mu!r}, sigma={self.sigma!r}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)


STANDARD = GaussianReference(0.0, 1.0)


def _check_sorted_rows(rows: np.ndarray) -> None:
    """``DomainError`` unless every last-axis row is a sorted sample.

    A row passes when its endpoints are finite and each neighbour pair is
    ordered; a NaN fails the ordering, and an infinity in a nondecreasing
    row would sit at an endpoint.
    """
    if not np.isfinite(rows[..., [0, -1]]).all():
        raise DomainError("a sorted sample requires finite values")
    if not (rows[..., 1:] >= rows[..., :-1]).all():
        raise DomainError("sorted sample values must be finite and "
                          "nondecreasing")


@dataclasses.dataclass(frozen=True)
class SortedSample:
    """An ascending sample of finite reals; rank i holds the order statistic.

    ``values`` is stored as a read-only float array.  Construction checks
    sortedness; use :meth:`from_unsorted` to sort a raw draw (stable, so
    ties keep their input order).
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError("SortedSample requires a 1-d sample with n >= 1")
        _check_sorted_rows(arr[np.newaxis])
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_unsorted(cls, values) -> "SortedSample":
        arr = np.sort(np.asarray(values, dtype=float), kind="stable")
        return cls(arr)

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclasses.dataclass(frozen=True)
class W2Decomposition:
    """Upper-half-integral decomposition into pieces A, B, C, D.

    ``a_n + b_n`` cover the top cell ``(1-1/n, 1]`` split at
    ``1 - 1/(n (log n)^gamma)``; ``c_n`` sums the next ``K-1`` extreme
    cells; ``d_n`` is the bulk over ``[1/2, 1 - K/n]`` where
    ``K = floor(C (log n)^theta)`` and ``cut = K/n``.  The four pieces add
    up to the exact half integral ``int_{1/2}^1 (F_n^{-1} - Phi^{-1})^2``.
    """

    a_n: float
    b_n: float
    c_n: float
    d_n: float
    C: float
    theta: float
    gamma: float
    n: int
    half_total: float
    K: int
    cut: float

    def __post_init__(self):
        pieces = (self.a_n, self.b_n, self.c_n, self.d_n)
        if any(p < 0 for p in pieces):
            raise DomainError(f"decomposition pieces must be >= 0, got {pieces}")
        total = sum(pieces)
        tol = 1e-10 * max(1.0, abs(self.half_total))
        if abs(total - self.half_total) > tol:
            raise DomainError(
                f"decomposition pieces sum to {total!r}, expected "
                f"{self.half_total!r} within 1e-10 relative")


# --------------------------------------------------------------------------
# antiderivative tables
# --------------------------------------------------------------------------

def _endpoint_antiderivatives(*u: float) -> tuple[np.ndarray, np.ndarray]:
    """``h(u)`` and ``A2(u) = u - Phi^{-1}(u) h(u)`` at points ``u`` in
    ``[0, 1]``, with exact zeros of ``h`` at 0 and 1.

    This is the one evaluator of both antiderivatives.  It works at the
    lower-tail probability ``q = min(u, 1-u)`` and mirrors the upper half
    (``h(1-q) = h(q)``, ``A2(1-q) = 1 - A2(q)``), so the symmetries are
    exact in floating point.
    """
    u = np.array(u)
    q = np.minimum(u, 1.0 - u)
    interior = q > 0
    x = np.zeros(q.shape)
    x[interior] = ndtri(q[interior])
    H = np.where(interior, np.exp(-0.5 * x * x) / _SQRT_2PI, 0.0)
    A2 = np.where(interior, q - x * H, 0.0)
    return H, np.where(u > 0.5, 1.0 - A2, A2)


# 8-point Gauss-Legendre rule on [-1, 1]: the nonnegative nodes and weights
_GL_NODES = np.array([0.18343464249564980494, 0.52553240991632898582,
                      0.79666647741362673959, 0.96028985649753623168])
_GL_WEIGHTS = np.array([0.36268378337836198297, 0.31370664587788728734,
                        0.22238103445337447054, 0.10122853629037625915])
_GL_NODES = np.concatenate([-_GL_NODES[::-1], _GL_NODES])
_GL_WEIGHTS = np.concatenate([_GL_WEIGHTS[::-1], _GL_WEIGHTS])
_TAIL_PANELS = 24


def _cell_moments(c, w):
    """Gauss-Legendre sums ``S_k ~ int t^k phi(c + t) / phi(c) dt`` over
    ``t`` in ``[-w, w]``, k = 0, 1, 2, for arrays of intervals ``[c - w,
    c + w]``, up to the common factor ``w``.

    ``S_1 / S_0`` and ``S_2 / S_0`` are the first two moments of ``X - c``
    for a standard normal ``X`` truncated to the interval.  The weight
    ``exp(-c t - t^2/2)`` is relative to the density at the centre, so none
    underflows.
    """
    s0 = s1 = s2 = 0.0
    for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
        t = w * node
        e = weight * np.exp(-t * (c + 0.5 * t))
        s0 = s0 + e
        s1 = s1 + t * e
        s2 = s2 + t * t * e
    return s0, s1, s2


def _tail_moments(b: float) -> tuple[float, float]:
    """``E[t]`` and ``E[t^2]`` of ``t = X - b`` given ``X >= b >= 0``.

    Composite Gauss-Legendre over ``t`` in ``[0, T]``, where the density
    relative to ``phi(b)``, ``exp(-b t - t^2/2)``, has fallen to ``e^-45``.
    """
    T = math.sqrt(b * b + 90.0) - b
    half = 0.5 * T / _TAIL_PANELS
    centres = half * (2.0 * np.arange(_TAIL_PANELS) + 1.0)
    # t about each panel centre; the weight is relative to phi(b)
    s0, s1, s2 = _cell_moments(b + centres, half)
    scale = np.exp(-centres * (b + 0.5 * centres))
    s0, s1, s2 = (float(np.add.reduce(scale * a))
                  for a in (s0, s1 + centres * s0,
                            s2 + centres * (2.0 * s1 + centres * s0)))
    return s1 / s0, s2 / s0


@functools.lru_cache(maxsize=8)
def _cell_tables(n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Cell means ``m[i-1] = n int_{(i-1)/n}^{i/n} Phi^{-1}``, within-cell
    variances ``v[i-1] = n int_cell (Phi^{-1} - m_i)^2`` for i = 1..n, and
    their sum ``V_n = sum_i v_i / n``.

    Each cell is worked in ``x = Phi^{-1}(u)``, where it is the interval
    ``[x_{i-1}, x_i]`` of a truncated standard normal: its mean and
    variance ``E[t^2] - E[t]^2`` come from moments of ``t`` about the cell
    centre (Gauss-Legendre in the bulk, a composite rule about the cut in
    the two end cells), so no nearly equal numbers are subtracted.  Only
    the lower half is computed; the upper half mirrors it, so
    ``m[n-i] = -m[i-1]`` and ``v[n-i] = v[i-1]`` exactly.  Against
    35-digit values, ``m`` is good to ~1e-15 absolute, ``v`` to ~4e-16 n
    relative (the float cell boundaries) and ``V_n`` to ~1e-15 relative.
    """
    if n == 1:
        m, v = np.zeros(1), np.ones(1)
        m.flags.writeable = v.flags.writeable = False
        return m, v, 1.0
    half = (n + 1) // 2              # cells 1..half: the lower half
    x = ndtri(np.arange(1, half) / n)
    # upper boundary of each lower-half cell; odd n: the middle cell
    # [x, -x] straddles 0
    upper = np.append(x, -x[-1] if n % 2 else 0.0)
    mean = np.empty(half)
    var = np.empty(half)
    # cell 1, (-inf, x_1], mirrors the tail beyond -x_1
    et, et2 = _tail_moments(-upper[0])
    mean[0] = upper[0] - et
    var[0] = et2 - et * et
    c = 0.5 * (upper[1:] + upper[:-1])
    w = 0.5 * (upper[1:] - upper[:-1])
    s0, s1, s2 = _cell_moments(c, w)
    et = s1 / s0
    mean[1:] = c + et
    var[1:] = s2 / s0 - et * et
    if n % 2:
        mean[-1] = 0.0               # the middle cell is symmetric about 0
    m = np.concatenate([mean, -mean[::-1][n % 2:]])
    v = np.concatenate([var, var[::-1][n % 2:]])
    m.flags.writeable = v.flags.writeable = False
    total = 2.0 * np.add.reduce(var[:half - n % 2])
    if n % 2:
        total += var[-1]
    return m, v, float(total) / n


# ``perfbench`` reads ``_boundary_tables.cache_info()`` in every benchmark
# call and traces it as the ``wasserstein.tables`` span: keep the name.
_boundary_tables = _cell_tables


# --------------------------------------------------------------------------
# quantile integrals
# --------------------------------------------------------------------------

def _check_bounds(a: float, b: float):
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integral bounds must be finite")
    if not (0.0 <= a <= b <= 1.0):
        raise DomainError(
            f"integral bounds must satisfy 0 <= a <= b <= 1, got ({a!r}, {b!r})")


def quantile_integral(a, b, ref: GaussianReference = STANDARD) -> float:
    """``int_a^b F_ref^{-1}(u) du`` in closed form.

    Equals ``mu (b-a) + sigma (h(a) - h(b))``.  The endpoints 0 and 1 are
    accepted as exact limits (``h -> 0`` there).
    """
    a = float(a)
    b = float(b)
    _check_bounds(a, b)
    H, _ = _endpoint_antiderivatives(a, b)
    return ref.mu * (b - a) + ref.sigma * float(H[0] - H[1])


def quantile_sq_integral(a, b, ref: GaussianReference = STANDARD) -> float:
    """``int_a^b F_ref^{-1}(u)^2 du`` in closed form.

    The antiderivative is ``mu^2 u - 2 mu sigma h(u) + sigma^2 A2(u)``
    with ``A2(u) = u - Phi^{-1}(u) h(u)``; endpoints are exact limits
    (full-interval value ``mu^2 + sigma^2``).
    """
    a = float(a)
    b = float(b)
    _check_bounds(a, b)

    H, A2 = _endpoint_antiderivatives(a, b)
    F = (ref.mu * ref.mu * np.array([a, b]) - 2.0 * ref.mu * ref.sigma * H
         + ref.sigma * ref.sigma * A2)
    return float(F[1] - F[0])


# --------------------------------------------------------------------------
# W2^2 distances
# --------------------------------------------------------------------------

def w2sq_vs_gaussian(s: SortedSample, ref: GaussianReference = STANDARD) -> float:
    """Exact ``W_2^2(F_n, N(mu, sigma^2))`` from the sorted sample.

    Equals ``(1/n) sum_i (Z_i - mu - sigma m_i)^2 + sigma^2 V_n``, with the
    cell means ``m_i`` and the within-cell variance sum ``V_n`` of
    :func:`_cell_tables`: a sum of nonnegative terms, so the value is
    positive and accurate to ~1e-14 relative (see the module docstring).
    The gaps are ``(Z_i - mu) - sigma m_i``: a sample far from the origin
    next to its spread then loses no digits to rounding ``mu + sigma m_i``.
    """
    m, _, v_n = _cell_tables(s.n)
    gaps = s.values - ref.mu
    gaps -= ref.sigma * m
    return float(_w2sq_rows(gaps[np.newaxis], ref.sigma * ref.sigma * v_n)[0])


def _w2sq_rows(gaps: np.ndarray, within: float = 0.0) -> np.ndarray:
    """``(1/n) sum_i gaps[r, i]^2 + within`` for each row r of a 2-d array.

    The one W2 reduction of both distances, for one row or a whole block:
    one pairwise ``np.add.reduce`` per row, which gives a row the same bits
    whatever block it sits in.  Squares ``gaps`` in place.
    """
    np.multiply(gaps, gaps, out=gaps)
    return np.add.reduce(gaps, axis=-1) / gaps.shape[-1] + within


def w2sq_two_sample(sx: SortedSample, sy: SortedSample) -> float:
    """Exact ``W_2^2(F_n, G_n) = (1/n) sum_i (X_(i) - Y_(i))^2``.

    Both empirical quantile functions are constant on the same cells, so
    the defining integral collapses to the mean squared rank-wise gap.
    """
    if sx.n != sy.n:
        raise DomainError(f"sample sizes differ: {sx.n} != {sy.n}")
    return float(_w2sq_rows((sx.values - sy.values)[np.newaxis])[0])


# --------------------------------------------------------------------------
# tail decomposition
# --------------------------------------------------------------------------

def tail_decomposition(s: SortedSample, C: float = 1.0, theta: float = 2.0,
                       gamma: float = 2.0) -> W2Decomposition:
    """Split ``int_{1/2}^1 (F_n^{-1} - Phi^{-1})^2 du`` into A, B, C, D.

    With ``K = floor(C (log n)^theta)`` and cut ``d = K/n``:

    * A: ``[1 - 1/(n (log n)^gamma), 1]`` with constant ``Z_n``,
    * B: ``[1 - 1/n, 1 - 1/(n (log n)^gamma)]`` with constant ``Z_n``,
    * C: cells of ``Z_{n-k}`` for ``k = 1 .. K-1``, covering
      ``[1 - K/n, 1 - 1/n]``,
    * D: the bulk ``[1/2, 1 - K/n]``.

    The top-rank index range ``k <= K-1`` (rather than ``k <= K``) is what
    makes the four pieces a partition: the cell of ``Z_{n-K}`` already
    belongs to the bulk piece.  Requires ``1 - K/n > 1/2``.
    """
    n = s.n
    z = s.values
    if not (C > 0.0 and 1.0 < theta <= 2.0 and gamma > 1.0):
        raise DomainError(
            f"need C > 0, 1 < theta <= 2, gamma > 1; got C={C!r}, "
            f"theta={theta!r}, gamma={gamma!r}")
    logn = math.log(n)
    if logn <= 0:
        raise DomainError("tail_decomposition requires n >= 2")
    K = int(math.floor(C * logn ** theta))
    if K < 1 or 1.0 - K / n <= 0.5:
        raise DomainError(
            f"cut K/n = {K}/{n} leaves no bulk above 1/2; "
            f"n too small for (C, theta) = ({C}, {theta})")
    cut_a = 1.0 - 1.0 / (n * logn ** gamma)
    zn = float(z[-1])

    # each whole grid cell: its mass 1/n times (squared gap to the cell
    # mean + the cell variance), from the cached table
    m, v, _ = _cell_tables(n)
    cells = ((z - m) ** 2 + v) / n

    q = 1.0 - cut_a                    # A: the normal tail beyond b
    b = -float(ndtri(q))
    et, et2 = _tail_moments(b)
    a_n = q * ((zn - b - et) ** 2 + et2 - et * et)
    b_n = float(cells[-1]) - a_n       # rest of the top cell
    c_n = math.fsum(cells[n - K:n - 1])
    # bulk: for odd n, the upper half [0, x] of the middle cell (mass
    # 1/(2n)), then the whole cells up to n-K
    i_half = (n + 1) // 2  # index of the cell whose interval holds 1/2
    partial = 0.0
    if n % 2:
        w = -0.5 * float(ndtri(((n - 1) // 2) / n))
        s0, s1, s2 = _cell_moments(w, w)
        et = s1 / s0
        partial = ((float(z[i_half - 1]) - w - et) ** 2
                   + s2 / s0 - et * et) / (2 * n)
    d_n = partial + math.fsum(cells[i_half:n - K])

    # direct evaluation of the half integral for the partition identity
    half_total = partial + math.fsum(cells[i_half:])

    return W2Decomposition(
        a_n=a_n, b_n=b_n, c_n=c_n, d_n=d_n, C=C, theta=theta, gamma=gamma,
        n=n, half_total=half_total, K=K, cut=K / n)


# --------------------------------------------------------------------------
# exact expectation of n * W2^2 (one sample, standard reference)
# --------------------------------------------------------------------------

# Loader's ``stirlerr(m) = log m! - log(sqrt(2 pi m) (m/e)^m)``, m = 0..15
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.04134069595540929, 0.02767792568499834,
    0.02079067210376509, 0.01664469118982119, 0.01387612882307075,
    0.01189670994589177, 0.01041126526197210, 0.009255462182712733,
    0.008330563433362871, 0.007573675487951841, 0.006942840107209530,
    0.006408994188004207, 0.005951370112758848, 0.005554733551962801])
_TAIL_LOG = 40.0  # a window leaves out < u e^-40 / n of Bin(n, u) per side
_CHUNK = 2 ** 14  # window terms per pass: bounds every temporary


def _stirlerr(m):
    """Loader's ``stirlerr`` at integers ``m``: the table, then the
    Stirling series, good to ~1e-16 absolute above 15."""
    r2 = 1.0 / np.maximum(m, 16.0) ** 2
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - r2 / 1188) * r2)
                        * r2) * r2) * np.sqrt(r2)
    return np.where(m > 15, series, _STIRLERR[np.minimum(m, 15)])


def _log_binomial_pmf(k, n: int, u):
    """``log P(B = k)`` for ``B ~ Bin(n, u)``, ``0 <= k <= n``, in Loader's
    saddle-point form ("Fast and accurate computation of binomial
    probabilities", 2000).  With ``d = k - nu`` its deviance terms ``k
    log1p(d/nu) + (n-k) log1p(-d/(n-nu))`` round to ~eps ``|d|``, where
    log-gammas of size ``n log n`` lose ~1e-9 at n = 1e6.
    """
    log_p = np.empty(k.shape)
    first, last = k == 0, k == n
    log_p[first] = n * np.log1p(-u[first])
    log_p[last] = n * np.log(u[last])
    inner = ~(first | last)
    k, mean = k[inner], n * u[inner]
    log_p[inner] = (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
                    - k * np.log1p((k - mean) / mean)
                    - (n - k) * np.log1p((mean - k) / (n - mean))
                    - 0.5 * np.log(2.0 * math.pi * k * (1.0 - k / n)))
    return log_p


def _bregman_gaps(q, u, x, hu):
    """``D(q, u) = h(u) - x (q - u) - h(q) >= 0``, with ``x = Phi^{-1}(u)``
    and ``hu = h(u)``: the integral ``int_x^y (t - x) phi(t) dt``, ``y =
    Phi^{-1}(q)``.  Near ``x``, where the closed form cancels to second
    order, it is summed by :func:`_cell_moments` about the midpoint ``c``;
    the weight ``exp(-c t - t^2/2)`` changes by at most ``e^2`` there, so
    the 8 nodes leave ~1e-18.
    """
    y = ndtri(q)
    gaps = hu - np.exp(-0.5 * y * y) / _SQRT_2PI - x * (q - u)
    c, w = 0.5 * (y + x), 0.5 * (y - x)
    near = np.abs(w) * (np.abs(c) + np.abs(w)) <= 1.0
    c, w = c[near], w[near]
    s0, s1, _ = _cell_moments(c, w)
    gaps[near] = np.exp(-0.5 * c * c) / _SQRT_2PI * w * (s1 + w * s0)
    return gaps


def expected_one_sample_w2sq(n: int) -> float:
    """``E[n W_2^2(F_n, Phi)] = 2n int_0^1 E[D(B_u/n, u)] / h(u) du``,

    with ``B_u ~ Bin(n, u)`` and ``D`` the Bregman gap of the concave ``h``
    (:func:`_bregman_gaps`): one integral of nonnegative terms.  The rule
    runs in ``t``, ``u = sin^2(pi t/2)``, so its nodes cluster at both
    ends, where the windows are short, and keep their digits there; as
    ``B_{1-u} = n - B_u``, a node past 1/2 is summed at ``1 - u``.  Node u
    sums ``P(B_u = k) D(k/n, u)`` over ``|k - nu| <= r``, ``r^2 = 2 T (var
    + r/3)``, ``T = 40 + log(n/u)``: by Bernstein's inequality that leaves
    out less than ``u e^-40 / n`` on each side.

    The error bound adds the rule's estimate, the windows' tails (at most
    ``4 e^-40``) and the pmf's rounding, read off as the largest distance
    of a window's mass from 1.  Raises :class:`QuadratureError` when it
    exceeds 1e-10 relative.
    """
    n = _integer("n", n, 1)
    mass_error = [0.0]

    def integrand(t, rows):
        sin, cos = np.sin(0.5 * math.pi * t[0]), np.cos(0.5 * math.pi * t[0])
        u = np.maximum(np.minimum(sin * sin, cos * cos), np.finfo(float).tiny)
        x = ndtri(u)
        hu = np.exp(-0.5 * x * x) / _SQRT_2PI
        T = _TAIL_LOG + math.log(n) - np.log(u)
        reach = T / 3 + np.sqrt(T * T / 9 + 2 * T * n * u * (1.0 - u))
        lo = np.maximum(np.ceil(n * u - reach), 0).astype(np.int64)
        sizes = np.minimum(np.floor(n * u + reach), n) - lo + 1
        start = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        sums = np.zeros((2, u.size))
        for first in range(0, start[-1], _CHUNK):
            terms = np.arange(first, min(first + _CHUNK, start[-1]))
            node = np.searchsorted(start, terms, side="right") - 1
            k = lo[node] + (terms - start[node])
            p = np.exp(_log_binomial_pmf(k, n, u[node]))
            gaps = _bregman_gaps(k / n, u[node], x[node], hu[node])
            for row, weights in zip(sums, (p * gaps, p)):
                row[node[0]:node[-1] + 1] += np.bincount(node - node[0],
                                                         weights)
        mass_error[0] = max(mass_error[0], np.max(abs(sums[1] - 1.0)))
        return (2.0 * n * math.pi * sin * cos * sums[0] / hu)[np.newaxis]

    value, err, _ = _de_quad(integrand, [0.0], [1.0],
                             "expected_one_sample_w2sq", rel=1e-11, abs_=0.0)
    value = float(value[0])
    bound = float(err[0]) + 4.0 * math.exp(-_TAIL_LOG) + mass_error[0] * value
    if not bound <= 1e-10 * value:
        raise QuadratureError(
            f"expected_one_sample_w2sq: error bound {bound:.3e} exceeds "
            f"1e-10 relative of {value!r} at n = {n}")
    return value
