"""Simulation of the coupled-bridge limit functional ``int ((B - Bt)/h)^2``.

The weak limit of ``n W_2^2(F_n, G_n)`` for correlated Gaussian samples is
the squared weighted L2 norm of the difference of two Brownian bridges
whose cross-covariance is ``C_rho(u,v) - uv`` (Gaussian copula minus the
independence term).  The Gaussian copula is exchangeable, so on a grid the
difference ``D = B - Bt`` and the sum ``S = B + Bt`` are independent, with
covariances ``K_D = 2 (min(u,v) - C_rho(u,v))`` and ``K_S = 2 (min(u,v) +
C_rho(u,v) - 2uv)``; the functional depends on the pair through ``D``
alone.  ``K_D`` is the one matrix evaluated pair by pair, each entry one
bivariate-normal tail; the cross covariance is ``Kb - K_D/2`` and ``K_S``
is ``4 Kb - K_D``, with ``Kb = min(u,v) - uv`` the bridge kernel.  This
module draws that functional by two independent mechanisms so each can
check the other, each one transform of a block of keyed standard normals,
one row per draw, into the differences ``bx - by``:

* ``gaussian_grid``: ``(rows, m)`` normals times ``L.T``, with ``L`` the
  Cholesky factor of the m x m ``K_D``: exact multivariate-normal draws of
  ``D`` on a fixed grid (the single-pair API adds ``S`` from ``K_S``);
* ``empirical_coupling``: ``(rows, 2 m_sample)`` normals into correlated
  normal pairs, sorted and counted below the node quantiles: empirical
  bridges on the same grid, converging to the same law.

The grid truncates at ``delta`` per end.  The truncated functional has
finite mean ``M(rho, delta)`` (see
:func:`w2gauss.integrals.truncated_second_moment`), but that mean grows
without bound as ``delta -> 0`` for every ``|rho| < 1``, so draws at
``rho = 0`` (or any rho, pushed far enough) witness divergence rather than
approximate a finite limit; ``sample_limit_law`` requires an explicit
``divergence_demo`` opt-in for ``rho = 0``.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
from scipy.special import ndtri, smirnov

from .errors import CovarianceError, DomainError
from .integrals import DELTA_FLOOR, truncated_second_moment
# _bvnu_scalar is unused here but stays bound: perfbench/tracer.py rebinds it
from .special import (Correlation, _bvnu_scalar, _bvnu_vec, as_correlation,
                      copula_diagonal_gap, density_quantile_h)
from .streams import (_balanced_spans, _integer, _keyed_normals,
                      _pairs_inplace, _replicate, _stream_states)

__all__ = [
    "GridSpec",
    "BridgePair",
    "LimitSample",
    "KSResult",
    "MECHANISMS",
    "build_grid",
    "bridge_covariance",
    "simulate_bridge_pair_gaussian",
    "simulate_bridge_pair_coupled",
    "g_functional",
    "expected_functional",
    "truncation_bias",
    "ks_two_sample",
    "sample_limit_law",
]

MECHANISMS = ("gaussian_grid", "empirical_coupling")

# diagonal jitter ladder: silent up to 1e-12, warned decades to 1e-9,
# explicit failure beyond (signals a genuinely bad grid/rho configuration)
_JITTERS = (0.0, 1e-12, 1e-11, 1e-10, 1e-9)
_JITTER_QUIET = 1e-12
# K_D pairs per _bvnu_vec call: bounds the quadrature's temporaries
_COPULA_CHUNK = 4096
# most rows per matrix product of the Gaussian mechanism's row strips
_PANEL = 128
# smallest sample ks_two_sample takes; limit_compare's reps must reach it
_KS_MIN_SIZE = 25


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """A strictly increasing evaluation grid inside ``[delta, 1-delta]``.

    Nodes are equally spaced in ``log log (1/min(u, 1-u))`` on the outer
    thirds (geometric refinement toward both ends) and uniformly spaced on
    the middle third.
    """

    m: int
    delta: float
    nodes: np.ndarray

    def __post_init__(self):
        if self.m < 16:
            raise DomainError(f"grid size m >= 16 required, got {self.m}")
        if not (0.0 < self.delta < 0.25):
            raise DomainError(f"delta must lie in (0, 1/4), got {self.delta!r}")
        arr = np.asarray(self.nodes, dtype=float)
        if arr.shape != (self.m,):
            raise DomainError("nodes must be a length-m vector")
        if not np.all((arr > 0.0) & (arr < 1.0)):
            raise DomainError("nodes must lie strictly inside (0, 1)")
        if np.any(np.diff(arr) <= 0.0):
            raise DomainError("nodes must be strictly increasing")
        if arr[0] < self.delta * (1.0 - 1e-12) or \
                arr[-1] > 1.0 - self.delta * (1.0 - 1e-12):
            raise DomainError("nodes must stay within [delta, 1-delta]")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "nodes", arr)


@dataclasses.dataclass(frozen=True)
class BridgePair:
    """One draw of the correlated bridge pair on a grid."""

    grid: GridSpec
    bx: np.ndarray
    by: np.ndarray
    rho: Correlation

    def __post_init__(self):
        for name in ("bx", "by"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.grid.m,):
                raise DomainError(f"{name} must match the grid length")
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} must be finite")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclasses.dataclass(frozen=True)
class LimitSample:
    """Independent draws of the truncated limit functional."""

    values: np.ndarray
    rho: Correlation
    mechanism: str
    grid: GridSpec
    seed: int

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise DomainError(
                f"mechanism must be one of {MECHANISMS}, got {self.mechanism!r}")
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError("values must be a nonempty vector")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise DomainError("functional draws must be finite and >= 0")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def summary(self) -> dict:
        return _draw_summary(self.values, self.rho.rho, self.mechanism,
                             self.grid.m, self.grid.delta, self.seed)


def _draw_summary(values: np.ndarray, rho: float, mechanism: str, m: int,
                  delta: float, seed: int) -> dict:
    """The ``limit.csv`` columns of a set of draws, limit-law or finite-n."""
    q05, q50, q95 = np.quantile(values, [0.05, 0.50, 0.95])
    return {
        "rho": rho, "mechanism": mechanism, "m": m, "delta": delta,
        "n_draws": int(values.size), "seed": seed,
        "mean": float(values.mean()),
        "variance": float(values.var(ddof=1)) if values.size > 1 else 0.0,
        "q05": float(q05), "q50": float(q50), "q95": float(q95),
    }


@dataclasses.dataclass(frozen=True)
class KSResult:
    """Two-sample Kolmogorov-Smirnov comparison."""

    statistic: float
    p_value: float
    n_a: int
    n_b: int


# --------------------------------------------------------------------------
# grid construction
# --------------------------------------------------------------------------

def build_grid(m: int, delta: float) -> GridSpec:
    """Deterministic grid: log-log-spaced outer thirds, uniform middle.

    The outer thirds place ``m // 3`` nodes each at
    ``u = exp(-exp(t))`` (and its mirror) for ``t`` equally spaced from
    ``log log (1/delta)`` down toward ``log log 3``; the middle third is
    uniform on ``[1/3, 2/3]``.  The upper half is the exact floating-point
    mirror of the lower half, so ``u`` and ``1-u`` appear in pairs; that
    needs ``1 - delta < 1`` in floating point (``delta`` above about
    5.6e-17).
    """
    m = _integer("m", m, 16)
    if not (0.0 < delta < 0.25):
        raise DomainError(f"delta must lie in (0, 1/4), got {delta!r}")
    if 1.0 - delta == 1.0:
        raise DomainError(f"delta = {delta!r} has no mirror node below 1: "
                          f"1 - delta rounds to 1")
    n_end = m // 3
    k_mid = m - 2 * n_end
    t = np.linspace(math.log(math.log(1.0 / delta)), math.log(math.log(3.0)),
                    n_end, endpoint=False)
    left = np.exp(-np.exp(t))                     # ascending, [delta, 1/3)
    if k_mid % 2:
        upper = np.linspace(2.0 / 3.0, 0.5, (k_mid - 1) // 2,
                            endpoint=False)[::-1]  # ascending, (1/2, 2/3]
        mid = np.concatenate([1.0 - upper[::-1], [0.5], upper])
    else:
        upper = np.linspace(2.0 / 3.0, 0.5, k_mid // 2,
                            endpoint=False)[::-1]
        mid = np.concatenate([1.0 - upper[::-1], upper])
    nodes = np.concatenate([left, mid, 1.0 - left[::-1]])
    return GridSpec(m=m, delta=delta, nodes=nodes)


# --------------------------------------------------------------------------
# covariance assembly and factorization
# --------------------------------------------------------------------------

def _upper_pairs(m: int):
    """Index arrays ``(i, j)`` of the pairs ``i <= j`` of an ``(m, m)``
    matrix, in row-major order, ``_COPULA_CHUNK`` pairs at a time."""
    # pair p is (i, j) in row-major order of the upper triangle; row i's
    # pairs start at first[i]
    first = np.concatenate([[0], np.cumsum(np.arange(m, 1, -1))])
    pairs = m * (m + 1) // 2
    for start in range(0, pairs, _COPULA_CHUNK):
        p = np.arange(start, min(start + _COPULA_CHUNK, pairs))
        i = np.searchsorted(first, p, side="right") - 1
        yield i, p - first[i] + i


def _bridge_kernel(nodes: np.ndarray) -> np.ndarray:
    """``Kb = min(u,v) - uv``, the Brownian-bridge covariance on the grid."""
    K = np.minimum.outer(nodes, nodes)
    K -= np.multiply.outer(nodes, nodes)
    return K


def _difference_covariance(nodes: np.ndarray, rho: float) -> np.ndarray:
    """``K_D = 2 (min(u,v) - C_rho(u,v))``, the covariance of ``B - Bt``.

    For ``u_i <= u_j`` the entry is ``2 P(X <= x_i, Y > x_j)``, a joint
    probability evaluated directly as ``2 P(-X > -x_i, Y > x_j)`` at
    correlation ``-rho``, so it keeps full relative precision where
    ``min(u,v)`` and ``C_rho`` nearly cancel (``rho`` near 1, or the
    tails).  The ``i <= j`` pairs are evaluated ``_COPULA_CHUNK`` at a
    time, clipped to ``[0, 2 min(u_i, 1 - u_j)]`` and mirrored.  This is
    the module's one bivariate-normal pass: ``bridge_covariance`` and
    ``_sum_covariance`` are built from it.
    """
    K = np.empty((nodes.size,) * 2)
    x = ndtri(nodes)
    for i, j in _upper_pairs(nodes.size):
        p = _bvnu_vec(-x[i], x[j], -rho)
        K[i, j] = K[j, i] = 2.0 * np.clip(
            p, 0.0, np.minimum(nodes[i], 1.0 - nodes[j]))
    return K


def bridge_covariance(grid: GridSpec, rho) -> np.ndarray:
    """The 2m x 2m block covariance of ``(B(u_i), Bt(u_i))``.

    Diagonal blocks are the Brownian-bridge kernel ``Kb = min(u,v) - uv``;
    off-diagonal blocks are ``C_rho(u,v) - uv``, built as ``Kb - K_D/2``
    from :func:`_difference_covariance`, so their error is ``Kb``'s own
    rounding.  The blocks are written into one ``(2m, 2m)`` array.  This
    is the reference the samplers' ``K_D`` and ``K_S`` are checked
    against; no sampler factors it.
    """
    corr = as_correlation(rho)
    u = grid.nodes
    m = u.size
    cov = np.empty((2 * m, 2 * m))
    bridge, cross = cov[:m, :m], cov[:m, m:]
    bridge[...] = _bridge_kernel(u)
    cov[m:, m:] = bridge
    np.multiply(_difference_covariance(u, corr.rho), -0.5, out=cross)
    cross += bridge
    cov[m:, :m] = cross.T
    return cov


def _sum_covariance(nodes: np.ndarray, rho: float) -> np.ndarray:
    """``K_S = 2 (min(u,v) + C_rho(u,v) - 2uv)``, the covariance of
    ``B + Bt``: twice the sum of ``bridge_covariance``'s two blocks, built
    as ``4 Kb - K_D``."""
    K = _bridge_kernel(nodes)
    K *= 4.0
    K -= _difference_covariance(nodes, rho)
    return K


# the newest grid's factors only, ``{"difference": L_D}`` and, once a
# single-pair draw asks for it, ``"sum": L_S``: limit-compare reuses a factor
# across its n loop only while the grid stays the same; a miss frees the old
# ones first
_factor_cache: dict = {}


def _cholesky_inplace(a: np.ndarray) -> bool:
    """Overwrite the lower triangle of symmetric ``a`` with its Cholesky
    factor; ``False`` at the first pivot that is not ``> 0``.

    Left-looking column (gaxpy) Cholesky, Golub & Van Loan, *Matrix
    Computations*, Alg. 4.2.1: column ``j`` takes one matrix-vector
    product with the factor's first ``j`` columns, so its bytes do not
    depend on the BLAS thread count.  Until it succeeds the strict upper
    triangle is never written, so after a failure it still holds the
    input's off-diagonal entries; a success zeroes it.
    """
    n = a.shape[0]
    for j in range(n):
        col = a[j:, j]
        col -= a[j:, :j] @ a[j, :j]
        pivot = col[0]
        if not pivot > 0.0:
            return False
        col[0] = math.sqrt(pivot)
        col[1:] /= col[0]
    for i in range(n - 1):
        a[i, i + 1:] = 0.0
    return True


def _restore_lower(a: np.ndarray) -> None:
    """Mirror the strict upper triangle of ``a`` onto its strict lower one."""
    for j in range(a.shape[0] - 1):
        a[j + 1:, j] = a[j, j + 1:]


def _factor_inplace(cov: np.ndarray, name: str, grid: GridSpec,
                    rho: float) -> np.ndarray:
    """Overwrite the covariance ``cov`` with its Cholesky factor.

    Each rung of the jitter ladder factors ``cov`` with ``diag + jitter``
    on its diagonal, in place; a failed rung leaves the upper triangle to
    restore from.  ``name`` labels the covariance in the messages.
    """
    diag = cov.diagonal().copy()
    for i, jitter in enumerate(_JITTERS):
        if i:
            _restore_lower(cov)
        np.fill_diagonal(cov, diag + jitter)
        if not _cholesky_inplace(cov):
            continue
        if jitter > _JITTER_QUIET:
            warnings.warn(
                f"{name} covariance needed diagonal jitter {jitter:g} "
                f"(m={grid.m}, delta={grid.delta:g}, rho={rho}); results "
                f"carry noise at that scale", RuntimeWarning, stacklevel=4)
        return cov
    raise CovarianceError(
        f"{name} covariance not positive semidefinite within diagonal "
        f"jitter {_JITTERS[-1]:g} (m={grid.m}, delta={grid.delta:g}, "
        f"rho={rho}); this signals a grid/rho configuration bug")


def _cholesky_factor(grid: GridSpec, rho: float) -> np.ndarray:
    """The cached Cholesky factor of ``K_D``, the covariance of ``B - Bt``
    on the grid; the build holds one ``(m, m)`` array."""
    key = (grid.nodes.tobytes(), rho)
    hit = _factor_cache.get(key)
    if hit is not None:
        return hit["difference"]
    _factor_cache.clear()
    L = _factor_inplace(_difference_covariance(grid.nodes, rho),
                        "bridge difference", grid, rho)
    _factor_cache[key] = {"difference": L}
    return L


def _sum_factor(grid: GridSpec, rho: float) -> np.ndarray:
    """The Cholesky factor of ``K_S``, the covariance of ``B + Bt``, built
    on first use and cached beside the grid's ``K_D`` factor."""
    _cholesky_factor(grid, rho)
    factors = _factor_cache[(grid.nodes.tobytes(), rho)]
    if "sum" not in factors:
        factors["sum"] = _factor_inplace(_sum_covariance(grid.nodes, rho),
                                         "bridge sum", grid, rho)
    return factors["sum"]


# --------------------------------------------------------------------------
# the two mechanisms
# --------------------------------------------------------------------------

def _coupled_bridges(grid: GridSpec, rho: float, m_sample: int):
    """Map a ``(rows, 2 m_sample)`` block of standard normals (one row per
    draw, overwritten) to those draws' ``(rows, 2, m)`` empirical bridges
    ``bx, by``."""
    xq = ndtri(grid.nodes)

    def coupled(z: np.ndarray) -> np.ndarray:
        xy = _pairs_inplace(z, rho)
        xy.sort(axis=2)  # in place: the block is the loop's buffer
        counts = np.array([[np.searchsorted(sample, xq, side="right")
                            for sample in pair] for pair in xy])
        return (counts / m_sample - grid.nodes) * math.sqrt(m_sample)
    return coupled


def _mechanism(mechanism: str, grid: GridSpec, rho: float, seed: int,
               draws: range, m_sample: int):
    """``(states, width, diffs)`` of ``draws``: ``diffs`` maps a ``(rows,
    width)`` block of the states' normals (one row per draw) to those
    draws' differences ``bx - by``, as consecutive strips of rows, each a
    new array."""
    if mechanism == "gaussian_grid":
        LT = _cholesky_factor(grid, rho).T

        def gaussian(z: np.ndarray):
            return (z[s:e] @ LT for s, e in _balanced_spans(len(z), _PANEL))
        return (_stream_states(seed, ("limit_gaussian",), draws), grid.m,
                gaussian)
    m_sample = _integer("m_sample", m_sample, 10 ** 4)
    coupled = _coupled_bridges(grid, rho, m_sample)
    return (_stream_states(seed, ("limit_empirical",), draws), 2 * m_sample,
            lambda z: [np.subtract(*coupled(z).swapaxes(0, 1))])


def _gaussian_pairs(grid: GridSpec, rho: float, seed: int, draws: range):
    """``(bx, by)`` rows of the Gaussian ``draws``, exact on the grid.

    Each draw's stream gives ``2m`` normals: the first ``m`` make ``D``
    exactly as ``sample_limit_law`` does, the next ``m`` make ``S`` from
    the factor of ``K_S``; then ``bx = (S + D)/2`` and ``by = (S - D)/2``.
    """
    m = grid.m
    z = _keyed_normals(_stream_states(seed, ("limit_gaussian",), draws),
                       np.empty((len(draws), 2 * m)))
    d = z[:, :m] @ _cholesky_factor(grid, rho).T
    s = z[:, m:] @ _sum_factor(grid, rho).T
    return (s + d) / 2.0, (s - d) / 2.0


def simulate_bridge_pair_gaussian(grid: GridSpec, rho, seed: int,
                                  draw_index: int = 0) -> BridgePair:
    """One exact draw of the correlated bridge pair on the grid.

    Deterministic given ``(seed, draw_index)``; ``sample_limit_law``
    consumes consecutive draw indices, and its row ``draw_index`` is drawn
    from the first ``m`` normals of the same stream, so ``bx - by`` here
    matches that row's difference to within matmul rounding.
    """
    corr = as_correlation(rho)
    draw_index = _integer("draw_index", draw_index, 0)
    bx, by = _gaussian_pairs(grid, corr.rho, seed,
                             range(draw_index, draw_index + 1))
    return BridgePair(grid=grid, bx=bx[0], by=by[0], rho=corr)


def simulate_bridge_pair_coupled(grid: GridSpec, rho, m_sample: int,
                                 seed: int, draw_index: int = 0) -> BridgePair:
    """Empirical-process mechanism: bridges of ``m_sample`` coupled pairs.

    Draws correlated standard-normal pairs ``(X_i, Y_i)``, then evaluates
    ``sqrt(m) (F_m(x_u) - u)`` for each marginal at the grid nodes, which
    is the empirical bridge of the uniforms ``Phi(X_i)`` evaluated at u.
    """
    corr = as_correlation(rho)
    m_sample = _integer("m_sample", m_sample, 10 ** 4)
    draw_index = _integer("draw_index", draw_index, 0)
    states = _stream_states(seed, ("limit_empirical",),
                            range(draw_index, draw_index + 1))
    bx, by = _coupled_bridges(grid, corr.rho, m_sample)(
        _keyed_normals(states, np.empty((1, 2 * m_sample))))[0]
    return BridgePair(grid=grid, bx=bx, by=by, rho=corr)


# --------------------------------------------------------------------------
# the functional and its analytic companions
# --------------------------------------------------------------------------

def _functional_rows(d: np.ndarray, nodes: np.ndarray,
                     h: np.ndarray) -> np.ndarray:
    """Trapezoidal ``int (d/h)^2`` of each row of the difference ``d``,
    which it overwrites; ``h`` is ``density_quantile_h(nodes)``.

    The steps are ``np.trapezoid``'s, in its order, done in place, so the
    bytes are those of ``np.trapezoid((d / h) ** 2, x=nodes, axis=-1)``.
    """
    d /= h
    d *= d
    y = d[..., :-1]
    y += d[..., 1:]
    y *= np.diff(nodes)
    y /= 2.0
    return y.sum(axis=-1)


def g_functional(pair: BridgePair) -> float:
    """Trapezoidal ``int ((bx - by)/h)^2 du`` over the grid; >= 0.

    This is the truncated functional: mass outside ``[delta, 1-delta]``
    is omitted.  The omitted mass between two truncation levels has the
    exact expectation given by :func:`truncation_bias`; the total omitted
    expectation as ``delta -> 0`` is unbounded.
    """
    nodes = pair.grid.nodes
    return float(_functional_rows(pair.bx - pair.by, nodes,
                                  np.asarray(density_quantile_h(nodes))))


def expected_functional(grid: GridSpec, rho) -> float:
    """Exact mean of :func:`g_functional` under the Gaussian mechanism.

    ``E (bx(u) - by(u))^2 = 2 (u - C_rho(u,u))``, so the mean of the
    trapezoidal functional is the same trapezoidal rule applied to
    ``2 (u - C_rho(u,u))/h^2`` — exact up to the covariance jitter.
    """
    gap = copula_diagonal_gap(grid.nodes, rho)
    h = np.asarray(density_quantile_h(grid.nodes))
    return float(np.trapezoid(2.0 * gap / h ** 2, x=grid.nodes))


def truncation_bias(rho, delta_fine: float, delta_coarse: float) -> float:
    """Mean mass between truncation levels: ``M(rho, fine) - M(rho, coarse)``.

    Both levels must satisfy ``DELTA_FLOOR <= fine < coarse < 1/4``.  This
    is the analytic bound used when comparing functionals across grids
    with different ``delta``.
    """
    if not (DELTA_FLOOR <= delta_fine < delta_coarse < 0.25):
        raise DomainError(
            f"need {DELTA_FLOOR:g} <= delta_fine < delta_coarse < 0.25, "
            f"got ({delta_fine!r}, {delta_coarse!r})")
    fine = truncated_second_moment(rho, delta_fine).value
    coarse = truncated_second_moment(rho, delta_coarse).value
    return max(0.0, fine - coarse)


def ks_two_sample(a, b) -> KSResult:
    """Two-sample KS statistic with the Smirnov union-bound p-value.

    The statistic is ``scipy.stats.ks_2samp``'s, bit for bit.  The p-value
    is ``min(1, 2 smirnov(N, d))`` with ``N = round(n_a n_b / (n_a + n_b))``:
    twice the exact one-sided Smirnov tail, an upper bound on the two-sided
    one.  It equals ``ks_2samp(method="asymp")``'s ``kstwo.sf(d, N)`` where
    ``N > 140`` and ``N d^2 >= 2.2`` (every p below about 0.025) and is never
    below it by more than about 1e-6 elsewhere.
    """
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    if xa.ndim != 1 or xb.ndim != 1 or min(xa.size, xb.size) < _KS_MIN_SIZE:
        raise DomainError(
            f"ks_two_sample needs 1-d samples of size >= {_KS_MIN_SIZE}")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(xb))):
        raise DomainError("ks_two_sample needs finite samples")
    if np.ptp(xa) == 0.0 or np.ptp(xb) == 0.0:
        raise DomainError("degenerate (constant) sample")
    xa = np.sort(xa)
    xb = np.sort(xb)
    both = np.concatenate([xa, xb])
    diff = (np.searchsorted(xa, both, side="right") / xa.size
            - np.searchsorted(xb, both, side="right") / xb.size)
    # ks_2samp's max(clip(-min, 0, 1), max), ties to max; diff is +0.0 at
    # the largest value and lies in [-1, 1], so the clip never acts
    d = float(max(diff.max(), -diff.min()))
    en = round(xa.size * xb.size / (xa.size + xb.size))
    p = min(1.0, 2.0 * float(smirnov(en, d)))
    return KSResult(statistic=d, p_value=p, n_a=int(xa.size), n_b=int(xb.size))


# --------------------------------------------------------------------------
# top-level sampler
# --------------------------------------------------------------------------

def sample_limit_law(rho, grid: GridSpec, n_draws: int, mechanism: str,
                     seed: int, m_sample: int = 10 ** 4,
                     divergence_demo: bool = False,
                     workers: int = 1) -> LimitSample:
    """``n_draws`` independent draws of the truncated limit functional.

    ``rho = 0`` is refused unless ``divergence_demo=True``: with
    independent bridges the functional's mean is the truncated divergent
    integral ``M(0, delta)``, which grows like ``2 log log (1/delta)``,
    so the draws approximate no finite-limit law.  (The same growth
    occurs for every ``|rho| < 1``; rho = 0 is simply where the classical
    result makes it well known.)  Deterministic given ``seed``: draw j
    always uses the same substream regardless of blocks or ``workers``,
    the width of the :func:`streams._replicate` pipeline both run on.
    """
    corr = as_correlation(rho)
    if mechanism not in MECHANISMS:
        raise DomainError(
            f"mechanism must be one of {MECHANISMS}, got {mechanism!r}")
    n_draws = _integer("n_draws", n_draws, 1)
    workers = _integer("workers", workers, 1)
    seed = _integer("seed", seed, 0)
    if corr.zero_flag and not divergence_demo:
        raise DomainError(
            "rho = 0: the limit functional is almost surely infinite "
            "(truncated means grow without bound as delta -> 0); pass "
            "divergence_demo=True to sample the truncated functional "
            "deliberately")
    states, width, diffs = _mechanism(mechanism, grid, corr.rho, seed,
                                      range(n_draws), m_sample)
    h = np.asarray(density_quantile_h(grid.nodes))
    values = _replicate(
        states, width,
        lambda u: np.concatenate([_functional_rows(d, grid.nodes, h)
                                  for d in diffs(u)]), workers)
    return LimitSample(values=values, rho=corr, mechanism=mechanism,
                       grid=grid, seed=seed)
