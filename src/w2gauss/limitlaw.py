"""Simulation of the coupled-bridge limit functional ``int ((B - Bt)/h)^2``.

The weak limit of ``n W_2^2(F_n, G_n)`` for correlated Gaussian samples is
the squared weighted L2 norm of the difference of two Brownian bridges
whose cross-covariance is ``C_rho(u,v) - uv`` (Gaussian copula minus the
independence term).  This module draws that functional by two independent
mechanisms so each can check the other:

* ``gaussian_grid``: one exact multivariate-normal draw of the pair on a
  fixed grid, from the Cholesky factor of the 2m x 2m block covariance;
* ``empirical_coupling``: empirical processes of ``m_sample`` correlated
  normal pairs evaluated on the same grid, converging to the same law.

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
from scipy import stats
from scipy.special import ndtri

from .errors import CovarianceError, DomainError
from .integrals import DELTA_FLOOR, truncated_second_moment
# _bvnu_scalar is unused here but stays bound: perfbench/tracer.py rebinds it
from .special import (Correlation, _bvnu_scalar, _bvnu_vec, as_correlation,
                      copula_diagonal_gap, density_quantile_h)
from .streams import correlated_normal_pairs, standard_normals, substream

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
        v = self.values
        q05, q50, q95 = np.quantile(v, [0.05, 0.50, 0.95])
        return {
            "rho": self.rho.rho, "mechanism": self.mechanism,
            "m": self.grid.m, "delta": self.grid.delta,
            "n_draws": int(v.size), "seed": self.seed,
            "mean": float(v.mean()),
            "variance": float(v.var(ddof=1)) if v.size > 1 else 0.0,
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
    mirror of the lower half, so ``u`` and ``1-u`` appear in pairs.
    """
    if m < 16:
        raise DomainError(f"grid size m >= 16 required, got {m}")
    if not (0.0 < delta < 0.25):
        raise DomainError(f"delta must lie in (0, 1/4), got {delta!r}")
    if delta < DELTA_FLOOR:
        raise DomainError(f"delta below resolvable floor {DELTA_FLOOR:g}")
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

def _copula_matrix(nodes: np.ndarray, rho: float) -> np.ndarray:
    """``C_rho(u_i, u_j)`` on the grid, via the survival identity.

    Each pair ``i <= j`` is evaluated once and mirrored.  For ``u + v > 1``
    the copula is evaluated as ``u + v - 1 + P(X > x_u, Y > x_v)``, keeping
    the computed quantity the small joint tail rather than a difference of
    near-unit terms.
    """
    x = ndtri(nodes)
    i, j = np.triu_indices(nodes.size)
    u, v = nodes[i], nodes[j]
    upper = u + v > 1.0
    # below the anti-diagonal C is the upper tail at (-x_u, -x_v)
    sign = np.where(upper, 1.0, -1.0)
    c = np.where(upper, u + v - 1.0, 0.0) \
        + _bvnu_vec(sign * x[i], sign * x[j], rho)
    C = np.empty((nodes.size, nodes.size))
    C[i, j] = C[j, i] = np.clip(c, np.maximum(u + v - 1.0, 0.0),
                                np.minimum(u, v))
    return C


def bridge_covariance(grid: GridSpec, rho) -> np.ndarray:
    """The 2m x 2m block covariance of ``(B(u_i), Bt(u_i))``.

    Diagonal blocks are the Brownian-bridge kernel ``min(u,v) - uv``;
    off-diagonal blocks are ``C_rho(u,v) - uv``.
    """
    corr = as_correlation(rho)
    u = grid.nodes
    U, V = np.meshgrid(u, u, indexing="ij")
    bridge = np.minimum(U, V) - U * V
    cross = _copula_matrix(u, corr.rho) - U * V
    return np.block([[bridge, cross], [cross.T, bridge]])


_factor_cache: dict = {}


def _cholesky_factor(grid: GridSpec, rho: float) -> np.ndarray:
    key = (grid.nodes.tobytes(), rho)
    hit = _factor_cache.get(key)
    if hit is not None:
        return hit
    cov = bridge_covariance(grid, rho)
    eye = np.eye(cov.shape[0])
    for jitter in _JITTERS:
        try:
            L = np.linalg.cholesky(cov + jitter * eye)
        except np.linalg.LinAlgError:
            continue
        if jitter > _JITTER_QUIET:
            warnings.warn(
                f"bridge covariance needed diagonal jitter {jitter:g} "
                f"(m={grid.m}, delta={grid.delta:g}, rho={rho}); results "
                f"carry noise at that scale", RuntimeWarning, stacklevel=3)
        if len(_factor_cache) > 16:
            _factor_cache.clear()
        _factor_cache[key] = L
        return L
    raise CovarianceError(
        f"bridge covariance not positive semidefinite within diagonal "
        f"jitter {_JITTERS[-1]:g} (m={grid.m}, delta={grid.delta:g}, "
        f"rho={rho}); this signals a grid/rho configuration bug")


# --------------------------------------------------------------------------
# the two mechanisms
# --------------------------------------------------------------------------

def _gaussian_rows(grid: GridSpec, rho: float, seed: int,
                   draws: range) -> np.ndarray:
    """Stacked bridge-pair draws, one substream per draw index."""
    L = _cholesky_factor(grid, rho)
    dim = 2 * grid.m
    eta = np.empty((len(draws), dim))
    for row, j in enumerate(draws):
        eta[row] = standard_normals(substream(seed, "limit_gaussian", j), dim)
    return eta @ L.T


def simulate_bridge_pair_gaussian(grid: GridSpec, rho, seed: int,
                                  draw_index: int = 0) -> BridgePair:
    """One exact draw of the correlated bridge pair on the grid.

    Deterministic given ``(seed, draw_index)``; ``sample_limit_law``
    consumes consecutive draw indices, so a single draw here matches the
    corresponding batch row to within matmul rounding.
    """
    corr = as_correlation(rho)
    row = _gaussian_rows(grid, corr.rho, seed,
                         range(draw_index, draw_index + 1))[0]
    return BridgePair(grid=grid, bx=row[:grid.m], by=row[grid.m:], rho=corr)


def simulate_bridge_pair_coupled(grid: GridSpec, rho, m_sample: int,
                                 seed: int, draw_index: int = 0) -> BridgePair:
    """Empirical-process mechanism: bridges of ``m_sample`` coupled pairs.

    Draws correlated standard-normal pairs ``(X_i, Y_i)``, then evaluates
    ``sqrt(m) (F_m(x_u) - u)`` for each marginal at the grid nodes, which
    is the empirical bridge of the uniforms ``Phi(X_i)`` evaluated at u.
    """
    corr = as_correlation(rho)
    if m_sample < 10 ** 4:
        raise DomainError(f"m_sample >= 1e4 required, got {m_sample}")
    g = substream(seed, "limit_empirical", draw_index)
    xs, ys = correlated_normal_pairs(g, m_sample, corr)
    xq = ndtri(grid.nodes)
    root = math.sqrt(m_sample)
    bx = (np.searchsorted(np.sort(xs), xq, side="right") / m_sample
          - grid.nodes) * root
    by = (np.searchsorted(np.sort(ys), xq, side="right") / m_sample
          - grid.nodes) * root
    return BridgePair(grid=grid, bx=bx, by=by, rho=corr)


# --------------------------------------------------------------------------
# the functional and its analytic companions
# --------------------------------------------------------------------------

def _functional_rows(bx: np.ndarray, by: np.ndarray,
                     grid: GridSpec) -> np.ndarray:
    h = np.asarray(density_quantile_h(grid.nodes))
    y = ((bx - by) / h) ** 2
    vals = np.trapezoid(y, x=grid.nodes, axis=-1)
    return np.maximum(vals, 0.0)


def g_functional(pair: BridgePair) -> float:
    """Trapezoidal ``int ((bx - by)/h)^2 du`` over the grid; >= 0.

    This is the truncated functional: mass outside ``[delta, 1-delta]``
    is omitted.  The omitted mass between two truncation levels has the
    exact expectation given by :func:`truncation_bias`; the total omitted
    expectation as ``delta -> 0`` is unbounded.
    """
    return float(_functional_rows(pair.bx, pair.by, pair.grid))


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
    """Two-sample KS statistic with the asymptotic p-value."""
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    if xa.ndim != 1 or xb.ndim != 1 or xa.size < 25 or xb.size < 25:
        raise DomainError("ks_two_sample needs 1-d samples of size >= 25")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(xb))):
        raise DomainError("ks_two_sample needs finite samples")
    if np.ptp(xa) == 0.0 or np.ptp(xb) == 0.0:
        raise DomainError("degenerate (constant) sample")
    res = stats.ks_2samp(xa, xb, method="asymp")
    return KSResult(statistic=float(res.statistic), p_value=float(res.pvalue),
                    n_a=int(xa.size), n_b=int(xb.size))


# --------------------------------------------------------------------------
# top-level sampler
# --------------------------------------------------------------------------

_BATCH = 4096  # fixed batch size so draw order never depends on resources


def sample_limit_law(rho, grid: GridSpec, n_draws: int, mechanism: str,
                     seed: int, m_sample: int = 10 ** 4,
                     divergence_demo: bool = False) -> LimitSample:
    """``n_draws`` independent draws of the truncated limit functional.

    ``rho = 0`` is refused unless ``divergence_demo=True``: with
    independent bridges the functional's mean is the truncated divergent
    integral ``M(0, delta)``, which grows like ``2 log log (1/delta)``,
    so the draws approximate no finite-limit law.  (The same growth
    occurs for every ``|rho| < 1``; rho = 0 is simply where the classical
    result makes it well known.)  Deterministic given ``seed``: draw j
    always uses the same substream regardless of batching or workers.
    """
    corr = as_correlation(rho)
    if mechanism not in MECHANISMS:
        raise DomainError(
            f"mechanism must be one of {MECHANISMS}, got {mechanism!r}")
    if n_draws < 1:
        raise DomainError("n_draws >= 1 required")
    if corr.zero_flag and not divergence_demo:
        raise DomainError(
            "rho = 0: the limit functional is almost surely infinite "
            "(truncated means grow without bound as delta -> 0); pass "
            "divergence_demo=True to sample the truncated functional "
            "deliberately")
    values = np.empty(n_draws)
    if mechanism == "gaussian_grid":
        for start in range(0, n_draws, _BATCH):
            stop = min(start + _BATCH, n_draws)
            rows = _gaussian_rows(grid, corr.rho, seed, range(start, stop))
            values[start:stop] = _functional_rows(
                rows[:, :grid.m], rows[:, grid.m:], grid)
    else:
        for j in range(n_draws):
            pair = simulate_bridge_pair_coupled(
                grid, corr, m_sample, seed, draw_index=j)
            values[j] = _functional_rows(pair.bx, pair.by, grid)
    return LimitSample(values=values, rho=corr, mechanism=mechanism,
                       grid=grid, seed=seed)
