"""Moments of upper Gaussian order statistics and uniform quantile processes.

``Z_{n-k}`` denotes the (k+1)-th largest of n iid standard normals.  The
module provides

* closed-form asymptotic mean/variance predictions for ``Z_{n-k}`` built
  from harmonic sums, in *two* index variants (``as_stated`` uses the
  partial sums through ``k+1``, ``shifted`` through ``k``) so the
  off-by-one ambiguity between the two published forms can be resolved by
  measurement instead of assumption,
* an exact sampling oracle: ``1 - Phi(Z_{n-k})`` is the (k+1)-th smallest
  of n uniforms, i.e. ``Beta(k+1, n-k)``, so single order statistics are
  drawn without sorting full samples,
* exact (simulation-free) normalized central moments of uniform sample
  quantiles from closed-form Beta moments.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.special import betainc, ndtri

from .errors import DomainError
from .special import _LOG_4PI, _as_unit_prob_array, std_normal_cdf
from .streams import _integer, substream

__all__ = [
    "GAMMA0",
    "HarmonicSums",
    "ExtremeMoment",
    "MomentEstimate",
    "harmonic_sums",
    "harmonic_expansion_gap",
    "extreme_mean",
    "extreme_var",
    "sample_extreme",
    "order_stat_cdf",
    "resolve_index_variant",
    "uniform_quantile_central_moment",
]

GAMMA0 = 0.5772156649015328606
_PI2_6 = math.pi * math.pi / 6.0

VARIANTS = ("as_stated", "shifted")


@dataclasses.dataclass(frozen=True)
class HarmonicSums:
    """Partial sums ``s1 = sum_{j<=k} 1/j`` and ``s2 = sum_{j<=k} 1/j^2``."""

    k: int
    s1: float
    s2: float
    gamma0: float = GAMMA0

    def __post_init__(self):
        if self.k < 0:
            raise DomainError("harmonic sums need k >= 0")
        if not (0.0 <= self.s2 < _PI2_6 or self.k == 0):
            raise DomainError(f"s2 out of range: {self.s2!r}")


@dataclasses.dataclass(frozen=True)
class ExtremeMoment:
    """A predicted moment of ``Z_{n-k}`` with its error-order magnitude."""

    n: int
    k: int
    mean_pred: float
    var_pred: float
    mean_error_order: float
    var_error_order: float
    index_variant: str

    def __post_init__(self):
        if self.index_variant not in VARIANTS:
            raise DomainError(f"unknown index variant {self.index_variant!r}")
        if not self.var_pred > 0.0:
            raise DomainError("var_pred must be positive")


@dataclasses.dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo mean/variance with standard errors.

    ``se_var`` (the standard error of the sample variance, from the fourth
    central moment) is carried alongside the contract fields so variance
    predictions can be tested on the same within-k-SE footing as means.
    """

    mean: float
    se_mean: float
    variance: float
    count: int
    se_var: float = float("nan")

    def __post_init__(self):
        if self.count < 1:
            raise DomainError("count >= 1 required")
        if self.se_mean < 0.0:
            raise DomainError("se_mean must be nonnegative")


def harmonic_sums(k: int) -> HarmonicSums:
    """Exact partial harmonic sums through k (empty for k = 0)."""
    k = _integer("k", k, 0)
    s1 = math.fsum(1.0 / j for j in range(1, k + 1))
    s2 = math.fsum(1.0 / (j * j) for j in range(1, k + 1))
    return HarmonicSums(k=k, s1=s1, s2=s2)


def harmonic_expansion_gap(k: int) -> float:
    """Diagnostic ``s1_k - (log k + gamma0 + 1/(2k))``, an O(1/k^2) residual."""
    k = _integer("k", k, 1)
    s = harmonic_sums(k)
    return s.s1 - (math.log(k) + GAMMA0 + 1.0 / (2.0 * k))


def _variant_index(k: int, variant: str) -> int:
    if variant not in VARIANTS:
        raise DomainError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return k + 1 if variant == "as_stated" else k


def extreme_mean(n: int, k: int, variant: str = "shifted", *,
                 C: float = 1.0, theta: float = 2.0) -> ExtremeMoment:
    """Asymptotic prediction for ``E Z_{n-k}``.

    ``sqrt(2 log n) - (log log n + 2 (s1_idx - gamma0) + log 4 pi)
    / sqrt(8 log n)`` with ``idx = k+1`` (as_stated) or ``k`` (shifted).
    The neglected term is ``O((log log n)^2 / (log n)^{3/2})``.
    """
    n, k = _integer("n", n, 3), _integer("k", k, 0)
    if k > n - 1:
        raise DomainError(f"k must satisfy 0 <= k <= n-1, got {k}")
    kmax = C * math.log(n) ** theta
    if k > kmax:
        raise DomainError(
            f"k = {k} exceeds the admissible range C (log n)^theta = {kmax:.3f}")
    idx = _variant_index(k, variant)
    L = math.log(n)
    LL = math.log(L)
    s = harmonic_sums(idx)
    mean = math.sqrt(2.0 * L) - (LL + 2.0 * (s.s1 - GAMMA0) + _LOG_4PI) \
        / math.sqrt(8.0 * L)
    return ExtremeMoment(
        n=n, k=k, mean_pred=mean, var_pred=(_PI2_6 - s.s2) / (2.0 * L),
        mean_error_order=LL * LL / L ** 1.5,
        var_error_order=1.0 / (L * L),
        index_variant=variant)


def extreme_var(n: int, k: int, variant: str = "shifted", *,
                C: float = 1.0, theta: float = 2.0) -> ExtremeMoment:
    """Asymptotic prediction ``(pi^2/6 - s2_idx) / (2 log n)`` for Var Z_{n-k}."""
    return extreme_mean(n, k, variant, C=C, theta=theta)


def sample_extreme(n: int, k: int, reps: int, seed: int) -> MomentEstimate:
    """Draw ``Z_{n-k}`` exactly via the Beta representation, no sorting.

    ``1 - Phi(Z_{n-k}) ~ Beta(k+1, n-k)``, so ``Z_{n-k} = -Phi^{-1}(B)``;
    the reflected quantile keeps full precision because B is small.
    Deterministic given the seed.
    """
    n, k = _integer("n", n, 1), _integer("k", k, 0)
    reps = _integer("reps", reps, 1)
    if k > n - 1:
        raise DomainError(f"need 1 <= k+1 <= n, got n={n}, k={k}")
    rng = substream(seed, "extreme", n, k)
    b = rng.beta(k + 1, n - k, size=reps)
    # guard the measure-zero endpoints of the Beta sampler
    tiny = np.finfo(float).tiny
    b = np.clip(b, tiny, 1.0 - 1e-16)
    z = -ndtri(b)
    mean = float(np.mean(z))
    var = float(np.var(z, ddof=1)) if reps > 1 else 0.0
    se_mean = math.sqrt(var / reps) if reps > 1 else float("inf")
    if reps > 3:
        m4 = float(np.mean((z - mean) ** 4))
        se_var = math.sqrt(
            max(0.0, m4 - var * var * (reps - 3) / (reps - 1)) / reps)
    else:
        se_var = float("inf")
    return MomentEstimate(mean=mean, se_mean=se_mean, variance=var,
                          count=reps, se_var=se_var)


def order_stat_cdf(x, n: int, k: int):
    """Analytic cdf of ``Z_{n-k}``: ``P(Z_{n-k} <= x) = I_{Phi(x)}(n-k, k+1)``.

    Expressed through the regularized incomplete Beta function (the
    binomial upper-tail identity); used to validate the Beta sampler.
    """
    n, k = _integer("n", n, 1), _integer("k", k, 0)
    if k > n - 1:
        raise DomainError(f"need 1 <= k+1 <= n, got n={n}, k={k}")
    p = np.asarray(std_normal_cdf(x), dtype=float)
    return betainc(n - k, k + 1, p)


def resolve_index_variant(n: int = 10 ** 6, ks: tuple[int, ...] = (0, 1, 2, 5),
                          reps: int = 10 ** 6, seed: int = 20260301) -> dict:
    """Measure both index variants against the exact Beta sampling oracle.

    A variant *survives* when at every k its mean and variance both lie
    within 3 Monte Carlo SE plus one error order (``mean_error_order``,
    ``var_error_order``) of the oracle; the constant 1 in front of the
    order is a choice.  The dict lists them as ``survivors``, with each
    variant's ``worst_excess`` over 3 SE in error orders (survival iff
    <= 1).  Independently of the error orders, ``canonical`` is the
    variant with the smallest ``worst_dev_se`` (worst deviation in SE) and
    ``within_3se`` says whether a bare 3 SE bar holds.  ``details`` holds
    the per-k oracle moments and predictions.
    """
    details = []
    worst = {v: 0.0 for v in VARIANTS}
    excess = {v: -math.inf for v in VARIANTS}
    for k in ks:
        est = sample_extreme(n, k, reps, seed)
        row = {"k": k, "mc_mean": est.mean, "mc_var": est.variance,
               "se_mean": est.se_mean, "se_var": est.se_var}
        for v in VARIANTS:
            pred = extreme_mean(n, k, v)
            gap_mean = abs(est.mean - pred.mean_pred)
            gap_var = abs(est.variance - pred.var_pred)
            dev_mean = gap_mean / est.se_mean
            dev_var = gap_var / est.se_var
            row[v] = {"mean_pred": pred.mean_pred, "var_pred": pred.var_pred,
                      "dev_mean_se": dev_mean, "dev_var_se": dev_var}
            worst[v] = max(worst[v], dev_mean, dev_var)
            excess[v] = max(
                excess[v],
                (gap_mean - 3.0 * est.se_mean) / pred.mean_error_order,
                (gap_var - 3.0 * est.se_var) / pred.var_error_order)
        details.append(row)
    return {
        "survivors": [v for v in VARIANTS if excess[v] <= 1.0],
        "worst_excess": excess,
        "canonical": min(VARIANTS, key=lambda v: worst[v]),
        "within_3se": {v: worst[v] <= 3.0 for v in VARIANTS},
        "worst_dev_se": worst,
        "details": details,
        "n": n, "reps": reps, "seed": seed,
    }


def uniform_quantile_central_moment(n: int, u, p: int):
    """Exact ``E(sqrt(n)(U_(ceil(nu)) - u))^p / (u(1-u))^{p/2}``, p in {2, 4}.

    ``U_(i) ~ Beta(a, n + 1 - a)`` with ``a = i``: the moment expands about
    the Beta mean with the closed-form cumulants ``k2, k3, k4`` and ``d =
    a/(n+1) - u`` (taken from the nearer tail, so it does not cancel):
    ``E(U-u)^2 = k2 + d^2``, ``E(U-u)^4 = k4 + 3 k2^2 + 4 d k3 + 6 d^2 k2 +
    d^4``.  No simulation; ~1e-15 relative for n up to 1e10 (the tests hold
    it to 1e-12 against exact rationals).  Accepts an array of u values.
    """
    if p not in (2, 4):
        raise DomainError("only the even powers p = 2 and p = 4 are supported")
    n = _integer("n", n, 1)
    u_arr = np.atleast_1d(_as_unit_prob_array(u))
    a = np.ceil(n * u_arr)
    if np.any(a < 1) or np.any(a > n):
        raise DomainError("ceil(n u) must land in 1..n")
    s = n + 1.0
    b = s - a
    d = np.where(u_arr <= 0.5, a / s - u_arr, (1.0 - u_arr) - b / s)
    ab = a * b
    k2 = ab / (s * s * (s + 1.0))
    norm = u_arr * (1.0 - u_arr)
    if p == 2:
        out = n * (k2 + d * d) / norm
    else:
        k3 = 2.0 * ab * (b - a) / (s ** 3 * (s + 1.0) * (s + 2.0))
        k4 = (6.0 * ab * ((a - b) ** 2 * (s + 1.0) - ab * (s + 2.0))
              / (s ** 4 * (s + 1.0) ** 2 * (s + 2.0) * (s + 3.0)))
        cm4 = k4 + 3.0 * k2 * k2 + d * (4.0 * k3 + d * (6.0 * k2 + d * d))
        out = n * n * cm4 / norm ** 2
    return float(out[0]) if np.isscalar(u) or np.ndim(u) == 0 else out
