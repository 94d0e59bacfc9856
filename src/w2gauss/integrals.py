"""Singular integrals of the variance weight and the copula diagonal gap.

All integrands here blow up like ``1/((1-u) log(1/(1-u)))`` at the
endpoints, which defeats naive quadrature.  Every evaluation therefore
substitutes ``u = 1 - exp(-exp(t))`` (mirrored at the lower end), under
which ``u(1-u)/h^2 du`` becomes a bounded, slowly varying integrand on the
iterated-log scale ``t = log log (1/(1-u))`` and adaptive Gauss-Kronrod
panels certify tight error estimates.

Provided integrals:

* ``bickel_integral``: ``int_{1/n}^{1-1/n} u(1-u)/h^2 du``, whose centered
  value (minus ``log log n``) approaches ``log 2 + gamma0``,
* ``d1n``: the bulk piece ``int_{1/2}^{1-K/n} u(1-u)/h^2 du`` with
  ``K = floor(C (log n)^theta)``,
* ``truncated_second_moment``: ``M(rho, delta) = 2 int_delta^{1-delta}
  (u - C_rho(u,u))/h^2 du`` for the coupled-bridge functional,
* ``second_moment_windows``: ``M(rho, delta)`` over a ladder of shrinking
  truncations, each window integrated once and certified by the same
  quadrature as ``truncated_second_moment``,
* ``limit_second_moment``: the delta -> 0 limit of the above, which does
  not exist.  Over the certified windows the truncated values grow by ~2
  per unit of ``log log (1/delta)`` for *every* admissible rho — the
  asymptotic independence of the Gaussian tails makes the diagonal gap of
  order ``(1-u)``, not ``o(1-u)`` — so the function always raises
  :class:`~w2gauss.errors.DivergenceError` carrying the window table.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DivergenceError, DomainError, QuadratureError
from .extremes import GAMMA0
from .special import (_LOG_2PI, _LOG_4PI, _bvnu_scalar, as_correlation,
                      copula_diagonal_gap, density_quantile_h)

__all__ = [
    "SingularIntegralResult",
    "DiagonalTailDiagnostics",
    "variance_weight",
    "bickel_integral",
    "d1n",
    "truncated_second_moment",
    "second_moment_windows",
    "limit_second_moment",
    "copula_diagonal_tail",
    "LOG2_PLUS_GAMMA0",
    "DELTA_FLOOR",
]

LOG2_PLUS_GAMMA0 = math.log(2.0) + GAMMA0

T_HALF = math.log(math.log(2.0))  # t at u = 1/2
DELTA_FLOOR = 1e-250  # below this 1-u is not resolvable in double precision

# window edges used by the divergence probe (truncation delta per window)
_WINDOW_DELTAS = (1e-4, 1e-8, 1e-16, 1e-32, 1e-64, 1e-128, 1e-250)


@dataclasses.dataclass(frozen=True)
class SingularIntegralResult:
    """A certified quadrature value over (lower, upper).

    ``centered_or_ratio`` carries the derived quantity each integral is
    consumed through: value minus ``log log n`` for the centering
    integral, value over ``log log n`` for the bulk piece, and the
    truncation point for second-moment evaluations.
    """

    value: float
    abs_error_estimate: float
    evaluations: int
    lower: float
    upper: float
    centered_or_ratio: float | None = None

    def __post_init__(self):
        if not (self.lower < self.upper):
            raise DomainError("lower < upper required")
        if self.abs_error_estimate < 0.0:
            raise DomainError("error estimate must be nonnegative")


@dataclasses.dataclass(frozen=True)
class DiagonalTailDiagnostics:
    """The second-moment integrand near u = 1 next to its claimed envelope.

    ``integrand`` is ``(u - C_rho(u,u))/h(u)^2``; ``envelope`` is the
    bound the integrand is asserted to obey (``1/((1-u) L^2)`` for
    rho > 0, ``u (1-u)^{(1-rho)/(1+rho)} L^{-2 rho/(1+rho)} / h^2`` for
    rho < 0); ``ratio`` is integrand/envelope.  ``gap_over_tail`` is
    ``(u - C)/(1-u)``, which tends to 1 for every |rho| < 1 — the
    measured fact that drives the divergence findings.
    """

    rho: float
    u: float
    gap: float
    integrand: float
    envelope: float
    ratio: float
    gap_over_tail: float


def _certify(value: float, err: float, info: dict, what: str,
             rel: float = 1e-9, abs_: float = 1e-12) -> int:
    target = max(abs_, rel * abs(value))
    if not (err <= target) or not math.isfinite(value):
        raise QuadratureError(
            f"{what}: quadrature error {err:.3e} exceeds target {target:.3e}")
    return int(info["neval"])


def variance_weight(u):
    """``u (1-u) / h(u)^2``, the variance weight of the quantile process."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("variance_weight needs u strictly in (0,1)")
    h = np.asarray(density_quantile_h(arr))
    out = arr * (1.0 - arr) / (h * h)
    return float(out) if np.ndim(u) == 0 else out


# --------------------------------------------------------------------------
# transformed integrands (upper tail; the lower tail is its mirror image)
# --------------------------------------------------------------------------

def _log_weight_t(t: float, L: float, x: float) -> float:
    """``log(q^2 L / h^2)`` with q = e^{-L}: equals -2L + t + x^2 + log 2 pi."""
    return -2.0 * L + t + x * x + _LOG_2PI


def _bulk_integrand_t(t: float) -> float:
    """``u(1-u)/h^2 du`` on [1/2, 1) after u = 1 - exp(-exp(t)).

    The Jacobian is ``du = q L dt``; the result is ``u * q^2 L / h^2``,
    bounded (tending to 1/2) as t grows.
    """
    L = math.exp(t)
    q = math.exp(-L)
    x = -float(ndtri(q))
    u = 1.0 - q
    return u * math.exp(_log_weight_t(t, L, x))


def _lower_bulk_integrand_t(t: float) -> float:
    """``u(1-u)/h^2 du`` on (0, 1/2] after u = exp(-exp(t)) (mirror)."""
    L = math.exp(t)
    u = math.exp(-L)
    x = float(ndtri(u))
    return (1.0 - u) * math.exp(_log_weight_t(t, L, x))


def _bulk_quad(t_hi: float, what: str, integrand=_bulk_integrand_t,
               scale: float = 1.0) -> tuple[float, float, int]:
    """``scale`` times the certified integral of the weight ``u(1-u)/h^2``.

    The one quadrature behind ``bickel_integral`` and ``d1n``: integrates
    ``integrand`` (the upper half, or its mirror) over ``[T_HALF, t_hi]``
    and returns value, error estimate and evaluation count like
    :func:`_second_moment_quad`.
    """
    # imported here so that only quadrature callers pay for scipy.integrate
    from scipy import integrate
    value, err, info = integrate.quad(
        integrand, T_HALF, t_hi, full_output=True,
        epsabs=1e-13, epsrel=1e-10, limit=400)[:3]
    value *= scale
    err *= scale
    return value, err, _certify(value, err, info, what)


def _t_of(delta: float) -> float:
    return math.log(math.log(1.0 / delta))


def _check_n(n) -> float:
    nf = float(n)
    if not (math.isfinite(nf) and nf >= 8.0):
        raise DomainError(f"n >= 8 required, got {n!r}")
    return nf


def bickel_integral(n, *, use_symmetry: bool = True) -> SingularIntegralResult:
    """``int_{1/n}^{1-1/n} u(1-u)/h^2 du`` with certified error.

    ``n`` may be any real >= 8 (it enters only through the cut ``1/n``,
    so astronomically large values are legal).  By default the value is
    twice the upper half, which is exact by the u <-> 1-u symmetry;
    ``use_symmetry=False`` integrates and certifies both halves
    independently (useful to validate the mirrored transform).
    ``centered_or_ratio`` holds the centered value, i.e. value minus
    ``log log n``.
    """
    nf = _check_n(n)
    t_hi = _t_of(1.0 / nf)
    if use_symmetry:
        value, err, neval = _bulk_quad(t_hi, "bickel_integral", scale=2.0)
    else:
        (upper, err_u, n_u), (lower, err_l, n_l) = (
            _bulk_quad(t_hi, "bickel_integral", f)
            for f in (_bulk_integrand_t, _lower_bulk_integrand_t))
        value, err, neval = upper + lower, err_u + err_l, n_u + n_l
    loglog_n = math.log(math.log(nf))
    return SingularIntegralResult(
        value=value, abs_error_estimate=err, evaluations=neval,
        lower=1.0 / nf, upper=1.0 - 1.0 / nf,
        centered_or_ratio=value - loglog_n)


def d1n(n, C: float = 1.0, theta: float = 2.0) -> SingularIntegralResult:
    """Bulk integral ``int_{1/2}^{1-K/n} u(1-u)/h^2 du``, K = floor(C (log n)^theta).

    ``centered_or_ratio`` holds the ratio of the value to ``log log n``.
    """
    nf = _check_n(n)
    if not (C > 0.0 and 1.0 < theta <= 2.0):
        raise DomainError(f"need C > 0 and 1 < theta <= 2, got ({C!r}, {theta!r})")
    K = math.floor(C * math.log(nf) ** theta)
    if K < 1:
        raise DomainError("cut floor(C (log n)^theta) must be >= 1")
    d_cut = K / nf
    if d_cut >= 0.5:
        raise DomainError("cut K/n must fall below 1/2")
    value, err, neval = _bulk_quad(_t_of(d_cut), "d1n")
    loglog_n = math.log(math.log(nf))
    return SingularIntegralResult(
        value=value, abs_error_estimate=err, evaluations=neval,
        lower=0.5, upper=1.0 - d_cut, centered_or_ratio=value / loglog_n)


# --------------------------------------------------------------------------
# second moment of the coupled-bridge functional
# --------------------------------------------------------------------------

def _diag_tail_ratio(x: float, q: float, rho: float) -> float:
    """``P(X > x, Y > x) / P(X > x)`` on the diagonal, stable at any depth.

    Uses the bivariate quadrature while its guard conditions hold
    (x^2 < 190); beyond that the survival ratio follows its tail law
    ``(1+rho) Phi(-x sqrt((1-rho)/(1+rho)))``, already accurate to ~1%
    at x = 8 and improving, while the ratio itself is far below the
    integrand's scale.
    """
    if x * x < 190.0 and q > 0.0:
        return _bvnu_scalar(x, x, rho) / q
    a = math.sqrt((1.0 - rho) / (1.0 + rho))
    return (1.0 + rho) * float(ndtr(-x * a))


def _second_moment_integrand_t(t: float, rho: float) -> float:
    """One-tail integrand of M(rho, .) on the t-scale: ``(1-r) q^2 L / h^2``.

    ``r`` is the diagonal survival ratio; the weight ``q^2 L / h^2`` is
    evaluated in log space so the map stays finite down to the
    double-precision resolution floor of 1-u.
    """
    L = math.exp(t)
    if L > 700.0:
        q = 0.0
        x = math.sqrt(max(0.0, 2.0 * L - math.log(L) - _LOG_4PI))
    else:
        q = math.exp(-L)
        x = -float(ndtri(q))
    r = _diag_tail_ratio(x, q, rho)
    return (1.0 - r) * math.exp(_log_weight_t(t, L, x))


def _second_moment_quad(rho: float, t_lo: float, t_hi: float,
                        what: str) -> tuple[float, float, int]:
    """Four times the one-tail integrand's integral over ``[t_lo, t_hi]``.

    The one quadrature behind ``M(rho, .)``: returns the value, its
    absolute error estimate and the evaluation count, or raises
    :class:`QuadratureError` when the estimate misses its target.
    """
    # imported here so that only quadrature callers pay for scipy.integrate
    from scipy import integrate
    value, err, info = integrate.quad(
        _second_moment_integrand_t, t_lo, t_hi, args=(rho,),
        full_output=True, epsabs=1e-12, epsrel=1e-9, limit=400)[:3]
    value *= 4.0
    err *= 4.0
    neval = _certify(value, err, info, what, rel=1e-8, abs_=1e-11)
    return value, err, neval


def truncated_second_moment(rho, delta: float) -> SingularIntegralResult:
    """``M(rho, delta) = 2 int_delta^{1-delta} (u - C_rho(u,u))/h^2 du``.

    The gap is symmetric under u <-> 1-u, so the value is four times the
    one-tail transformed integral.  ``delta`` must lie in
    ``[DELTA_FLOOR, 1/4)``.  ``centered_or_ratio`` records delta.
    """
    corr = as_correlation(rho)
    if not (DELTA_FLOOR <= delta < 0.25):
        raise DomainError(
            f"delta must lie in [{DELTA_FLOOR:g}, 0.25), got {delta!r}")
    value, err, neval = _second_moment_quad(
        corr.rho, T_HALF, _t_of(delta), "truncated_second_moment")
    return SingularIntegralResult(
        value=value, abs_error_estimate=err, evaluations=neval,
        lower=delta, upper=1.0 - delta, centered_or_ratio=delta)


def second_moment_windows(rho, deltas: tuple[float, ...] = _WINDOW_DELTAS):
    """Certified truncated second moments over shrinking windows.

    Each window between consecutive truncation points is integrated once
    and certified like :func:`truncated_second_moment`.  Returns a dict
    with ``deltas``; the cumulative ``values`` of ``M(rho, delta)``, with
    their cumulative ``errors`` (absolute error estimates) and
    ``evaluations``; and the per-window ``slopes`` dM/dt on the
    ``t = log log(1/delta)`` scale.  A finite limit requires the slopes
    to die out; slopes near 2 witness ``M ~ 2 log log (1/delta)`` growth.
    """
    corr = as_correlation(rho)
    edges = [T_HALF] + [_t_of(d) for d in deltas]
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise DomainError("window deltas must be strictly decreasing")
    windows = list(zip(edges, edges[1:]))
    incs, errs, nevals = zip(*(
        _second_moment_quad(corr.rho, a, b, "second_moment_windows")
        for a, b in windows))
    return {"rho": corr.rho, "deltas": list(deltas),
            "values": list(itertools.accumulate(incs)),
            "errors": list(itertools.accumulate(errs)),
            "evaluations": list(itertools.accumulate(nevals)),
            "slopes": [inc / (b - a) for inc, (a, b) in zip(incs, windows)]}


def limit_second_moment(rho) -> SingularIntegralResult:
    """``2 int_0^1 (u - C_rho(u,u))/h^2 du`` — the coupled functional's mean.

    This integral is ``+infinity`` for every admissible rho, so the
    function always raises :class:`DivergenceError`; it never returns.
    The Gaussian copula's diagonal gap behaves like ``(1-u)`` for every
    |rho| < 1 (asymptotic tail independence).  The error carries the
    evidence: the certified window table of :func:`second_moment_windows`
    down to the double-precision floor, whose growth per unit of
    ``log log(1/delta)`` approaches 2.  Use
    :func:`truncated_second_moment` for the finite truncated family.
    """
    corr = as_correlation(rho)
    table = second_moment_windows(corr)
    last_slope = table["slopes"][-1]
    if corr.zero_flag:
        note = ("rho = 0: the gap is u(1-u) and the integral is the "
                "classical divergent variance integral, growing as "
                "2 log log(1/delta)")
    else:
        note = (f"rho = {corr.rho}: truncated values still grow at "
                f"{last_slope:.3f} per unit log log(1/delta) at "
                f"delta = {table['deltas'][-1]:g}; the diagonal gap "
                "(u - C_rho(u,u))/(1-u) tends to 1, so the integral "
                "diverges like 2 log log(1/delta)")
    raise DivergenceError(
        f"limit_second_moment diverges for rho = {corr.rho}",
        diagnostics={"deltas": table["deltas"], "values": table["values"],
                     "slopes": table["slopes"], "slope": last_slope,
                     "note": note})


def copula_diagonal_tail(rho, u) -> DiagonalTailDiagnostics:
    """Diagnostics for the second-moment integrand near u = 1.

    Requires ``log(1/(1-u)) > e``.  Reports the exact integrand, the
    claimed envelope for the sign of rho, their ratio, and the gap
    measured against the marginal tail ``1-u``.
    """
    corr = as_correlation(rho)
    uf = float(u)
    if not (0.0 < uf < 1.0):
        raise DomainError("u must lie in (0,1)")
    q = 1.0 - uf
    L = -math.log(q)
    if not (L > math.e):
        raise DomainError("copula_diagonal_tail needs log(1/(1-u)) > e")
    gap = copula_diagonal_gap(uf, corr)
    h = float(density_quantile_h(uf))
    integrand = gap / (h * h)
    if corr.rho >= 0.0:
        envelope = 1.0 / (q * L * L)
    else:
        expo = (1.0 - corr.rho) / (1.0 + corr.rho)
        envelope = uf * q ** expo * L ** (-2.0 * corr.rho / (1.0 + corr.rho)) \
            / (h * h)
    return DiagonalTailDiagnostics(
        rho=corr.rho, u=uf, gap=gap, integrand=integrand, envelope=envelope,
        ratio=integrand / envelope, gap_over_tail=gap / q)
