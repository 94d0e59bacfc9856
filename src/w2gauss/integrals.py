"""Singular integrals of the variance weight and the copula diagonal gap.

All integrands here blow up like ``1/((1-u) log(1/(1-u)))`` at the
endpoints, which defeats naive quadrature.  Every evaluation therefore
substitutes ``u = 1 - exp(-exp(t))`` (mirrored at the lower end), under
which ``u(1-u)/h^2 du`` becomes a bounded, slowly varying integrand on the
iterated-log scale ``t = log log (1/(1-u))``, which the package's one
tanh-sinh rule (``special._de_quad``) integrates and certifies.  The
certificate does not cover the tail law in ``_diag_tail_ratio``.

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
from scipy.special import erfcx, ndtr, ndtri

from .errors import DivergenceError, DomainError
from .extremes import GAMMA0
from .special import (_bvnu_vec, _de_quad, as_correlation,
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
_T_SWITCH = math.log(-math.log(float(ndtr(-math.sqrt(190.0)))))  # x^2 = 190

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

def _weight_t(t, x):
    """``q^2 L / h^2 = L R(x)^2`` at ``L = e^t``, ``x = -Phi^{-1}(e^{-L})``.

    Mills' ratio ``R = q/phi(x) = sqrt(pi/2) erfcx(x/sqrt 2)`` keeps full
    precision at any depth, where ``exp(-2L + t + x^2 + log 2 pi)`` cancels.
    """
    return np.exp(t) * (math.pi / 2.0) * erfcx(x / math.sqrt(2.0)) ** 2


def _bulk_integrand_t(t, rows):
    """``u(1-u)/h^2 du`` on [1/2, 1) after u = 1 - exp(-exp(t)).

    The Jacobian is ``du = q L dt``; the result is ``u * q^2 L / h^2``,
    bounded (tending to 1/2) as t grows.
    """
    q = np.exp(-np.exp(t))
    return (1.0 - q) * _weight_t(t, -ndtri(q))


def _bulk_quad(t_hi: float, what: str):
    """The weight ``u(1-u)/h^2`` integrated over ``[T_HALF, t_hi]``.

    The one quadrature behind ``bickel_integral`` and ``d1n``: its value,
    error estimate and evaluation count.
    """
    value, err, neval = _de_quad(_bulk_integrand_t, [T_HALF], [t_hi], what,
                                 rel=1e-10, abs_=1e-13)
    return float(value[0]), float(err[0]), int(neval[0])


def _t_of(delta: float) -> float:
    return math.log(math.log(1.0 / delta))


def _check_n(n) -> float:
    nf = float(n)
    if not (math.isfinite(nf) and nf >= 8.0):
        raise DomainError(f"n >= 8 required, got {n!r}")
    return nf


def bickel_integral(n) -> SingularIntegralResult:
    """``int_{1/n}^{1-1/n} u(1-u)/h^2 du`` with certified error.

    ``n`` may be any real >= 8 (it enters only through the cut ``1/n``,
    so astronomically large values are legal).  The value is twice the
    upper half, which is exact by the u <-> 1-u symmetry ``h(u) =
    h(1-u)``.  ``centered_or_ratio`` holds the centered value, i.e. value
    minus ``log log n``.
    """
    nf = _check_n(n)
    value, err, neval = _bulk_quad(_t_of(1.0 / nf), "bickel_integral")
    value, err = 2.0 * value, 2.0 * err
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

def _diag_tail_ratio(x, rho: float):
    """``P(X > x, Y > x) / P(X > x)`` on the diagonal.

    The bivariate quadrature while x^2 < 190 (``1-u`` above 1.6e-43), then
    the tail law ``(1+rho) Phi(-x sqrt((1-rho)/(1+rho)))``: exact at rho =
    0 and 1e-14 off in ``1 - r`` at rho = 0.6, but +3.8e-3 relative off in
    r at the switch at rho = 0.95 (30-digit reference).  ``M(rho, 1e-250)``
    is then +5.1e-6 relative off at rho = 0.95 and +1.5e-4 at 0.99, which
    its certified error estimate does not cover.
    """
    near = x * x < 190.0
    r = (1.0 + rho) * ndtr(-x * math.sqrt((1.0 - rho) / (1.0 + rho)))
    r[near] = _bvnu_vec(x[near], x[near], rho) / ndtr(-x[near])
    return r


def _second_moment_integrand_t(t, rho: float):
    """One-tail integrand of M(rho, .) on the t-scale: ``(1-r) q^2 L / h^2``.

    ``r`` is the diagonal survival ratio; finite for t <= _t_of(DELTA_FLOOR).
    """
    x = -ndtri(np.exp(-np.exp(t)))
    return (1.0 - _diag_tail_ratio(x, rho)) * _weight_t(t, x)


def _second_moment_quad(rho: float, edges, what: str):
    """Four times the one-tail integral over each window between ``edges``.

    The one quadrature behind ``M(rho, .)``: one call over the windows, cut
    at the tail-law switch so that each piece is smooth.  Returns lists of
    the windows' values, error estimates and evaluation counts.
    """
    cuts = np.union1d(edges, np.clip(_T_SWITCH, edges[0], edges[-1]))
    pieces = _de_quad(lambda t, rows: _second_moment_integrand_t(t, rho),
                      cuts[:-1], cuts[1:], what, rel=1e-9, abs_=1e-12)
    window = np.searchsorted(edges, cuts[:-1], side="right") - 1
    return [np.bincount(window, p).tolist() for p in
            (4.0 * pieces[0], 4.0 * pieces[1], pieces[2])]


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
    (value,), (err,), (neval,) = _second_moment_quad(
        corr.rho, [T_HALF, _t_of(delta)], "truncated_second_moment")
    return SingularIntegralResult(
        value=value, abs_error_estimate=err, evaluations=int(neval),
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
    incs, errs, nevals = _second_moment_quad(corr.rho, edges,
                                             "second_moment_windows")
    return {"rho": corr.rho, "deltas": list(deltas),
            "values": list(itertools.accumulate(incs)),
            "errors": list(itertools.accumulate(errs)),
            "evaluations": [int(e) for e in itertools.accumulate(nevals)],
            "slopes": (np.array(incs) / np.diff(edges)).tolist()}


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
