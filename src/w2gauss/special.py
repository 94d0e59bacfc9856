"""Univariate and bivariate Gaussian special functions and tail expansions.

Everything here is a pure function of its inputs.  The module provides

* the standard normal cdf / survival / density / quantile with stable
  complements (no ``1 - Phi(x)`` cancellation anywhere),
* the density-quantile function ``h(u) = phi(Phi^{-1}(u))`` and the
  cumulant-style transform ``psi(x) = -log(1 - Phi(x))``,
* closed-form tail expansions of ``Phi^{-1}``, ``h`` and the scaled tail
  ``1 - Phi(a Phi^{-1}(u))`` with their leading relative-error orders,
* the bivariate normal upper tail / cdf (Drezner-Wesolowsky / Genz
  quadrature, both correlation branches) and the Gaussian copula,
  including a cancellation-free diagonal gap ``u - C_rho(u, u)``,
* the package's one quadrature rule (tanh-sinh on nested levels), which
  certifies every singular integral and exact order-statistic mean.

Scalar arguments return floats; most operations also accept ndarrays and
broadcast elementwise.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from .errors import DomainError, QuadratureError

__all__ = [
    "UnitProb",
    "Correlation",
    "TailExpansion",
    "ScaledTail",
    "std_normal_cdf",
    "std_normal_sf",
    "std_normal_log_sf",
    "std_normal_pdf",
    "std_normal_quantile",
    "density_quantile_h",
    "psi",
    "psi_expansion",
    "quantile_tail_expansion",
    "quantile_tail_expansion_groupings",
    "h_tail_expansion",
    "scaled_tail",
    "bivariate_normal_cdf",
    "bivariate_normal_survival",
    "gaussian_copula",
    "copula_diagonal_gap",
    "mills_ratio_bound",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_2PI = math.log(2.0 * math.pi)
_LOG_4PI = math.log(4.0 * math.pi)


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class UnitProb:
    """A probability strictly inside (0, 1)."""

    u: float

    def __post_init__(self):
        u = self.u
        if not (isinstance(u, (int, float)) and math.isfinite(u) and 0.0 < u < 1.0):
            raise DomainError(f"UnitProb requires 0 < u < 1, got {u!r}")

    def __float__(self) -> float:
        return float(self.u)


@dataclasses.dataclass(frozen=True)
class Correlation:
    """A correlation coefficient with |rho| < 1.

    ``zero_flag`` records whether rho is exactly zero; several consumers
    (divergence demonstrations, independence shortcuts) branch on it.
    """

    rho: float
    zero_flag: bool = dataclasses.field(init=False)

    def __post_init__(self):
        rho = self.rho
        if not (isinstance(rho, (int, float)) and math.isfinite(rho) and abs(rho) < 1.0):
            raise DomainError(f"Correlation requires |rho| < 1, got {rho!r}")
        object.__setattr__(self, "rho", float(rho))
        object.__setattr__(self, "zero_flag", self.rho == 0.0)

    def __float__(self) -> float:
        return self.rho


def as_correlation(rho) -> Correlation:
    """Coerce a float or Correlation to a validated Correlation;
    ``DomainError`` for anything ``float()`` rejects."""
    if isinstance(rho, Correlation):
        return rho
    try:
        rho = float(rho)
    except (TypeError, ValueError):
        raise DomainError(f"rho must be a real number, got {rho!r}") from None
    return Correlation(rho)


@dataclasses.dataclass(frozen=True)
class TailExpansion:
    """A closed-form tail approximation together with its error order.

    ``L = log(1/(1-u))`` and ``LL = log L`` are the iterated logarithms the
    expansion is built from; ``relative_error_order`` is the magnitude of
    the leading neglected term (``LL/L`` for the quantile and ``h``
    expansions, ``1/x^2`` for ``psi``).
    """

    u: float
    L: float
    LL: float
    value: float
    relative_error_order: float

    def __post_init__(self):
        if not (self.L > 1.0):
            raise DomainError(f"TailExpansion requires L > 1, got L={self.L!r}")
        if not math.isfinite(self.value):
            raise DomainError("TailExpansion value must be finite")


@dataclasses.dataclass(frozen=True)
class ScaledTail:
    """Exact and asymptotic values of ``1 - Phi(a * Phi^{-1}(u))``.

    ``asymptotic`` is the corrected closed form
    ``(1-u)^{a^2} / (a * (4 pi L)^{(1-a^2)/2})`` whose ratio to the exact
    value tends to 1.  ``asymptotic_as_stated`` keeps the variant with the
    ``(4 pi)`` power in the numerator; its ratio to the exact value tends
    to the constant ``(4 pi)^{a^2-1}`` instead of 1, so it is exposed for
    inspection but not used elsewhere.
    """

    a: float
    u: float
    exact: float
    asymptotic: float
    asymptotic_as_stated: float
    ratio: float


# --------------------------------------------------------------------------
# argument checking helpers
# --------------------------------------------------------------------------

def _as_float_array(x, name: str):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return arr


def _as_unit_prob_array(u, name: str = "u"):
    if isinstance(u, UnitProb):
        u = u.u
    arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError(f"{name} must lie strictly in (0, 1), got {u!r}")
    return arr


def _scalar_or_array(result, *inputs):
    if all(np.isscalar(x) or isinstance(x, (UnitProb, float, int)) for x in inputs):
        return float(result)
    return result


# --------------------------------------------------------------------------
# univariate operations
# --------------------------------------------------------------------------

def std_normal_cdf(x):
    """Standard normal cdf ``Phi(x)``; accepts +-inf returning 1/0."""
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)):
        raise DomainError(f"std_normal_cdf: input must not be NaN, got {x!r}")
    return _scalar_or_array(ndtr(arr), x)


def std_normal_sf(x):
    """Stable survival function ``1 - Phi(x)``, computed as ``Phi(-x)``."""
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)):
        raise DomainError(f"std_normal_sf: input must not be NaN, got {x!r}")
    return _scalar_or_array(ndtr(-arr), x)


def std_normal_log_sf(x):
    """``log(1 - Phi(x))`` without underflow, via ``log Phi(-x)``."""
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)):
        raise DomainError(f"std_normal_log_sf: input must not be NaN, got {x!r}")
    return _scalar_or_array(log_ndtr(-arr), x)


def std_normal_pdf(x):
    """Standard normal density ``phi(x)``."""
    arr = _as_float_array(x, "std_normal_pdf: x")
    return _scalar_or_array(np.exp(-0.5 * arr * arr) / _SQRT_2PI, x)


def std_normal_quantile(p):
    """Standard normal quantile ``Phi^{-1}(p)`` for ``p`` in (0, 1).

    For ``p > 1/2`` the value is computed as ``-Phi^{-1}(1-p)``; the
    complement ``1-p`` is exact in floating point there, so the two tails
    are evaluated with identical accuracy and the map is antisymmetric on
    complement-exact pairs.
    """
    arr = _as_unit_prob_array(p, "std_normal_quantile: p")
    upper = arr > 0.5
    out = np.where(upper, -ndtri(1.0 - np.where(upper, arr, 0.5)),
                   ndtri(np.where(upper, 0.5, arr)))
    out = out + 0.0  # normalise -0.0 at p = 1/2
    return _scalar_or_array(out, p)


def density_quantile_h(u):
    """Density-quantile function ``h(u) = phi(Phi^{-1}(u))``."""
    x = std_normal_quantile(u)
    return std_normal_pdf(x)


def psi(x):
    """``psi(x) = -log(1 - Phi(x))``, exact via the stable log-complement."""
    return _scalar_or_array(-np.asarray(std_normal_log_sf(x)), x)


def psi_expansion(x) -> TailExpansion:
    """Closed-form tail expansion ``psi(x) ~ x^2/2 + log x + log(2 pi)/2``.

    Valid for ``x > 1``; the neglected term is ``O(1/x^2)``.
    """
    xf = float(x)
    if not (math.isfinite(xf) and xf > 1.0):
        raise DomainError(f"psi_expansion requires x > 1, got {x!r}")
    value = 0.5 * xf * xf + math.log(xf) + 0.5 * _LOG_2PI
    L = float(psi(xf))
    return TailExpansion(u=float(std_normal_cdf(xf)), L=L, LL=math.log(L),
                         value=value, relative_error_order=1.0 / (xf * xf))


def _iterated_logs(u) -> tuple[float, float, float]:
    """Return (q, L, LL) = (1-u, log(1/(1-u)), log L), requiring L > e."""
    uf = float(_as_unit_prob_array(u))
    q = 1.0 - uf
    L = -math.log(q)
    if not (L > math.e):
        raise DomainError(
            f"tail expansion requires log(1/(1-u)) > e, got L={L:.6g} at u={uf!r}")
    return q, L, math.log(L)


def quantile_tail_expansion(u) -> TailExpansion:
    """Tail expansion ``Phi^{-1}(u) ~ sqrt(2(L - LL/2 - log(4 pi)/2))``.

    Requires ``L = log(1/(1-u)) > e``; relative error is ``O(LL/L)``.
    """
    _, L, LL = _iterated_logs(u)
    radicand = 2.0 * (L - 0.5 * LL - 0.5 * _LOG_4PI)
    return TailExpansion(u=float(u), L=L, LL=LL, value=math.sqrt(radicand),
                         relative_error_order=LL / L)


def quantile_tail_expansion_groupings(u) -> dict[str, float]:
    """Both published groupings of the quantile tail expansion.

    ``absorbed`` keeps the constants as ``-(1/2) log(4 pi)`` inside the
    root; ``split`` writes them as ``-(log 2 + log(2 pi))/2``.  They are
    algebraically identical (``log 4 pi = log 2 + log 2 pi``), which the
    returned pair makes checkable to the last ulp.
    """
    _, L, LL = _iterated_logs(u)
    absorbed = math.sqrt(2.0 * (L - 0.5 * LL - 0.5 * _LOG_4PI))
    split = math.sqrt(2.0 * L - LL - math.log(2.0) - _LOG_2PI)
    return {"absorbed": absorbed, "split": split}


def h_tail_expansion(u) -> TailExpansion:
    """Tail expansion ``h(u) ~ sqrt(2) (1-u) sqrt(L)`` with error ``O(LL/L)``."""
    q, L, LL = _iterated_logs(u)
    return TailExpansion(u=float(u), L=L, LL=LL,
                         value=math.sqrt(2.0) * q * math.sqrt(L),
                         relative_error_order=LL / L)


def scaled_tail(a, u) -> ScaledTail:
    """Exact and asymptotic ``1 - Phi(a Phi^{-1}(u))`` for ``a > 0``.

    The corrected asymptotic is ``(1-u)^{a^2} / (a (4 pi L)^{(1-a^2)/2})``;
    the as-stated variant puts ``(4 pi)^{(1-a^2)/2}`` in the numerator and
    misses the exact value by the constant factor ``(4 pi)^{a^2-1}``.
    """
    af = float(a)
    if not (math.isfinite(af) and af > 0.0):
        raise DomainError(f"scaled_tail requires a > 0, got {a!r}")
    q, L, _ = _iterated_logs(u)
    x = std_normal_quantile(u)
    exact = float(std_normal_sf(af * x))
    # log-space evaluation: q^{a^2} underflows quickly for a > 1
    log_asym = (af * af) * math.log(q) - math.log(af) \
        - 0.5 * (1.0 - af * af) * (_LOG_4PI + math.log(L))
    asym = math.exp(log_asym)
    log_as_stated = 0.5 * (1.0 - af * af) * _LOG_4PI + (af * af) * math.log(q) \
        - math.log(af) - 0.5 * (1.0 - af * af) * math.log(L)
    as_stated = math.exp(log_as_stated)
    ratio = exact / asym if asym > 0 else math.inf
    return ScaledTail(a=af, u=float(u), exact=exact, asymptotic=asym,
                      asymptotic_as_stated=as_stated, ratio=ratio)


def mills_ratio_bound(x):
    """Upper tail bound ``phi(x)/x`` valid for ``x > 0``."""
    arr = _as_float_array(x, "mills_ratio_bound: x")
    if np.any(arr <= 0.0):
        raise DomainError("mills_ratio_bound requires x > 0")
    return _scalar_or_array(np.exp(-0.5 * arr * arr) / (_SQRT_2PI * arr), x)


# --------------------------------------------------------------------------
# bivariate normal (Drezner-Wesolowsky / Genz quadrature)
# --------------------------------------------------------------------------
# Gauss-Legendre nodes/weights on standard intervals, selected by |rho|.

_W6 = np.array([0.1713244923791705, 0.3607615730481384, 0.4679139345726904])
_X6 = np.array([0.9324695142031522, 0.6612093864662647, 0.2386191860831970])
_W12 = np.array([.04717533638651177, 0.1069393259953183, 0.1600783285433464,
                 0.2031674267230659, 0.2334925365383547, 0.2491470458134029])
_X12 = np.array([0.9815606342467191, 0.9041172563704750, 0.7699026741943050,
                 0.5873179542866171, 0.3678314989981802, 0.1252334085114692])
_W20 = np.array([.01761400713915212, .04060142980038694, .06267204833410906,
                 .08327674157670475, 0.1019301198172404, 0.1181945319615184,
                 0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
                 0.1527533871307259])
_X20 = np.array([0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
                 0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
                 0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
                 0.07652652113349733])


def _gl_rule(r: float):
    ar = abs(r)
    if ar < 0.3:
        return _W6, _X6
    if ar < 0.75:
        return _W12, _X12
    return _W20, _X20


def _bvnu_vec(h, k, r: float):
    """Upper-tail probability ``P(X > h, Y > k)`` at correlation ``|r| < 1``.

    ``h`` and ``k`` broadcast against each other.  This is the package's
    one bivariate-normal quadrature: for ``|r| < 0.925`` it integrates
    Plackett's identity over ``asin(r)``, above that it expands about the
    degenerate ``|r| = 1`` law.  An infinite argument gives the closed
    form ``0``, ``Phi(-k)`` or ``Phi(-h)``.
    """
    h, k = np.broadcast_arrays(np.asarray(h, dtype=float),
                               np.asarray(k, dtype=float))
    finite = np.isfinite(h) & np.isfinite(k)
    if not finite.all():
        out = np.where((h == np.inf) | (k == np.inf), 0.0,
                       np.where(h == -np.inf, ndtr(-k), ndtr(-h)))
        out[finite] = _bvnu_vec(h[finite], k[finite], r)
        return out
    w, x = _gl_rule(r)
    hk = h * k
    if abs(r) < 0.925:
        hs = (h * h + k * k) / 2
        asr = math.asin(r)
        sn1 = np.sin(asr * (1 - x) / 2)
        sn2 = np.sin(asr * (1 + x) / 2)
        acc = np.zeros_like(h)
        for wi, sn in zip(np.concatenate([w, w]), np.concatenate([sn1, sn2])):
            acc += wi * np.exp((sn * hk - hs) / (1 - sn * sn))
        out = acc * asr / (4 * math.pi) + ndtr(-h) * ndtr(-k)
        return np.clip(out, 0.0, 1.0)
    twopi = 2 * math.pi
    if r < 0:
        k = -k
        hk = -hk
    aas = (1 - r) * (1 + r)
    a = math.sqrt(aas)
    bs = np.square(h - k)  # a ufunc, so 0-d and n-d inputs round alike
    c = (4 - hk) / 8
    d = (12 - hk) / 16
    # each term counts only where its exponent guard holds; elsewhere it
    # may overflow, and np.where discards it
    with np.errstate(over="ignore", invalid="ignore"):
        asr = -(bs / aas + hk) / 2
        bvn = np.where(asr > -100,
                       a * np.exp(asr) * (1 - c * (bs - aas) * (1 - d * bs / 5)
                                          / 3 + c * d * aas * aas / 5), 0.0)
        b = np.sqrt(bs)
        sp = math.sqrt(twopi) * ndtr(-b / a)
        bvn = np.where(-hk < 100, bvn - np.exp(-hk / 2) * sp * b
                       * (1 - c * bs * (1 - d * bs / 5) / 3), bvn)
        a = a / 2
        for wi, xi in zip(w, x):
            for sgn in (-1.0, 1.0):
                xs = (a * (sgn * xi + 1)) ** 2
                rs = math.sqrt(1 - xs)
                asr = -(bs / xs + hk) / 2
                sp = 1 + c * xs * (1 + d * xs)
                ep = np.exp(-hk * (1 - rs) / (2 * (1 + rs))) / rs
                bvn = np.where(asr > -100,
                               bvn + a * wi * np.exp(asr) * (ep - sp), bvn)
    bvn = -bvn / twopi
    if r > 0:
        bvn = bvn + ndtr(-np.maximum(h, k))
    else:
        bvn = -bvn + np.maximum(0.0, ndtr(-h) - ndtr(-k))
    return np.clip(bvn, 0.0, 1.0)


def _bvnu_scalar(dh: float, dk: float, r: float) -> float:
    """Scalar form of :func:`_bvnu_vec`."""
    return float(_bvnu_vec(dh, dk, r))


def bivariate_normal_survival(x, y, rho) -> float:
    """P(X > x, Y > y) for standard bivariate normal with correlation rho."""
    corr = as_correlation(rho)
    xf = float(x)
    yf = float(y)
    if math.isnan(xf) or math.isnan(yf):
        raise DomainError("bivariate_normal_survival: NaN input")
    return _bvnu_scalar(xf, yf, corr.rho)


def bivariate_normal_cdf(x, y, rho) -> float:
    """P(X <= x, Y <= y) for standard bivariate normal with correlation rho.

    Computed as the survival probability of the negated pair, which has
    the same correlation.
    """
    corr = as_correlation(rho)
    xf = float(x)
    yf = float(y)
    if not (math.isfinite(xf) and math.isfinite(yf)):
        raise DomainError("bivariate_normal_cdf requires finite x, y")
    return _bvnu_scalar(-xf, -yf, corr.rho)


def gaussian_copula(u, v, rho) -> float:
    """Gaussian copula ``C_rho(u, v) = P(Phi(X) <= u, Phi(Y) <= v)``.

    When ``u + v > 1`` the value is assembled through the joint survival
    probability (``C = u + v - 1 + P(X > x, Y > y)``) so that the small
    complements carry the precision instead of being destroyed by
    cancellation near the upper corner.
    """
    corr = as_correlation(rho)
    uf = float(_as_unit_prob_array(u, "gaussian_copula: u"))
    vf = float(_as_unit_prob_array(v, "gaussian_copula: v"))
    x = float(std_normal_quantile(uf))
    y = float(std_normal_quantile(vf))
    if uf + vf > 1.0:
        c = uf + vf - 1.0 + _bvnu_scalar(x, y, corr.rho)
    else:
        c = _bvnu_scalar(-x, -y, corr.rho)
    return min(max(c, 0.0), min(uf, vf))


def copula_diagonal_gap(u, rho):
    """Cancellation-free diagonal gap ``u - C_rho(u, u)``.

    For ``u >= 1/2`` this equals ``(1-u) - P(X > x, Y > x)`` and for
    ``u < 1/2`` it equals ``u - P(X > |x|, Y > |x|)`` with ``x`` the
    u-quantile; both forms subtract genuinely small quantities, so the
    gap keeps full relative precision deep into the tails.  The gap is
    symmetric under ``u <-> 1-u``.
    """
    corr = as_correlation(rho)
    arr = _as_unit_prob_array(u, "copula_diagonal_gap: u")
    q = np.where(arr >= 0.5, 1.0 - arr, arr)
    x = -ndtri(q)
    gap = np.maximum(0.0, q - _bvnu_vec(x, x, corr.rho))
    return _scalar_or_array(gap, u)


# --------------------------------------------------------------------------
# tanh-sinh quadrature (Takahasi & Mori, Publ. RIMS 1974)
# --------------------------------------------------------------------------

_DE_LEVELS = 8  # level k: step 2^-k / 2 on |s| <= 3.5, weights below 1e-20


def _de_quad(f, a, b, what: str, rel: float, abs_: float):
    """Certified integrals of ``f`` over ``[a[i], b[i]]``, one per row i.

    The package's one quadrature rule, on the nodes ``a + d (1 + tanh(pi/2
    sinh s))`` with ``d = (b-a)/2``.  Each level cuts the step in two and
    evaluates only its new nodes through ``f(x, rows)``, the listed rows'
    integrands.  A row retires once its error estimate (the change from the
    last level, the outermost nodes' share and QUADPACK's rounding floor 50
    eps int |f|) meets ``max(abs_, rel |value|)``.  Returns values, error
    estimates and evaluation counts; raises :class:`QuadratureError` for a
    row still open after the last level.
    """
    a, b = np.atleast_1d(a, b)
    d = (b - a) / 2
    value, err, evals = np.zeros((3, a.size))
    rows = np.arange(a.size)
    for k in range(_DE_LEVELS + 1):
        if not rows.size:
            break
        h, n = 0.5 / 2 ** k, 7 * 2 ** k
        s = h * (np.arange(-n, n + 1) if k == 0 else np.arange(1 - n, n, 2))
        u = math.pi / 2 * np.sinh(s)
        x = (a + d)[rows, None] + d[rows, None] * np.tanh(u)
        fw = f(x, rows) * (math.pi / 2 * np.cosh(s) / np.cosh(u) ** 2)
        if k == 0:
            total, mag = fw.sum(axis=1), abs(fw).sum(axis=1)
            edge = abs(fw[:, 0]) + abs(fw[:, -1])
            continue
        prev, total = total, total + fw.sum(axis=1)
        mag = mag + abs(fw).sum(axis=1)
        scale = h * d[rows]
        bound = scale * (abs(total - 2 * prev) + edge + 50 * 2.0**-52 * mag)
        target = np.maximum(abs_, rel * abs(scale * total))
        done, keep = bound <= target, ~(bound <= target)
        value[rows[done]], err[rows[done]] = (scale * total)[done], bound[done]
        evals[rows[done]] = 2 * n + 1
        rows, total, mag, edge = rows[keep], total[keep], mag[keep], edge[keep]
    if rows.size:
        raise QuadratureError(
            f"{what}: quadrature error {bound[keep][0]:.3e} exceeds target "
            f"{target[keep][0]:.3e} on [{a[rows[0]]:.6g}, {b[rows[0]]:.6g}]")
    return value, err, evals
