"""Gaussian special functions: values, expansions, and their limits."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from w2gauss import (Correlation, DomainError, UnitProb, as_correlation,
                     bivariate_normal_cdf, bivariate_normal_survival,
                     copula_diagonal_gap, density_quantile_h, gaussian_copula,
                     h_tail_expansion, mills_ratio_bound, psi, psi_expansion,
                     quantile_tail_expansion, quantile_tail_expansion_groupings,
                     scaled_tail, std_normal_cdf, std_normal_pdf,
                     std_normal_quantile, std_normal_sf)
from w2gauss.special import _bvnu_scalar, _bvnu_vec

SQRT_2PI = math.sqrt(2.0 * math.pi)


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

def test_unit_prob_rejects_endpoints_and_nonfinite():
    assert UnitProb(0.25).u == 0.25
    for bad in (0.0, 1.0, -0.1, 1.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            UnitProb(bad)


def test_correlation_range_and_zero_flag():
    assert Correlation(0.6).zero_flag is False
    assert Correlation(0.0).zero_flag is True
    assert float(as_correlation(-0.5)) == -0.5
    for bad in (1.0, -1.0, 1.5, math.nan, False):
        with pytest.raises(DomainError):
            Correlation(bad)
    # anything float() rejects is a DomainError too, not a TypeError, and
    # so is a string or a bool that float() would read
    for bad in (None, "abc", "0.5", False, np.False_):
        with pytest.raises(DomainError):
            as_correlation(bad)


# --------------------------------------------------------------------------
# cdf / sf / quantile
# --------------------------------------------------------------------------

def test_cdf_reference_values():
    assert std_normal_cdf(0.0) == 0.5
    # high-precision reference values (frozen from an mpmath oracle)
    assert abs(std_normal_cdf(1.0) - 0.8413447460685429) < 1e-15
    assert abs(std_normal_cdf(1.96) - 0.9750021048517795) < 1e-15
    assert std_normal_cdf(math.inf) == 1.0
    assert std_normal_cdf(-math.inf) == 0.0
    with pytest.raises(DomainError):
        std_normal_cdf(math.nan)


def test_cdf_no_underflow_through_37():
    xs = np.linspace(-37.0, -30.0, 200)
    vals = np.asarray(std_normal_cdf(xs))
    assert np.all(vals > 0.0)
    assert abs(std_normal_cdf(-37.0) - 5.7255712225239266e-300) < 1e-305


@pytest.mark.xfail(
    strict=True,
    reason="Phi(-40) is about 7.3e-350, below the smallest positive double "
           "4.9e-324, so a strictly positive value cannot be represented")
def test_cdf_positive_at_minus_40():
    assert std_normal_cdf(-40.0) > 0.0


def test_cdf_monotone():
    xs = np.linspace(-10, 10, 2001)
    vals = np.asarray(std_normal_cdf(xs))
    assert np.all(np.diff(vals) >= 0.0)


def test_sf_complement_identity():
    for x in (-3.0, -0.5, 0.0, 1.0, 4.0):
        assert abs(std_normal_sf(x) - (1.0 - std_normal_cdf(x))) < 1e-15
    # deep tail values stay accurate where 1 - cdf would be pure cancellation
    assert abs(std_normal_sf(10.0) / 7.619853024160527e-24 - 1.0) < 1e-13


def test_quantile_reference_values():
    assert std_normal_quantile(0.5) == 0.0
    assert abs(std_normal_quantile(0.975) - 1.959963984540054) < 1e-13
    # relative accuracy across the stated domain (mpmath root-solve oracle)
    for p, want in [(1e-300, -37.047096299361199),
                    (1e-10, -6.3613409024040562),
                    (0.001, -3.0902323061678135),
                    (1.0 - 2.0 ** -53, 8.2095361516013869)]:
        assert abs(std_normal_quantile(p) / want - 1.0) < 1e-13
    for bad in (0.0, 1.0, -0.5, math.nan):
        with pytest.raises(DomainError):
            std_normal_quantile(bad)


def test_quantile_antisymmetry_moderate_range():
    u = np.linspace(1e-3, 0.5, 4001)
    total = np.asarray(std_normal_quantile(u)) \
        + np.asarray(std_normal_quantile(1.0 - u))
    assert np.max(np.abs(total)) < 1e-13


def test_round_trip_within_information_limit():
    # the float spacing of Phi(x) near 1 maps back to x-error
    # ulp/(2 phi(x)); 1e-11 is achievable exactly while phi(x) >= 5.6e-6,
    # i.e. |x| <= 4.7
    xs = np.linspace(-4.7, 4.7, 10001)
    back = np.asarray(std_normal_quantile(std_normal_cdf(xs)))
    assert np.max(np.abs(back - xs)) < 1e-11


@pytest.mark.xfail(
    strict=True,
    reason="round-trip through the cdf cannot beat ulp(Phi(x))/(2 phi(x)); "
           "at x=5 that floor is already 3.7e-11 and at x=8 it is 1.1e-2, "
           "so 1e-11 over |x| <= 8 is unattainable in double precision")
def test_round_trip_full_stated_range():
    xs = np.linspace(-8.0, 8.0, 10 ** 4)
    back = np.asarray(std_normal_quantile(std_normal_cdf(xs)))
    assert np.max(np.abs(back - xs)) <= 1e-11


# --------------------------------------------------------------------------
# density quantile and psi
# --------------------------------------------------------------------------

def test_h_center_and_symmetry():
    assert abs(density_quantile_h(0.5) - 1.0 / SQRT_2PI) < 1e-15
    u = np.linspace(1e-6, 0.5, 2001)
    gap = np.asarray(density_quantile_h(u)) \
        - np.asarray(density_quantile_h(1.0 - u))
    assert np.max(np.abs(gap)) < 1e-13


def test_h_tail_behavior():
    u = 1.0 - 1e-10
    L = math.log(1e10)
    approx = math.sqrt(2.0) * 1e-10 * math.sqrt(L)
    assert abs(float(density_quantile_h(u)) / approx - 1.0) < 0.15


def test_psi_values_and_monotonicity():
    assert abs(psi(0.0) - math.log(2.0)) < 1e-15
    xs = np.linspace(-3, 30, 500)
    vals = np.array([psi(float(x)) for x in xs])
    assert np.all(np.diff(vals) > 0.0)


def test_psi_expansion_error_at_10():
    t = psi_expansion(10.0)
    assert abs(psi(10.0) - t.value) <= 0.01
    with pytest.raises(DomainError):
        psi_expansion(1.0)
    with pytest.raises(DomainError):
        psi_expansion(0.5)


def test_psi_expansion_error_decays_like_inverse_square():
    gaps = [abs(psi(x) - psi_expansion(x).value) for x in (5.0, 10.0, 20.0)]
    assert gaps[0] > gaps[1] > gaps[2]
    # quadrupling x divides the error by roughly 16
    assert gaps[0] / gaps[2] > 8.0


# --------------------------------------------------------------------------
# tail expansions
# --------------------------------------------------------------------------

def test_quantile_tail_expansion_ratio_converges():
    ratios = []
    for j in range(4, 13):
        u = 1.0 - 10.0 ** (-j)
        t = quantile_tail_expansion(u)
        ratios.append(t.value / float(std_normal_quantile(u)))
    assert abs(ratios[2] - 1.0) < 0.05          # u = 1 - 1e-6
    gaps = [abs(r - 1.0) for r in ratios]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_quantile_tail_expansion_domain_guard():
    # requires L = log(1/(1-u)) > e, i.e. u > 1 - exp(-e)
    with pytest.raises(DomainError):
        quantile_tail_expansion(1.0 - math.exp(-math.e) - 1e-3)
    t = quantile_tail_expansion(1.0 - 1e-3)
    assert t.L == pytest.approx(math.log(1e3))


def test_quantile_tail_expansion_mirrored():
    u = 1.0 - 1e-8
    t = quantile_tail_expansion(u)
    assert -t.value == pytest.approx(float(std_normal_quantile(1.0 - u)),
                                     rel=0.05)


def test_grouping_variants_are_identical():
    for u in (1.0 - 1e-4, 1.0 - 1e-9, 1.0 - 1e-14):
        g = quantile_tail_expansion_groupings(u)
        assert g["absorbed"] == pytest.approx(g["split"], rel=1e-14, abs=0.0)


def test_h_tail_expansion_deep():
    t = h_tail_expansion(1.0 - 1e-12)
    exact = float(density_quantile_h(1.0 - 1e-12))
    assert abs(exact / t.value - 1.0) < 0.2
    assert t.relative_error_order == pytest.approx(0.12, abs=0.01)


def test_h_tail_expansion_ratio_decreasing():
    gaps = []
    for j in range(4, 13):
        u = 1.0 - 10.0 ** (-j)
        t = h_tail_expansion(u)
        gaps.append(abs(float(density_quantile_h(u)) / t.value - 1.0))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


@pytest.mark.xfail(
    strict=True,
    reason="at u = 0.99 the reported error order log log / log is 0.332, "
           "not above 0.5; the expansion is already in its stated domain")
def test_h_tail_expansion_untrusted_at_edge():
    t = h_tail_expansion(1.0 - 1e-2)
    assert t.relative_error_order > 0.5


# --------------------------------------------------------------------------
# bivariate cdf and copula
# --------------------------------------------------------------------------

def test_bvn_arcsin_identity():
    for rho in (-0.9, -0.5, 0.0, 0.3, 0.6, 0.95):
        want = 0.25 + math.asin(rho) / (2.0 * math.pi)
        assert abs(bivariate_normal_cdf(0.0, 0.0, rho) - want) < 1e-12


def test_bvn_independence_product():
    for x, y in [(-1.3, 0.4), (0.0, 2.0), (1.5, -2.5)]:
        want = float(std_normal_cdf(x)) * float(std_normal_cdf(y))
        assert abs(bivariate_normal_cdf(x, y, 0.0) - want) < 1e-14


def test_bvn_marginal_limit():
    for rho in (-0.8, 0.0, 0.6):
        for x in (-2.0, 0.5, 1.7):
            assert abs(bivariate_normal_cdf(x, 10.0, rho)
                       - float(std_normal_cdf(x))) < 1e-10


def test_bvn_reference_values():
    # frozen from an independent quadrature oracle (adaptive integration of
    # phi(x) Phi((y - rho x)/sqrt(1 - rho^2)), cross-checked to 1e-16)
    cases = [
        (0.5, -0.3, 0.6, 0.3436225301112109),
        (1.0, 1.0, 0.5, 0.7452035868467498),
        (-1.0, -1.0, 0.5, 0.06251409470966383),
        (1.2, -0.8, -0.95, 0.10053722079365543),
    ]
    for x, y, rho, want in cases:
        assert abs(bivariate_normal_cdf(x, y, rho) - want) < 1e-10


def test_bvn_monotone_in_each_argument():
    xs = np.linspace(-3, 3, 41)
    for rho in (-0.7, 0.4):
        vals = [bivariate_normal_cdf(float(x), 0.3, rho) for x in xs]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_bvn_survival_consistency():
    # P(X>x, Y>y) = 1 - Phi(x) - Phi(y) + C(x, y)
    for x, y, rho in [(0.5, -0.2, 0.4), (1.5, 1.0, -0.6), (2.5, 2.5, 0.8)]:
        lhs = bivariate_normal_survival(x, y, rho)
        rhs = (1.0 - float(std_normal_cdf(x)) - float(std_normal_cdf(y))
               + bivariate_normal_cdf(x, y, rho))
        assert abs(lhs - rhs) < 1e-12


def test_copula_basics_and_frechet_bounds():
    rng = np.random.default_rng(1)
    us = rng.uniform(0.01, 0.99, 40)
    vs = rng.uniform(0.01, 0.99, 40)
    for rho in (-0.9, -0.3, 0.0, 0.45, 0.9):
        for u, v in zip(us, vs):
            c = gaussian_copula(u, v, rho)
            assert max(u + v - 1.0, 0.0) - 1e-12 <= c <= min(u, v) + 1e-12
            assert c == pytest.approx(gaussian_copula(v, u, rho), abs=1e-13)
    for u, v in zip(us[:10], vs[:10]):
        assert gaussian_copula(u, v, 0.0) == pytest.approx(u * v, rel=1e-12,
                                                           abs=0.0)


def test_copula_diagonal_monotone_in_rho():
    for u in (0.1, 0.3, 0.5, 0.8):
        vals = [gaussian_copula(u, u, r)
                for r in (0.0, 0.2, 0.4, 0.6, 0.8, 0.95)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_copula_diagonal_gap_matches_direct():
    us = (0.2, 0.5, 0.9, 1.0 - 1e-6)
    for rho in (-0.5, 0.0, 0.6):
        for u in us:
            gap = copula_diagonal_gap(u, rho)
            direct = u - gaussian_copula(u, u, rho)
            assert gap == pytest.approx(direct, rel=1e-9, abs=1e-15)
            assert gap >= 0.0
        # the array form broadcasts to the same values
        assert copula_diagonal_gap(np.array(us), rho).tolist() == \
            [copula_diagonal_gap(u, rho) for u in us]
    # beyond x^2 = 190 the gap ratio takes its tail law: positive, and
    # within 2e-3 relative of the oracle (1e-3 at rho = 0.99, q = 1e-50)
    for q in (1e-50, 1e-100):
        x = -std_normal_quantile(q)
        for rho in (0.95, 0.99):
            gap = copula_diagonal_gap(q, rho)
            want = 1.0 - _bvn_upper_mp(x, x, rho) / q
            assert gap > 0.0
            assert gap / q == pytest.approx(want, rel=2e-3, abs=0.0)


# --------------------------------------------------------------------------
# the bivariate-normal evaluator against a 30-digit oracle
# --------------------------------------------------------------------------

_ORACLE_RHOS = (-0.99, -0.95, -0.93, -0.8, 0.0, 0.3, 0.6, 0.93, 0.95, 0.99)


def _bvn_upper_mp(h: float, k: float, rho: float) -> float:
    """``P(X > h, Y > k) = int_h^inf phi(x) Phi((rho x - k)/s) dx``, 30 digits.

    ``s = sqrt(1 - rho^2)``; the integrand turns from ~0 to ~phi(x) around
    ``x = k/rho``, which is made a breakpoint when it lies above ``h``.
    """
    with mpmath.workdps(30):
        h, k, rho = mpmath.mpf(h), mpmath.mpf(k), mpmath.mpf(rho)
        s = mpmath.sqrt(1 - rho * rho)
        points = [h, mpmath.inf]
        if rho != 0 and k / rho > h:
            points.insert(1, k / rho)
        return float(mpmath.quad(
            lambda x: mpmath.npdf(x) * mpmath.ncdf((rho * x - k) / s),
            points))


@pytest.mark.parametrize("rho", _ORACLE_RHOS)
def test_bvn_matches_mpmath_oracle(rho):
    rng = np.random.default_rng(2004)
    h, k = rng.uniform(-6.0, 6.0, size=(2, 12))
    h = np.concatenate([h, [-1.5, 0.0, 2.5]])   # and three diagonal points
    k = np.concatenate([k, [-1.5, 0.0, 2.5]])
    got = _bvnu_vec(h, k, rho)
    want = np.array([_bvn_upper_mp(a, b, rho) for a, b in zip(h, k)])
    assert np.max(np.abs(got - want)) <= 1e-15
    assert [_bvnu_scalar(a, b, rho) for a, b in zip(h, k)] == got.tolist()


def test_bvn_infinite_arguments_give_closed_forms():
    inf = math.inf
    for rho in (-0.95, -0.5, 0.0, 0.6, 0.95):
        for t in (-2.0, 0.3, 5.0):
            assert _bvnu_scalar(inf, t, rho) == 0.0
            assert _bvnu_scalar(t, inf, rho) == 0.0
            assert _bvnu_scalar(-inf, t, rho) == std_normal_sf(t)
            assert _bvnu_scalar(t, -inf, rho) == std_normal_sf(t)
        assert _bvnu_scalar(-inf, -inf, rho) == 1.0
        assert _bvnu_scalar(inf, -inf, rho) == 0.0
        # finite entries of a mixed array equal their own finite call
        out = _bvnu_vec([0.3, inf, -inf, 1.2], [-0.4, 0.0, 2.0, -inf], rho)
        assert out.tolist() == [_bvnu_scalar(0.3, -0.4, rho), 0.0,
                                std_normal_sf(2.0), std_normal_sf(1.2)]


def test_bvn_far_tail_arguments_raise_no_float_warnings():
    t = np.linspace(-40.0, 40.0, 81)
    h, k = np.meshgrid(t, t)
    with warnings.catch_warnings(), \
            np.errstate(over="warn", invalid="warn", divide="warn"):
        warnings.simplefilter("error")
        for rho in _ORACLE_RHOS:
            out = _bvnu_vec(h, k, rho)
            assert np.all((out >= 0.0) & (out <= 1.0))
            for a, b in ((40.0, -40.0), (-40.0, 40.0), (-40.0, -40.0)):
                assert 0.0 <= _bvnu_scalar(a, b, rho) <= 1.0


def test_mills_ratio_bound():
    xs = np.linspace(0.05, 30, 300)
    for x in xs:
        x = float(x)
        assert std_normal_sf(x) <= std_normal_pdf(x) / x
        assert mills_ratio_bound(x) >= std_normal_sf(x)


# --------------------------------------------------------------------------
# scaled tail
# --------------------------------------------------------------------------

def test_scaled_tail_a1_collapses():
    u = 1.0 - 1e-6
    s = scaled_tail(1.0, u)
    # the float u is 2.9e-11 relative off 1 - 1e-6: its own tail is 1 - u
    assert s.exact == pytest.approx(1.0 - u, rel=1e-9, abs=0.0)
    assert s.asymptotic == pytest.approx(1.0 - u, rel=1e-12, abs=0.0)
    assert s.asymptotic_as_stated == pytest.approx(1.0 - u, rel=1e-12,
                                                   abs=0.0)


def test_scaled_tail_ratio_monotone_toward_1():
    for a in (0.5, 2.0):
        gaps = []
        for j in range(4, 13):
            s = scaled_tail(a, 1.0 - 10.0 ** (-j))
            gaps.append(abs(s.ratio - 1.0))
        assert all(x > y for x, y in zip(gaps, gaps[1:]))


@pytest.mark.xfail(
    strict=True,
    reason="at a=2, u=1-1e-8 the exact/asymptotic ratio is 0.883 with the "
           "convergent normalization and 1.75e3 with the as-stated constant "
           "(4 pi)^{(1-a^2)/2} in the numerator, so 'within 10%' fails "
           "either way at this depth")
def test_scaled_tail_example_within_10_percent():
    s = scaled_tail(2.0, 1.0 - 1e-8)
    assert abs(s.ratio - 1.0) <= 0.10 or \
        abs(s.exact / s.asymptotic_as_stated - 1.0) <= 0.10


@pytest.mark.xfail(
    strict=True,
    reason="with the constant written as (4 pi)^{(1-a^2)/2} in the "
           "numerator the a=1/2 ratio sequence converges to "
           "(4 pi)^{-3/4} = 0.150, not 1")
def test_scaled_tail_as_stated_converges_to_1():
    s = scaled_tail(0.5, 1.0 - 1e-12)
    assert abs(s.exact / s.asymptotic_as_stated - 1.0) < 0.5
