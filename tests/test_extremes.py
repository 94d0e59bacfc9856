"""Upper order-statistic moments, the Beta sampling oracle, both index variants."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ndtri

from w2gauss import extremes
from w2gauss import (DomainError, GAMMA0, MomentEstimate, extreme_mean,
                     extreme_var, harmonic_expansion_gap, harmonic_sums,
                     order_stat_cdf, resolve_index_variant, sample_extreme,
                     std_normal_cdf, uniform_quantile_central_moment)

PI2_6 = math.pi ** 2 / 6.0


# --------------------------------------------------------------------------
# harmonic sums
# --------------------------------------------------------------------------

def test_harmonic_sums_small_k_exact():
    s0 = harmonic_sums(0)
    assert (s0.s1, s0.s2) == (0.0, 0.0)
    s1 = harmonic_sums(1)
    assert (s1.s1, s1.s2) == (1.0, 1.0)
    s3 = harmonic_sums(3)
    assert s3.s1 == pytest.approx(11.0 / 6.0, rel=1e-15, abs=0.0)
    assert s3.s2 == pytest.approx(49.0 / 36.0, rel=1e-15, abs=0.0)
    with pytest.raises(DomainError):
        harmonic_sums(-1)


def test_harmonic_s2_bounded_by_pi_squared_over_6():
    assert harmonic_sums(10 ** 4).s2 < PI2_6
    assert PI2_6 - harmonic_sums(10 ** 4).s2 == pytest.approx(1e-4, rel=1e-3)


def test_harmonic_expansion_gap_tiny():
    # s1_k - (log k + gamma0 + 1/2k) = O(1/k^2); at k = 1e4 about -8.3e-10
    assert abs(harmonic_expansion_gap(10 ** 4)) <= 1e-8
    assert abs(harmonic_expansion_gap(100)) <= 1e-4
    with pytest.raises(DomainError):
        harmonic_expansion_gap(0)


def test_gamma0_constant():
    # partial sums converge to gamma0: s1_k - log k -> gamma0
    s = harmonic_sums(10 ** 5)
    assert s.s1 - math.log(10 ** 5) == pytest.approx(GAMMA0, abs=1e-5)


# --------------------------------------------------------------------------
# moment predictions
# --------------------------------------------------------------------------

def test_plugin_values_at_1e6():
    n = 10 ** 6
    assert extreme_mean(n, 0, "as_stated").mean_pred == pytest.approx(
        4.685575, abs=1e-5)
    assert extreme_mean(n, 0, "shifted").mean_pred == pytest.approx(
        4.875815, abs=1e-5)
    assert extreme_var(n, 0, "shifted").var_pred == pytest.approx(
        0.059532, abs=1e-5)
    assert extreme_var(n, 1, "shifted").var_pred == pytest.approx(
        0.023341, abs=1e-5)


def test_variants_are_an_index_shift():
    n = 10 ** 5
    for k in (0, 1, 2, 4):
        a = extreme_mean(n, k, "as_stated")
        b = extreme_mean(n, k + 1, "shifted")
        assert a.mean_pred == b.mean_pred
        assert a.var_pred == b.var_pred


def test_mean_decreasing_in_k_and_increasing_in_n():
    n = 10 ** 6
    means = [extreme_mean(n, k).mean_pred for k in range(6)]
    assert all(a > b for a, b in zip(means, means[1:]))
    by_n = [extreme_mean(m, 0).mean_pred for m in (10 ** 4, 10 ** 5, 10 ** 6)]
    assert all(a < b for a, b in zip(by_n, by_n[1:]))


def test_admissible_k_window_enforced():
    with pytest.raises(DomainError):
        extreme_mean(100, 50)          # k above C (log n)^theta
    with pytest.raises(DomainError):
        extreme_mean(2, 0)             # n too small
    with pytest.raises(DomainError):
        extreme_mean(10 ** 4, -1)
    with pytest.raises(DomainError):
        extreme_mean(10 ** 4, 0, "no_such_variant")
    # a larger C widens the window
    assert extreme_mean(100, 50, C=3.0).n == 100


# --------------------------------------------------------------------------
# exact sampling oracle
# --------------------------------------------------------------------------

def test_sample_extreme_deterministic():
    a = sample_extreme(10 ** 4, 1, 500, seed=5)
    b = sample_extreme(10 ** 4, 1, 500, seed=5)
    assert (a.mean, a.variance) == (b.mean, b.variance)
    c = sample_extreme(10 ** 4, 1, 500, seed=6)
    assert a.mean != c.mean


def test_sample_extreme_matches_exact_moments():
    # independent oracle: E Z_{n-k} = -int ndtri(b) f_Beta(b) db by quadrature
    n, k, reps = 10 ** 3, 2, 2 * 10 ** 5
    dist = stats.beta(k + 1, n - k)
    m1, _ = integrate.quad(lambda b: -ndtri(b) * dist.pdf(b), 1e-12, 0.2,
                           epsabs=1e-12, limit=300)
    m2, _ = integrate.quad(lambda b: ndtri(b) ** 2 * dist.pdf(b), 1e-12, 0.2,
                           epsabs=1e-12, limit=300)
    est = sample_extreme(n, k, reps, seed=77)
    assert abs(est.mean - m1) < 4.0 * est.se_mean
    assert abs(est.variance - (m2 - m1 * m1)) < 4.0 * est.se_var


def test_sample_extreme_domain():
    with pytest.raises(DomainError):
        sample_extreme(10, 10, 100, seed=1)     # k > n-1
    with pytest.raises(DomainError):
        sample_extreme(10, 0, 0, seed=1)        # reps < 1
    with pytest.raises(DomainError):
        MomentEstimate(mean=0.0, se_mean=-1.0, variance=1.0, count=10)


@pytest.mark.parametrize("fn, args, at", [
    (harmonic_sums, (2,), 0), (extreme_mean, (100, 2), 0),
    (extreme_mean, (100, 2), 1), (sample_extreme, (1000, 0, 1000, 1), 0),
    (sample_extreme, (1000, 1, 1000, 1), 1),
    (sample_extreme, (1000, 0, 1000, 1), 2),
    (order_stat_cdf, (2.0, 100, 2), 1), (order_stat_cdf, (2.0, 100, 2), 2),
    (sample_extreme, (1000, 0, 1000, 1), 3),
    (uniform_quantile_central_moment, (100, 0.3, 2), 0),
    (harmonic_expansion_gap, (3,), 0)])
def test_integer_arguments(fn, args, at):
    # an integral float is that integer; a fraction, a bool or a string is
    # refused, not truncated or parsed to another integer's result
    def with_arg(value):
        return (*args[:at], value, *args[at + 1:])

    assert fn(*with_arg(float(args[at]))) == fn(*args)
    for bad in (args[at] + 0.5, True, str(args[at])):
        with pytest.raises(DomainError, match="integer"):
            fn(*with_arg(bad))


def test_order_stat_cdf_vs_binomial_sum():
    # P(Z_{n-k} <= x) = sum_{j<=k} C(n,j) q^j p^{n-j}, p = Phi(x)
    rng = np.random.default_rng(3)
    for n, k in [(5, 0), (12, 3), (50, 7)]:
        for x in rng.normal(0.0, 1.5, 8):
            p = float(std_normal_cdf(float(x)))
            want = sum(math.comb(n, j) * (1 - p) ** j * p ** (n - j)
                       for j in range(k + 1))
            got = float(order_stat_cdf(float(x), n, k))
            assert got == pytest.approx(want, abs=1e-10)


def test_order_stat_cdf_shape():
    xs = np.linspace(-3, 6, 200)
    vals = np.asarray(order_stat_cdf(xs, 100, 2))
    assert np.all(np.diff(vals) >= -1e-15)
    assert vals[0] < 1e-6 and vals[-1] > 1.0 - 1e-12


def test_beta_sampler_distribution_ks():
    # draw via an independent generator, test against the analytic cdf
    n, k, m = 10 ** 3, 1, 4000
    rng = np.random.default_rng(11)
    z = -ndtri(rng.beta(k + 1, n - k, size=m))
    ks = stats.kstest(z, lambda x: order_stat_cdf(x, n, k))
    assert ks.pvalue > 1e-4


# --------------------------------------------------------------------------
# uniform quantile moments
# --------------------------------------------------------------------------

def test_uniform_quantile_second_moment_near_one():
    u = np.linspace(0.05, 0.95, 19)
    p2 = uniform_quantile_central_moment(10 ** 3, u, 2)
    assert np.all(p2 > 0.8) and np.all(p2 < 1.2)
    p2_big = uniform_quantile_central_moment(10 ** 5, 0.3, 2)
    assert p2_big == pytest.approx(1.0, abs=0.01)


def test_uniform_quantile_fourth_moment_normal_limit():
    # normalized 4th moment tends to the Gaussian value 3
    p4 = uniform_quantile_central_moment(10 ** 4, 0.5, 4)
    assert p4 == pytest.approx(3.0, abs=0.1)


def _exact_uniform_quantile_moment(n, u, p):
    """The normalized p-th moment about u in exact rationals, at the rank
    ``ceil(n u)`` taken in float as the package takes it: ``100 * 0.9``
    rounds to 90, while the exact ``100 * Fraction(0.9)`` lies above 90."""
    i = math.ceil(n * u)
    uq = Fraction(u)
    raw = [Fraction(1)]
    for r in range(p):  # E U^r = prod_{j<r} (i + j) / (n + 1 + j)
        raw.append(raw[-1] * Fraction(i + r, n + 1 + r))
    central = sum(math.comb(p, k) * raw[k] * (-uq) ** (p - k)
                  for k in range(p + 1))
    return central * Fraction(n) ** (p // 2) / (uq * (1 - uq)) ** (p // 2)


def test_uniform_quantile_moments_match_exact_fractions():
    us = (1e-9, 1e-6, 1e-3, 0.1, 0.2763932022500210, 0.5, 0.9, 0.999,
          1.0 - 1e-6, 1.0 - 1e-9)
    for n in (7, 100, 10 ** 3, 10 ** 5, 10 ** 8, 10 ** 10):
        for u in us:
            if not 1 <= math.ceil(n * u) <= n:
                continue
            for p in (2, 4):
                want = _exact_uniform_quantile_moment(n, u, p)
                got = uniform_quantile_central_moment(n, u, p)
                err = float(abs(Fraction(got) - want) / want)
                assert err <= 1e-12, (n, u, p, got, float(want))
    # the array form gives the scalar values
    grid = np.array(us[2:8])
    assert uniform_quantile_central_moment(10 ** 8, grid, 4).tolist() == \
        [uniform_quantile_central_moment(10 ** 8, u, 4) for u in grid]


def test_uniform_quantile_moment_domain():
    with pytest.raises(DomainError):
        uniform_quantile_central_moment(100, 0.5, 3)
    with pytest.raises(DomainError):
        uniform_quantile_central_moment(100, 0.0, 2)
    with pytest.raises(DomainError):
        uniform_quantile_central_moment(100, 1.0, 2)
    with pytest.raises(DomainError):
        uniform_quantile_central_moment(100, math.nan, 2)


# --------------------------------------------------------------------------
# index-variant resolution
# --------------------------------------------------------------------------

def test_variant_resolution_prefers_shifted():
    res = resolve_index_variant(n=10 ** 6, ks=(0, 1), reps=2 * 10 ** 5,
                                seed=20260301)
    assert res["canonical"] == "shifted"
    assert res["worst_dev_se"]["as_stated"] > 5.0 * res["worst_dev_se"]["shifted"]


@pytest.mark.parametrize("moment", ["mean", "var"])
@pytest.mark.parametrize("offset, survives", [(0.99, True), (1.01, False)])
def test_survivors_allow_3se_plus_one_error_order(monkeypatch, moment, offset,
                                                  survives):
    """A variant survives iff every deviation is <= 3 SE + 1 error order."""
    se_mean, se_var = 1e-4, 1e-5

    def oracle(n, k, reps, seed):
        # the shifted prediction, moved off by 3 SE + ``offset`` error orders
        pred = extreme_mean(n, k, "shifted")
        mean, var = pred.mean_pred, pred.var_pred
        if moment == "mean":
            mean += 3.0 * se_mean + offset * pred.mean_error_order
        else:
            var += 3.0 * se_var + offset * pred.var_error_order
        return MomentEstimate(mean=mean, se_mean=se_mean, variance=var,
                              count=reps, se_var=se_var)

    monkeypatch.setattr(extremes, "sample_extreme", oracle)
    res = resolve_index_variant(n=10 ** 6, ks=(0, 1, 5), reps=10 ** 6)
    assert ("shifted" in res["survivors"]) is survives
    assert "as_stated" not in res["survivors"]
    assert res["worst_excess"]["shifted"] == pytest.approx(offset, abs=1e-6)


@pytest.mark.xfail(
    strict=True,
    reason="at n = 1e6 the residual error term (loglog n)^2/(log n)^{3/2} "
           "is ~0.134, hundreds of Monte Carlo standard errors at "
           "reps = 1e6; the shifted variant misses by ~52 SE at k = 0 and "
           "~500 SE at k = 5, as_stated by ~715 SE, so no variant matches "
           "within 3 SE")
def test_some_variant_matches_within_3se():
    res = resolve_index_variant(n=10 ** 6, ks=(0, 1, 2, 5), reps=10 ** 6,
                                seed=20260301)
    assert any(res["within_3se"].values())
