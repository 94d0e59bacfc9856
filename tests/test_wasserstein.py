"""Exact quantile-integral Wasserstein distances and the tail decomposition."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate
from scipy.special import ndtri

from w2gauss import (DomainError, GaussianReference, STANDARD, SortedSample,
                     expected_one_sample_w2sq, quantile_integral,
                     quantile_sq_integral, standard_normals,
                     std_normal_pdf, std_normal_quantile, substream,
                     tail_decomposition, w2sq_two_sample, w2sq_vs_gaussian)
from w2gauss import wasserstein

LOGLOG = lambda n: math.log(math.log(n))


# --------------------------------------------------------------------------
# sorted-sample container
# --------------------------------------------------------------------------

def test_sorted_sample_validation():
    s = SortedSample(np.array([-1.0, 0.0, 2.0]))
    assert s.n == 3
    with pytest.raises(DomainError):
        SortedSample(np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        SortedSample(np.array([0.0, math.nan]))
    with pytest.raises(DomainError):
        SortedSample(np.array([]))
    shuffled = SortedSample.from_unsorted(np.array([3.0, -1.0, 0.5]))
    assert list(shuffled.values) == [-1.0, 0.5, 3.0]


# --------------------------------------------------------------------------
# quantile integrals (closed forms vs adaptive quadrature)
# --------------------------------------------------------------------------

def test_quantile_integrals_full_interval():
    # int_0^1 F^{-1} = mu, int_0^1 (F^{-1})^2 = mu^2 + sigma^2
    for mu, sigma in [(0.0, 1.0), (2.0, 0.5), (-1.5, 3.0)]:
        ref = GaussianReference(mu, sigma)
        assert quantile_integral(0.0, 1.0, ref) == pytest.approx(mu, abs=1e-12)
        assert quantile_sq_integral(0.0, 1.0, ref) == pytest.approx(
            mu * mu + sigma * sigma, rel=1e-12, abs=1e-12)


def test_quantile_integrals_match_quadrature():
    cells = [(0.1, 0.3), (0.45, 0.55), (1e-6, 1e-3)]
    for a, b in cells:
        want, err = integrate.quad(ndtri, a, b, epsabs=1e-13, limit=200)
        assert quantile_integral(a, b) == pytest.approx(want, abs=5e-12)
        want2, err2 = integrate.quad(lambda u: ndtri(u) ** 2, a, b,
                                     epsabs=1e-13, limit=200)
        assert quantile_sq_integral(a, b) == pytest.approx(want2, abs=5e-12)


def test_quantile_integrals_near_singularity():
    # adaptive quadrature loses ~1e-9 here; frozen 50-digit oracle values
    a, b = 0.9, 1.0 - 1e-9
    assert quantile_integral(a, b) == pytest.approx(0.17549832577614457,
                                                    rel=1e-13)
    assert quantile_sq_integral(a, b) == pytest.approx(0.32491012411399174,
                                                       rel=1e-13)


def test_quantile_integral_bounds_checked():
    for a, b in [(-0.1, 0.5), (0.5, 1.2), (0.6, 0.4), (math.nan, 0.5)]:
        with pytest.raises(DomainError):
            quantile_integral(a, b)


# --------------------------------------------------------------------------
# one-sample distance
# --------------------------------------------------------------------------

def test_single_point_closed_form():
    # W2^2(delta_x, N(0,1)) = int (x - Phi^{-1}(u))^2 du = x^2 + 1
    for x in (-2.5, 0.0, 0.7, 4.0):
        s = SortedSample(np.array([x]))
        assert w2sq_vs_gaussian(s) == pytest.approx(x * x + 1.0, rel=1e-12,
                                                    abs=1e-12)


def test_w2_vs_bruteforce_quadrature():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(1, 65))
        x = np.sort(rng.standard_normal(n))
        s = SortedSample(x)
        got = w2sq_vs_gaussian(s)
        want = 0.0
        for i in range(n):
            a, b = i / n, (i + 1) / n
            v, _ = integrate.quad(lambda u, z=x[i]: (z - ndtri(u)) ** 2, a, b,
                                  epsabs=1e-12, limit=300)
            want += v
        assert got == pytest.approx(want, rel=1e-9, abs=1e-10)


def test_negation_symmetry():
    rng = np.random.default_rng(11)
    x = np.sort(rng.standard_normal(41))
    s = SortedSample(x)
    neg = SortedSample(-x[::-1])
    assert w2sq_vs_gaussian(neg) == pytest.approx(w2sq_vs_gaussian(s),
                                                  rel=1e-12)


def test_affine_equivariance():
    # W2(aX + b, N(a mu + b, (a sigma)^2)) = |a| W2(X, N(mu, sigma^2))
    rng = np.random.default_rng(13)
    x = np.sort(rng.standard_normal(29))
    base = w2sq_vs_gaussian(SortedSample(x))
    for a, b in [(2.0, -1.0), (0.25, 5.0)]:
        s2 = SortedSample(a * x + b)
        ref = GaussianReference(b, a)
        assert w2sq_vs_gaussian(s2, ref) == pytest.approx(a * a * base,
                                                          rel=1e-10)


def test_w2_nonnegative_and_zero_only_in_limit():
    rng = np.random.default_rng(17)
    for n in (1, 5, 100, 5000):
        x = np.sort(rng.standard_normal(n))
        assert w2sq_vs_gaussian(SortedSample(x)) > 0.0


# --------------------------------------------------------------------------
# cell tables and the one-sample kernel against 35-digit references
# --------------------------------------------------------------------------

_DPS = 35
_TABLE_N = 10 ** 4  # every exact-table n below divides it


def _mp_quantile(u):
    """``Phi^{-1}(u)`` to 35 digits: one Halley step from the float value."""
    x = mpmath.mpf(float(ndtri(float(u))))
    f = (mpmath.ncdf(x) - u) / mpmath.npdf(x)
    return x - f / (1 + x * f / 2)


def _mp_tables(n):
    """``h(i/n)`` and ``A2(i/n) = i/n - Phi^{-1}(i/n) h(i/n)`` for i = 0..n
    to 35 digits, the upper half mirrored from the lower."""
    with mpmath.workdps(_DPS):
        h, a2 = [mpmath.mpf(0)], [mpmath.mpf(0)]
        for i in range(1, n // 2 + 1):
            u = mpmath.mpf(i) / n
            x = _mp_quantile(u)
            h.append(mpmath.npdf(x))
            a2.append(u - x * h[-1])
        low = (n + 1) // 2
        return h + h[:low][::-1], a2 + [1 - a for a in a2[:low][::-1]]


@pytest.fixture(scope="module")
def mp_tables():
    """``n -> (h, A2)`` at 35 digits; the 1e4 tables serve its divisors."""
    h, a2 = _mp_tables(_TABLE_N)

    def tables(n):
        if _TABLE_N % n:
            return _mp_tables(n)
        step = _TABLE_N // n
        return h[::step], a2[::step]
    return tables


def _mp_cells(h, a2):
    """Exact cell means ``m_i = n (h_{i-1} - h_i)``, cell variances
    ``v_i = n (A2_i - A2_{i-1}) - m_i^2`` and ``V_n = 1 - sum m_i^2/n``."""
    n = len(h) - 1
    with mpmath.workdps(_DPS):
        m = [n * (a - b) for a, b in zip(h, h[1:])]
        v = [n * (b - a) - mi * mi for a, b, mi in zip(a2, a2[1:], m)]
        return m, v, 1 - mpmath.fsum(mi * mi for mi in m) / n


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000, 10000])
def test_cell_tables_match_35_digit_values(mp_tables, n):
    m, v, total = wasserstein._cell_tables(n)
    want_m, want_v, want_total = _mp_cells(*mp_tables(n))
    assert m.shape == v.shape == (n,)
    assert not (m.flags.writeable or v.flags.writeable)
    assert abs(total - want_total) <= 1e-13 * want_total, (total, want_total)
    assert max(abs(a - b) for a, b in zip(m.tolist(), want_m)) <= 1e-14
    # the float cell boundaries put an error of ~4e-16 n on each variance
    v_err = max(abs(a - b) / b for a, b in zip(v.tolist(), want_v))
    assert v_err <= 1e-15 * max(n, 10), v_err
    assert np.array_equal(m, -m[::-1])  # exact mirror symmetry
    assert np.array_equal(v, v[::-1])


def _mp_w2sq(z, h):
    """``W_2^2`` of the sorted float sample ``z`` from the 35-digit ``h``:
    ``(1/n) sum z_i^2 + 2 sum z_i (h_i - h_{i-1}) + 1``, summed exactly."""
    n = z.size
    with mpmath.workdps(_DPS):
        zs = [mpmath.mpf(v) for v in z.tolist()]
        dh = [b - a for a, b in zip(h, h[1:])]
        return (mpmath.fsum(v * v for v in zs) / n
                + 2 * mpmath.fdot(zs, dh) + 1)


@pytest.mark.parametrize("n, samples", [(1000, 40), (10000, 12)])
def test_w2sq_vs_gaussian_matches_exact_sum(mp_tables, n, samples):
    h = mp_tables(n)[0]
    errors = []
    for rep in range(samples):
        z = np.sort(standard_normals(substream(5, "one_sample", n, rep), n))
        got = w2sq_vs_gaussian(SortedSample(z))
        want = _mp_w2sq(z, h)
        errors.append(float(abs(got - want) / want))
    assert max(errors) <= 1e-13, max(errors)


# --------------------------------------------------------------------------
# two-sample distance
# --------------------------------------------------------------------------

def test_two_sample_basics():
    a = SortedSample(np.array([0.0, 1.0, 2.0]))
    assert w2sq_two_sample(a, a) == 0.0
    x = SortedSample(np.array([-1.0]))
    y = SortedSample(np.array([2.5]))
    assert w2sq_two_sample(x, y) == pytest.approx(3.5 ** 2, rel=1e-14)
    with pytest.raises(DomainError):
        w2sq_two_sample(a, x)         # unequal sizes


def test_two_sample_explicit_formula():
    # equal sizes: W2^2 = mean of squared order-statistic gaps
    rng = np.random.default_rng(19)
    for n in (2, 7, 64, 501):
        x = np.sort(rng.standard_normal(n))
        y = np.sort(rng.standard_normal(n) * 1.3 + 0.2)
        got = w2sq_two_sample(SortedSample(x), SortedSample(y))
        assert got == pytest.approx(np.mean((x - y) ** 2), rel=1e-12)


def test_two_sample_scale_homogeneity_and_mean_bound():
    rng = np.random.default_rng(23)
    x = np.sort(rng.standard_normal(80))
    y = np.sort(rng.standard_normal(80))
    base = w2sq_two_sample(SortedSample(x), SortedSample(y))
    scaled = w2sq_two_sample(SortedSample(3.0 * x), SortedSample(3.0 * y))
    assert scaled == pytest.approx(9.0 * base, rel=1e-12)
    # Jensen: W2^2 >= (mean difference)^2
    assert base >= (x.mean() - y.mean()) ** 2 - 1e-15


# --------------------------------------------------------------------------
# tail decomposition
# --------------------------------------------------------------------------

def _sample(n, rep, seed=20260825):
    rng = substream(seed, "generic", rep)
    return SortedSample(np.sort(standard_normals(rng, n)))


def test_partition_identity_is_exact():
    s = _sample(10 ** 4, 0)
    d = tail_decomposition(s)
    total = d.a_n + d.b_n + d.c_n + d.d_n
    assert total == pytest.approx(d.half_total, rel=1e-12)
    # the half integral itself matches a direct evaluation of the upper half
    n = s.n
    direct = 0.0
    z = s.values
    i_half = math.ceil(n / 2)
    lo, _ = integrate.quad(lambda u, zz=float(z[i_half - 1]):
                           (zz - ndtri(u)) ** 2, 0.5, i_half / n,
                           epsabs=1e-12, limit=200)
    direct += lo
    for i in range(i_half, n):
        a, b = i / n, (i + 1) / n
        hi = min(b, 1.0 - 1e-14)
        v, _ = integrate.quad(lambda u, zz=float(z[i]): (zz - ndtri(u)) ** 2,
                              a, hi, epsabs=1e-12, limit=300)
        direct += v
    assert d.half_total == pytest.approx(direct, rel=1e-6)


def test_pieces_nonnegative_and_k_window():
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        d = tail_decomposition(_sample(n, 1))
        assert min(d.a_n, d.b_n, d.c_n, d.d_n) >= 0.0
        assert d.K == int(math.floor(d.C * math.log(n) ** d.theta))
        assert 1 <= d.K < n / 2
        assert d.cut == pytest.approx(d.K / n)


def test_parameter_domain_rejections():
    s = _sample(10 ** 4, 2)
    for kwargs in ({"C": 0.0}, {"C": -1.0}, {"theta": 1.0}, {"theta": 2.5},
                   {"gamma": 1.0}, {"gamma": 0.5}):
        with pytest.raises(DomainError):
            tail_decomposition(s, **kwargs)
    # K pushed past the midpoint must be refused
    with pytest.raises(DomainError):
        tail_decomposition(_sample(64, 3), C=4.0, theta=2.0)


def _extremes_mc(n, reps=48, seed=20260825, **kwargs):
    vals = []
    for r in range(reps):
        d = tail_decomposition(_sample(n, r, seed), **kwargs)
        vals.append(n * (d.a_n + d.b_n + d.c_n) / LOGLOG(n))
    return float(np.mean(vals))


def test_extreme_mass_small_and_shrinking():
    m4 = _extremes_mc(10 ** 4)
    m5 = _extremes_mc(10 ** 5)
    # the extreme pieces carry a vanishing share of the log log n budget
    assert 0.05 < m5 < 0.5
    assert m5 < m4


@pytest.mark.xfail(
    strict=True,
    reason="the n(A+B+C)/loglog n Monte Carlo mean at n=1e5 is about 0.16 "
           "(se 0.013), and stays in 0.12-0.19 for every admissible "
           "(C, theta, gamma); it is decreasing in n but has not reached "
           "0.1 at this sample size")
def test_extreme_mass_below_point_one_at_1e5():
    assert _extremes_mc(10 ** 5) < 0.1


def _mp_pieces(s, h, a2, C=1.0, theta=2.0, gamma=2.0):
    """The pieces and half integral of ``tail_decomposition(s)`` to 35
    digits.  Whole cells use the exact cell table; a partial interval
    ``[a, b]`` uses ``z^2 (b - a) - 2 z (h(a) - h(b)) + A2(b) - A2(a)``."""
    n, z = s.n, s.values.tolist()
    logn = math.log(n)
    K = int(math.floor(C * logn ** theta))
    cut_a = 1.0 - 1.0 / (n * logn ** gamma)
    i_half = (n + 1) // 2
    m, v, _ = _mp_cells(h, a2)
    with mpmath.workdps(_DPS):
        cells = {i: ((mpmath.mpf(z[i]) - m[i]) ** 2 + v[i]) / n
                 for i in range(i_half, n)}
        # [cut_a, 1]: 1 - A2(cut_a) = q + x h(cut_a), x = Phi^{-1}(cut_a)
        q = 1 - mpmath.mpf(cut_a)
        x = -_mp_quantile(q)
        hx = mpmath.npdf(x)
        zn = mpmath.mpf(z[-1])
        a_n = zn * zn * q - 2 * zn * hx + q + x * hx
        partial = mpmath.mpf(0)
        if n % 2:  # [1/2, i_half/n]: h(1/2) = phi(0), A2(1/2) = 1/2
            zm = mpmath.mpf(z[i_half - 1])
            partial = (zm * zm / (2 * n)
                       - 2 * zm * (mpmath.npdf(0) - h[i_half])
                       + a2[i_half] - mpmath.mpf(1) / 2)
        return {"a_n": a_n, "b_n": cells[n - 1] - a_n,
                "c_n": mpmath.fsum(cells[i] for i in range(n - K, n - 1)),
                "d_n": partial + mpmath.fsum(cells[i]
                                             for i in range(i_half, n - K)),
                "half_total": partial + mpmath.fsum(cells.values())}


@pytest.mark.parametrize("n", [1000, 1001, 10000])
def test_tail_decomposition_pieces_match_35_digit_values(mp_tables, n):
    tables = mp_tables(n)
    for rep in range(4):
        s = _sample(n, rep)
        d = tail_decomposition(s)
        for name, want in _mp_pieces(s, *tables).items():
            err = float(abs(getattr(d, name) - want) / want)
            assert err <= 1e-13, (n, rep, name, err)


_HALF_SIZES = st.integers(64, 20000)
_SEEDS = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=25, deadline=None)
@given(n=_HALF_SIZES, seed=_SEEDS)
@example(n=64, seed=0)
@example(n=20000, seed=0)
@example(n=19999, seed=0)
def test_tail_pieces_partition_the_half_integral(n, seed):
    d = tail_decomposition(_sample(n, 0, seed))
    total = d.a_n + d.b_n + d.c_n + d.d_n
    assert abs(total - d.half_total) <= 1e-14 * d.half_total


@settings(max_examples=25, deadline=None)
@given(n=_HALF_SIZES, seed=_SEEDS)
@example(n=65, seed=0)
@example(n=20000, seed=0)
@example(n=19999, seed=0)
def test_upper_halves_of_sample_and_mirror_add_up_to_the_distance(n, seed):
    # the mirror -Z_(n+1-i) has Z's lower half integral as its upper half
    s = _sample(n, 0, seed)
    mirror = SortedSample(-s.values[::-1])
    got = (tail_decomposition(s).half_total
           + tail_decomposition(mirror).half_total)
    want = w2sq_vs_gaussian(s)
    assert abs(got - want) <= 1e-13 * want


# --------------------------------------------------------------------------
# the one antiderivative evaluator against the former scalar formulas
# --------------------------------------------------------------------------

def _ref_h(u):
    if u <= 0.0 or u >= 1.0:
        return 0.0
    return float(std_normal_pdf(std_normal_quantile(u)))


def _ref_a2(u):
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    x = float(std_normal_quantile(u))
    return u - x * float(std_normal_pdf(x))


def test_quantile_integrals_within_one_ulp_of_scalar_formulas():
    intervals = [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0), (0.0, 0.3), (0.7, 1.0),
                 (0.45, 0.55), (0.5, 0.5), (0.1, 0.3), (0.6, 0.99),
                 (0.9, 1.0 - 1e-9), (1e-9, 0.9), (0.3, 0.7)]
    for a, b in intervals:
        for got, ends in ((quantile_integral(a, b), (_ref_h(b), _ref_h(a))),
                          (quantile_sq_integral(a, b),
                           (_ref_a2(a), _ref_a2(b)))):
            assert abs(got - (ends[1] - ends[0])) <= math.ulp(max(ends)), \
                (a, b)


# --------------------------------------------------------------------------
# expected one-sample distance
# --------------------------------------------------------------------------

def test_expected_w2sq_regression_values():
    # frozen from an exact order-statistic-moment oracle
    assert expected_one_sample_w2sq(16) == pytest.approx(2.69242513, abs=2e-6)
    assert expected_one_sample_w2sq(100) == pytest.approx(3.02010449,
                                                          abs=2e-6)
    assert expected_one_sample_w2sq(1000) == pytest.approx(3.33504455,
                                                           abs=2e-6)


def test_expected_w2sq_monotone_in_n():
    vals = [expected_one_sample_w2sq(n) for n in (8, 16, 64, 256, 1024)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_expected_w2sq_against_monte_carlo():
    n, reps = 16, 20000
    vals = np.empty(reps)
    for r in range(reps):
        s = _sample(n, r, seed=424242)
        vals[r] = n * w2sq_vs_gaussian(s)
    mean = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(reps)
    want = expected_one_sample_w2sq(n)
    assert abs(mean - want) < 3.5 * se
