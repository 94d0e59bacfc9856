"""Coupled-bridge simulation: grids, covariance fidelity, two mechanisms."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats
from scipy.special import ndtri, smirnov

from w2gauss import (BridgePair, Correlation, CovarianceError, DomainError,
                     GridSpec,
                     MECHANISMS, bridge_covariance, build_grid,
                     copula_diagonal_gap, density_quantile_h,
                     expected_functional, g_functional,
                     gaussian_copula, ks_two_sample, sample_limit_law,
                     simulate_bridge_pair_coupled,
                     simulate_bridge_pair_gaussian, truncated_second_moment,
                     truncation_bias)
from w2gauss import limitlaw, streams
from w2gauss.special import _bvnu_vec
from w2gauss.streams import (_balanced_spans, _keyed_normals,
                             correlated_normal_pairs, standard_normals,
                             substream)


def _gaussian_rows(grid, rho, seed, draws):
    """Difference rows ``bx - by`` of ``sample_limit_law``'s Gaussian
    draws."""
    keys, width, diffs = limitlaw._mechanism(
        "gaussian_grid", grid, rho, seed, draws, None)
    z = _keyed_normals(keys, np.empty((len(draws), width)))
    return np.vstack(list(diffs(z)))


def _pair_covariances(grid, rho):
    """``K_D`` and ``K_S``, ``Sigma11 + Sigma22 -+ (Sigma12 + Sigma21)``, from
    the 2m x 2m reference ``bridge_covariance``."""
    m = grid.m
    sigma = bridge_covariance(grid, rho)
    both = sigma[:m, :m] + sigma[m:, m:]
    cross = sigma[:m, m:] + sigma[m:, :m]
    return both - cross, both + cross


def _assert_cov_entries(rows, sigma, n):
    """A spread of entries of ``rows``' sample covariance against ``sigma``
    at 5 sigma of the covariance estimator."""
    emp = np.cov(rows.T)
    rng = np.random.default_rng(0)
    for i, j in rng.integers(0, sigma.shape[0], size=(12, 2)):
        se = math.sqrt((sigma[i, i] * sigma[j, j] + sigma[i, j] ** 2) / n)
        assert abs(emp[i, j] - sigma[i, j]) < 5.0 * se


# --------------------------------------------------------------------------
# grid construction
# --------------------------------------------------------------------------

def test_grid_basic_shape():
    g = build_grid(48, 1e-4)
    assert g.m == 48 and g.delta == 1e-4
    u = g.nodes
    assert u.shape == (48,)
    assert np.all(np.diff(u) > 0.0)
    assert u[0] >= 1e-4 and u[-1] <= 1.0 - 1e-4
    assert u[0] == pytest.approx(1e-4, rel=1e-12, abs=0.0)


def test_grid_exact_mirror_symmetry():
    for m, delta in [(48, 1e-4), (51, 1e-6), (512, 1.25e-5)]:
        u = build_grid(m, delta).nodes
        # the upper half is the exact floating-point reflection
        assert np.all(u + u[::-1] == 1.0)


def test_grid_refinement_keeps_old_nodes_close():
    coarse = build_grid(48, 1e-4).nodes
    fine = build_grid(96, 1e-4).nodes
    spacing = np.diff(fine)
    for u in coarse:
        j = np.searchsorted(fine, u)
        j = min(max(j, 1), len(fine) - 1)
        local = max(spacing[j - 1], spacing[min(j, len(spacing) - 1)])
        assert min(abs(fine - u)) <= local + 1e-15


def test_grid_rejections():
    with pytest.raises(DomainError):
        build_grid(8, 1e-4)            # too few nodes
    with pytest.raises(DomainError):
        build_grid(48, 0.3)            # delta beyond 1/4
    with pytest.raises(DomainError):
        build_grid(48, 0.0)
    with pytest.raises(DomainError):
        GridSpec(m=16, delta=1e-3,
                 nodes=np.linspace(0.5, 1e-3, 16))   # decreasing
    # 1 - delta rounds to 1: the mirrored nodes would reach 1.0
    for m, delta in ((16, 1e-30), (64, 1e-19), (64, 1e-20)):
        with pytest.raises(DomainError, match="delta"):
            build_grid(m, delta)
    assert build_grid(256, 1e-16).nodes[-1] < 1.0
    with pytest.raises(DomainError, match=r"inside \(0, 1\)"):
        GridSpec(m=16, delta=1e-20, nodes=np.linspace(1e-20, 1.0, 16))


def test_grid_size_is_an_integer():
    # an integral float is that size; a fraction is refused, not truncated
    grid = build_grid(512.0, 1e-3)
    assert type(grid.m) is int
    assert grid.nodes.tobytes() == build_grid(512, 1e-3).nodes.tobytes()
    for bad in (16.5, True):
        with pytest.raises(DomainError, match="integer"):
            build_grid(bad, 1e-3)


# --------------------------------------------------------------------------
# covariance fidelity (gaussian mechanism)
# --------------------------------------------------------------------------

@pytest.mark.parametrize("rho", [0.6, -0.5])
def test_gaussian_mechanism_covariance(rho):
    grid = build_grid(24, 1e-3)
    n = 20000
    # the batch draws' differences against K_D, the pair API's [bx | by]
    # against the whole 2m x 2m covariance
    rows = _gaussian_rows(grid, rho, seed=314, draws=range(n))
    _assert_cov_entries(rows, _pair_covariances(grid, rho)[0], n)
    pairs = np.hstack(limitlaw._gaussian_pairs(grid, rho, 314, range(n)))
    _assert_cov_entries(pairs, bridge_covariance(grid, rho), n)


def test_gaussian_mechanism_marginal_variance():
    grid = build_grid(32, 1e-3)
    n = 20000
    d = _gaussian_rows(grid, 0.3, seed=99, draws=range(n))
    bx, by = limitlaw._gaussian_pairs(grid, 0.3, 99, range(n))
    for i in (0, 8, 16, 24, 31):
        u = grid.nodes[i]
        for got, want in ((bx[:, i].var(ddof=1), u * (1.0 - u)),
                          (by[:, i].var(ddof=1), u * (1.0 - u)),
                          (d[:, i].var(ddof=1),
                           2.0 * copula_diagonal_gap(u, 0.3))):
            se = want * math.sqrt(2.0 / n)
            assert abs(got - want) < 5.0 * se


@pytest.mark.parametrize("rho", [0.45, 0.95, -0.95])
def test_bridge_covariance_blocks(rho):
    grid = build_grid(16, 1e-2)
    sigma = bridge_covariance(grid, rho)
    m = grid.m
    u = grid.nodes
    # diagonal block: min(u,v) - uv; cross block: C_rho(u,v) - uv
    assert sigma[2, 5] == pytest.approx(min(u[2], u[5]) - u[2] * u[5],
                                        rel=1e-12, abs=0.0)
    for i in range(m):
        for j in range(m):
            assert sigma[i, m + j] == pytest.approx(
                gaussian_copula(u[i], u[j], rho) - u[i] * u[j],
                rel=1e-9, abs=1e-12)
    assert np.allclose(sigma, sigma.T, atol=1e-15)


def _copula_matrix_full_grid(nodes, rho):
    """Reference: both forms on all m^2 cells, then one kept per cell."""
    x = ndtri(nodes)
    U, V = np.meshgrid(nodes, nodes, indexing="ij")
    XU, XV = np.meshgrid(x, x, indexing="ij")
    direct = _bvnu_vec(-XU, -XV, rho)
    survival = U + V - 1.0 + _bvnu_vec(XU, XV, rho)
    C = np.where(U + V > 1.0, survival, direct)
    return np.clip(C, np.maximum(U + V - 1.0, 0.0), np.minimum(U, V))


def _bridge_kernel_reference(nodes):
    """Reference: ``Kb = min(u,v) - uv`` and ``uv`` on all m^2 cells."""
    U, V = np.meshgrid(nodes, nodes, indexing="ij")
    return np.minimum(U, V) - U * V, U * V


@pytest.mark.parametrize("rho", [0.6, -0.5, 0.95, -0.95])
def test_copula_matrix_matches_full_grid_construction(rho):
    # the cross block C_rho - uv, derived from K_D, against the survival
    # identity evaluated on every cell
    grid = build_grid(512, 1.25e-5)
    m = grid.m
    cross = bridge_covariance(grid, rho)[:m, m:]
    want = _copula_matrix_full_grid(grid.nodes, rho) \
        - _bridge_kernel_reference(grid.nodes)[1]
    assert np.abs(cross - want).max() <= 1e-15


def _cross_mp(ui: float, uj: float, rho: float):
    """``C_rho(u_i, u_j) - u_i u_j`` and ``u_i (1 - u_j)`` for ``u_i <=
    u_j``, 30 digits: the cross entry is ``u_i (1 - u_j) - P(X <= a, Y >
    b)`` with ``P = int_-inf^a phi(x) Phi((rho x - b)/s) dx``, ``a, b``
    the exact quantiles of the float nodes."""
    with mpmath.workdps(30):
        ui, uj, rho = mpmath.mpf(ui), mpmath.mpf(uj), mpmath.mpf(rho)
        a, b = (mpmath.sqrt(2) * mpmath.erfinv(2 * u - 1) for u in (ui, uj))
        s = mpmath.sqrt(1 - rho * rho)
        points = [-mpmath.inf, a]
        if rho != 0 and b / rho < a:
            points.insert(1, b / rho)
        p = mpmath.quad(
            lambda x: mpmath.npdf(x) * mpmath.ncdf((rho * x - b) / s), points)
        kb = ui * (1 - uj)
        return kb - p, kb


@pytest.mark.parametrize("rho", [0.95, 0.05, -0.95])
def test_cross_block_matches_mpmath_oracle(rho):
    # the derived cross block Kb - K_D/2 errs by no more than Kb's own
    # rounding plus 1e-14 of the entry's scale: u_i (1 - u_j), or the
    # entry itself where a negative rho makes it larger
    grid = build_grid(32, 1e-6)
    u, m = grid.nodes, grid.m
    sigma = bridge_covariance(grid, rho)
    for i, j in ((0, 31), (3, 9), (5, 26), (12, 30), (16, 16), (20, 31),
                 (25, 28), (31, 31)):
        want, kb = _cross_mp(u[i], u[j], rho)
        with mpmath.workdps(30):
            err = abs(mpmath.mpf(sigma[i, m + j]) - want)
            bound = abs(mpmath.mpf(sigma[i, j]) - kb) \
                + 1e-14 * max(kb, abs(want))
            assert err <= bound, (i, j, float(err), float(bound))


def _bridge_covariance_reference(grid, rho):
    """Reference: the meshgrid / ``np.block`` assembly of the covariance,
    with cross blocks ``Kb - K_D/2``."""
    bridge = _bridge_kernel_reference(grid.nodes)[0]
    cross = bridge - _difference_covariance_reference(grid, rho) / 2.0
    return np.block([[bridge, cross], [cross.T, bridge]])


def _difference_covariance_reference(grid, rho):
    """Reference: ``K_D`` on all m^2 cells at once, each cell as
    ``2 P(X <= x_lo, Y > x_hi)`` of its lower and upper node."""
    u = grid.nodes
    U, V = np.meshgrid(u, u, indexing="ij")
    lo, hi = np.minimum(U, V), np.maximum(U, V)
    p = _bvnu_vec(-ndtri(lo), ndtri(hi), -rho)
    return 2.0 * np.clip(p, 0.0, np.minimum(lo, 1.0 - hi))


def _sum_covariance_reference(grid, rho):
    """Reference: ``K_S`` as ``4 Kb - K_D``."""
    return 4.0 * _bridge_kernel_reference(grid.nodes)[0] \
        - _difference_covariance_reference(grid, rho)


def _cholesky_reference(cov):
    """Reference: LAPACK on fresh ``cov + jitter * eye`` copies, as
    ``(jitter, L)`` of the first rung that factors."""
    eye = np.eye(cov.shape[0])
    for jitter in limitlaw._JITTERS:
        try:
            return jitter, np.linalg.cholesky(cov + jitter * eye)
        except np.linalg.LinAlgError:
            continue
    raise AssertionError("reference ladder failed")


@pytest.mark.parametrize("m", [16, 256, 512])
@pytest.mark.parametrize("rho", [0.45, 0.95, -0.5])
def test_covariance_and_factor_match_reference_construction(monkeypatch, m,
                                                            rho):
    grid = build_grid(m, 1.25e-5)
    assert bridge_covariance(grid, rho).tobytes() \
        == _bridge_covariance_reference(grid, rho).tobytes()
    kd = _difference_covariance_reference(grid, rho)
    ks = _sum_covariance_reference(grid, rho)
    assert limitlaw._difference_covariance(grid.nodes, rho).tobytes() \
        == kd.tobytes()
    assert limitlaw._sum_covariance(grid.nodes, rho).tobytes() == ks.tobytes()
    monkeypatch.setattr(limitlaw, "_factor_cache", {})
    # K_D keeps the absolute 1e-15 that bridge_covariance (entries up to
    # 1/4) had; K_S, with entries up to 0.9, keeps it per 1/4 of its largest
    factors = [(limitlaw._cholesky_factor(grid, rho), kd, 1e-15),
               (limitlaw._factor_inplace(ks.copy(), "sum", grid, rho), ks,
                4e-15 * ks.max())]
    for L, cov, tol in factors:
        jitter, ref = _cholesky_reference(cov)
        assert not np.triu(L, 1).any()
        assert np.abs(L @ L.T - (cov + jitter * np.eye(m))).max() <= tol
        assert np.abs(L - ref).max() <= 1e-13


@settings(max_examples=60, deadline=None)
@given(m=st.integers(16, 96), rho=st.floats(-0.99, 0.99),
       delta=st.floats(1e-8, 1e-2))
@example(m=96, rho=0.99, delta=1e-8)
@example(m=96, rho=-0.99, delta=1e-8)
def test_difference_and_sum_covariances_property(m, rho, delta):
    grid = build_grid(m, delta)
    kb, uv = _bridge_kernel_reference(grid.nodes)
    cross = _copula_matrix_full_grid(grid.nodes, rho) - uv
    kd, ks = 2.0 * (kb - cross), 2.0 * (kb + cross)
    for got, want in ((limitlaw._difference_covariance(grid.nodes, rho), kd),
                      (limitlaw._sum_covariance(grid.nodes, rho), ks)):
        assert np.array_equal(got, got.T)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("rho", [0.9, 0.6, 0.0, -0.5])
def test_weighted_difference_eigenvalues(rho):
    # Mehler's expansion: the operator behind int ((B - Bt)/h)^2 has
    # eigenvalues 2 (1 - rho^j) / j; on the grid, K_D weighted by the
    # trapezoid weights over h^2
    grid = build_grid(1024, 1e-12)
    u = grid.nodes
    dx = np.diff(u)
    w = np.concatenate([dx[:1], dx[:-1] + dx[1:], dx[-1:]]) / 2.0
    s = np.sqrt(w) / np.asarray(density_quantile_h(u))
    kd = limitlaw._difference_covariance(u, rho)
    top = np.linalg.eigvalsh(s[:, None] * kd * s[None, :])[::-1][:4]
    j = np.arange(1, 5)
    want = np.sort(2.0 * (1.0 - rho ** j) / j)[::-1]
    assert np.abs(top - want).max() <= 3e-4


def _factored(a):
    """``a`` after the column Cholesky, which must succeed."""
    assert limitlaw._cholesky_inplace(a)
    return a


@settings(max_examples=60, deadline=None)
@given(m=st.integers(16, 96), rho=st.floats(-0.95, 0.95),
       delta=st.floats(1e-6, 1e-2))
@example(m=96, rho=0.95, delta=1e-6)
@example(m=200, rho=0.95, delta=1e-6)
def test_cholesky_property(m, rho, delta):
    grid = build_grid(m, delta)
    for cov in (limitlaw._difference_covariance(grid.nodes, rho),
                limitlaw._sum_covariance(grid.nodes, rho)):
        L = _factored(cov.copy())
        assert not np.triu(L, 1).any() and np.all(np.diag(L) > 0.0)
        assert np.abs(L - np.linalg.cholesky(cov)).max() <= 1e-13
        # flip the least eigenvalue: the factor must refuse, not raise, and
        # leave the strict upper triangle for the ladder to restore
        lam, vec = np.linalg.eigh(cov)
        bad = cov - 2.0 * lam[0] * np.outer(vec[:, 0], vec[:, 0])
        a = bad.copy()
        assert limitlaw._cholesky_inplace(a) is False
        assert np.triu(a, 1).tobytes() == np.triu(bad, 1).tobytes()


@pytest.mark.parametrize("chunk", [7, 64 * 65 // 2 + 1])
def test_difference_covariance_bytes_do_not_depend_on_chunk(monkeypatch,
                                                            chunk):
    nodes = build_grid(64, 1e-4).nodes
    kd = limitlaw._difference_covariance(nodes, 0.95)
    monkeypatch.setattr(limitlaw, "_COPULA_CHUNK", chunk)
    assert limitlaw._difference_covariance(nodes, 0.95).tobytes() \
        == kd.tobytes()


def test_cholesky_factor_peak_memory(monkeypatch):
    # K_D, factored in place into L (512 KiB at m = 256), plus the
    # temporaries of one copula chunk (about 0.6 MiB at rho = 0.95): a
    # second m x m array would cross L + 1 MiB
    grid = build_grid(256, 1.25e-5)
    monkeypatch.setattr(limitlaw, "_factor_cache", {})
    tracemalloc.start()
    try:
        L = limitlaw._cholesky_factor(grid, 0.95)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert L.shape == (256, 256)
    assert peak <= L.nbytes + 2 ** 20


@pytest.mark.parametrize("failures", range(len(limitlaw._JITTERS) + 1))
def test_cholesky_jitter_ladder(monkeypatch, failures):
    grid = build_grid(64, 1e-3)
    cov = _difference_covariance_reference(grid, 0.6)
    n = cov.shape[0]
    real = limitlaw._cholesky_inplace
    seen = []

    def flaky(a):
        seen.append(a.copy())
        if len(seen) <= failures:
            # a genuine failure halfway down: the factor has already
            # overwritten the lower triangle of the columns before it
            a[n // 2, n // 2] = -1.0
            assert real(a) is False
            return False
        return real(a)

    monkeypatch.setattr(limitlaw, "_factor_cache", {})
    monkeypatch.setattr(limitlaw, "_cholesky_inplace", flaky)
    rungs = limitlaw._JITTERS
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if failures == len(rungs):
            with pytest.raises(CovarianceError, match="jitter"):
                limitlaw._cholesky_factor(grid, 0.6)
        else:
            L = limitlaw._cholesky_factor(grid, 0.6)
    assert len(seen) == min(failures + 1, len(rungs))
    eye = np.eye(n)
    for a, jitter in zip(seen, rungs):
        # the original diagonal plus this rung's jitter, not a running sum
        assert a.tobytes() == (cov + jitter * eye).tobytes()
    warned = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if failures == len(rungs):
        assert not warned and not limitlaw._factor_cache
        return
    jitter = rungs[failures]
    assert L.tobytes() == _factored(cov + jitter * eye).tobytes()
    if jitter > limitlaw._JITTER_QUIET:
        assert len(warned) == 1
        assert f"jitter {jitter:g}" in str(warned[0].message)
    else:
        assert not warned


def test_factor_cache_keeps_only_the_newest(monkeypatch):
    monkeypatch.setattr(limitlaw, "_factor_cache", {})
    cache = limitlaw._factor_cache
    for delta in (1e-4, 1e-5, 1e-6):
        grid = build_grid(512, delta)
        L = limitlaw._cholesky_factor(grid, 0.6)
        # a new grid replaces the held factor: one 2 MiB L at m = 512
        assert list(cache) == [(grid.nodes.tobytes(), 0.6)]
        assert list(cache[(grid.nodes.tobytes(), 0.6)]) == ["difference"]
        assert cache[(grid.nodes.tobytes(), 0.6)]["difference"] is L
        assert limitlaw._cholesky_factor(grid, 0.6) is L


def test_sum_factor_built_once_per_grid(monkeypatch):
    monkeypatch.setattr(limitlaw, "_factor_cache", {})
    cache = limitlaw._factor_cache
    grid = build_grid(128, 1e-4)
    key = (grid.nodes.tobytes(), 0.6)
    uncached = []
    for j in range(3):
        cache.clear()
        uncached.append(simulate_bridge_pair_gaussian(grid, 0.6, 5, j))
    builds = []
    real = limitlaw._sum_covariance
    monkeypatch.setattr(limitlaw, "_sum_covariance",
                        lambda *args: builds.append(args) or real(*args))
    # the batch sampler factors K_D alone
    cache.clear()
    sample_limit_law(0.6, grid, 3, "gaussian_grid", 5)
    assert not builds and list(cache[key]) == ["difference"]
    for j, want in enumerate(uncached):
        got = simulate_bridge_pair_gaussian(grid, 0.6, 5, j)
        assert got.bx.tobytes() == want.bx.tobytes()
        assert got.by.tobytes() == want.by.tobytes()
    assert len(builds) == 1
    assert list(cache) == [key] and sorted(cache[key]) == ["difference", "sum"]
    assert limitlaw._cholesky_factor(grid, 0.6) is cache[key]["difference"]
    # a new grid frees both factors of the old one
    other = build_grid(128, 1e-5)
    simulate_bridge_pair_gaussian(other, 0.6, 5, 0)
    assert len(builds) == 2 and list(cache) == [(other.nodes.tobytes(), 0.6)]


def test_rho_near_one_bridges_coincide():
    grid = build_grid(64, 1e-4)
    pair = simulate_bridge_pair_gaussian(grid, 1.0 - 1e-9, seed=7)
    assert np.max(np.abs(pair.bx - pair.by)) < 0.05


def test_single_draw_matches_batch_row():
    grid = build_grid(32, 1e-3)
    sample = sample_limit_law(0.6, grid, 5, "gaussian_grid", seed=21)
    pair = simulate_bridge_pair_gaussian(grid, 0.6, seed=21, draw_index=3)
    assert g_functional(pair) == pytest.approx(sample.values[3], rel=1e-9)
    d = _gaussian_rows(grid, 0.6, 21, range(5))[3]
    assert np.abs((pair.bx - pair.by) - d).max() <= 1e-13


# --------------------------------------------------------------------------
# empirical-coupling mechanism
# --------------------------------------------------------------------------

def test_coupled_mechanism_independent_at_rho0():
    grid = build_grid(16, 1e-2)
    n = 600
    bx = np.empty((n, grid.m))
    by = np.empty((n, grid.m))
    for j in range(n):
        pair = simulate_bridge_pair_coupled(grid, 0.0, 10 ** 4, seed=5,
                                            draw_index=j)
        bx[j], by[j] = pair.bx, pair.by
    for i in (2, 8, 13):
        r = np.corrcoef(bx[:, i], by[:, i])[0, 1]
        assert abs(r) < 5.0 / math.sqrt(n)


def test_coupled_mechanism_marginal_variance():
    grid = build_grid(16, 1e-2)
    n = 600
    vals = np.empty((n, grid.m))
    for j in range(n):
        pair = simulate_bridge_pair_coupled(grid, 0.6, 10 ** 4, seed=6,
                                            draw_index=j)
        vals[j] = pair.bx
    for i in (3, 8):
        u = grid.nodes[i]
        want = u * (1.0 - u)
        se = want * math.sqrt(2.0 / n)
        assert abs(vals[:, i].var(ddof=1) - want) < 5.0 * se


def test_coupled_mechanism_needs_large_m_sample():
    grid = build_grid(16, 1e-2)
    with pytest.raises(DomainError):
        simulate_bridge_pair_coupled(grid, 0.5, 100, seed=1)


# --------------------------------------------------------------------------
# the functional
# --------------------------------------------------------------------------

def test_functional_zero_for_identical_bridges():
    grid = build_grid(32, 1e-3)
    b = np.sin(grid.nodes * math.pi) * 0.3
    pair = BridgePair(grid=grid, bx=b, by=b, rho=Correlation(0.5))
    assert g_functional(pair) == 0.0


def test_functional_matches_hand_trapezoid():
    grid = build_grid(18, 1e-2)
    rng = np.random.default_rng(13)
    bx = rng.normal(0, 0.2, grid.m)
    by = rng.normal(0, 0.2, grid.m)
    pair = BridgePair(grid=grid, bx=bx, by=by, rho=Correlation(0.3))
    h = np.asarray(density_quantile_h(grid.nodes))
    want = np.trapezoid(((bx - by) / h) ** 2, x=grid.nodes)
    assert g_functional(pair) == pytest.approx(want, rel=1e-12)


def test_expected_functional_matches_quadrature_moment():
    grid = build_grid(512, 1.25e-5)
    want = truncated_second_moment(0.6, 1.25e-5).value
    got = expected_functional(grid, 0.6)
    assert got == pytest.approx(want, rel=5e-3)


@pytest.mark.parametrize("rho", [0.6, -0.5, 0.95])
def test_expected_functional_matches_per_node_loop(rho):
    grid = build_grid(512, 1.25e-5)
    gap = np.array([copula_diagonal_gap(float(u), rho) for u in grid.nodes])
    h = np.asarray(density_quantile_h(grid.nodes))
    want = float(np.trapezoid(2.0 * gap / h ** 2, x=grid.nodes))
    assert expected_functional(grid, rho) == want


def test_sample_mean_matches_expected_functional():
    grid = build_grid(256, 1e-4)
    s = sample_limit_law(0.6, grid, 500, "gaussian_grid", seed=11)
    se = s.values.std(ddof=1) / math.sqrt(len(s.values))
    assert abs(s.values.mean() - expected_functional(grid, 0.6)) < 4.0 * se


def test_truncation_bias_consistency():
    b = truncation_bias(0.6, 1e-6, 1e-3)
    direct = truncated_second_moment(0.6, 1e-6).value \
        - truncated_second_moment(0.6, 1e-3).value
    assert b == pytest.approx(direct, rel=1e-10)
    assert b > 0.0
    with pytest.raises(DomainError):
        truncation_bias(0.6, 1e-3, 1e-6)      # reversed order


def test_grid_convergence_within_bias_plus_noise():
    seed = 30
    s_coarse = sample_limit_law(0.6, build_grid(256, 1e-3), 400,
                                "gaussian_grid", seed)
    s_fine = sample_limit_law(0.6, build_grid(512, 1e-4), 400,
                              "gaussian_grid", seed + 1)
    bias = truncation_bias(0.6, 1e-4, 1e-3)
    diff = s_fine.values.mean() - s_coarse.values.mean()
    se = math.hypot(s_fine.values.std(ddof=1) / 20.0,
                    s_coarse.values.std(ddof=1) / 20.0)
    assert abs(diff - bias) < 4.0 * se


# --------------------------------------------------------------------------
# sampling determinism and the rho = 0 guard
# --------------------------------------------------------------------------

def test_sampling_deterministic():
    grid = build_grid(64, 1e-3)
    a = sample_limit_law(0.45, grid, 40, "gaussian_grid", seed=17)
    b = sample_limit_law(0.45, grid, 40, "gaussian_grid", seed=17)
    assert np.array_equal(a.values, b.values)
    c = sample_limit_law(0.45, grid, 40, "empirical_coupling", seed=17,
                         m_sample=10 ** 4)
    d = sample_limit_law(0.45, grid, 40, "empirical_coupling", seed=17,
                         m_sample=10 ** 4)
    assert np.array_equal(c.values, d.values)
    assert not np.array_equal(a.values, c.values)


def test_summary_schema():
    grid = build_grid(32, 1e-3)
    s = sample_limit_law(0.45, grid, 30, "gaussian_grid", seed=2)
    row = s.summary()
    assert set(row) == {"rho", "mechanism", "m", "delta", "n_draws", "seed",
                        "mean", "variance", "q05", "q50", "q95"}
    assert row["q05"] <= row["q50"] <= row["q95"]
    assert row["n_draws"] == 30


def test_rho_zero_refused_without_flag():
    grid = build_grid(32, 1e-3)
    with pytest.raises(DomainError):
        sample_limit_law(0.0, grid, 10, "gaussian_grid", seed=1)
    s = sample_limit_law(0.0, grid, 10, "gaussian_grid", seed=1,
                         divergence_demo=True)
    assert len(s.values) == 10


def test_rho_zero_truncated_means_increase():
    means = []
    for delta in (1e-2, 1e-3, 1e-4):
        grid = build_grid(96, delta)
        s = sample_limit_law(0.0, grid, 500, "gaussian_grid", seed=23,
                             divergence_demo=True)
        means.append(s.values.mean())
    assert means[0] < means[1] < means[2]


def _functional_ref(d, grid):
    h = np.asarray(density_quantile_h(grid.nodes))
    return np.trapezoid((d / h) ** 2, x=grid.nodes, axis=-1)


def _coupled_ref(grid, rho, seed, j, m_sample):
    """``bx, by`` of empirical draw ``j``: its own substream's coupled
    pairs, sorted and counted below the node quantiles."""
    g = substream(seed, "limit_empirical", j)
    return [(np.searchsorted(np.sort(z), ndtri(grid.nodes), side="right")
             / m_sample - grid.nodes) * math.sqrt(m_sample)
            for z in correlated_normal_pairs(g, m_sample, rho)]


def _per_draw_loop(rho, grid, n_draws, mechanism, seed, m_sample):
    """The per-draw substream loops that ``sample_limit_law`` replaced.

    Gaussian draws stack each draw's ``m`` normals and take one product
    with the Cholesky factor of ``K_D``; empirical draws are
    :func:`_coupled_ref`.
    """
    if mechanism == "gaussian_grid":
        L = limitlaw._cholesky_factor(grid, rho)
        eta = np.array([standard_normals(substream(seed, "limit_gaussian", j),
                                         grid.m) for j in range(n_draws)])
        return _functional_ref(eta @ L.T, grid)
    return np.array([_functional_ref(np.subtract(*_coupled_ref(
        grid, rho, seed, j, m_sample)), grid) for j in range(n_draws)])


@pytest.mark.parametrize("mechanism, rows, samples, width", [
    # 16 rows of m = 512 normals; 3 rows of 2 x 10^4 coupled normals
    ("gaussian_grid", 16, 1, 512), ("empirical_coupling", 3, 2, 10 ** 4)])
def test_sample_limit_law_matches_per_draw_loop(monkeypatch, mechanism, rows,
                                                samples, width):
    grid = build_grid(512 if mechanism == "gaussian_grid" else 256, 1e-4)
    monkeypatch.setattr(streams, "_BLOCK_VALUES", rows * samples * width)
    assert streams._block_rows(samples * width) == rows
    for n_draws in (rows - 1, rows, rows + 1):
        want = _per_draw_loop(0.95, grid, n_draws, mechanism, 31, 10 ** 4)
        for workers in (1, 2, 3):
            got = sample_limit_law(0.95, grid, n_draws, mechanism, 31,
                                   workers=workers).values
            assert got.tobytes() == want.tobytes(), (n_draws, workers)


def test_single_coupled_draw_matches_per_draw_loop():
    grid = build_grid(32, 1e-3)
    pair = simulate_bridge_pair_coupled(grid, 0.6, 10 ** 4, seed=8,
                                        draw_index=4)
    bx, by = _coupled_ref(grid, 0.6, 8, 4, 10 ** 4)
    assert pair.bx.tobytes() == bx.tobytes()
    assert pair.by.tobytes() == by.tobytes()


@pytest.mark.parametrize("rows", [1, 2, 5, 17, 128, 129, 300])
def test_row_strips_are_balanced(rows):
    strips = _balanced_spans(rows, limitlaw._PANEL)
    assert len(strips) == -(-rows // limitlaw._PANEL)
    assert strips[0][0] == 0 and strips[-1][1] == rows
    assert all(a[1] == b[0] for a, b in zip(strips, strips[1:]))
    sizes = [e - s for s, e in strips]
    assert max(sizes) <= limitlaw._PANEL and max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("n_draws", [41, 100])
def test_gaussian_row_strips_keep_bytes(monkeypatch, n_draws):
    # strips of 10 to 12 rows against one product over every row; strips
    # of a few rows may take another BLAS kernel (below 5 rows at m = 256
    # with OpenBLAS 0.3.31 on x86-64)
    grid = build_grid(256, 1e-3)
    monkeypatch.setattr(limitlaw, "_factor_cache", {})
    monkeypatch.setattr(limitlaw, "_PANEL", 12)
    assert len(_balanced_spans(n_draws, limitlaw._PANEL)) >= 4
    want = _per_draw_loop(0.6, grid, n_draws, "gaussian_grid", 12, None)
    got = sample_limit_law(0.6, grid, n_draws, "gaussian_grid", 12).values
    assert got.tobytes() == want.tobytes()


def test_sample_limit_law_counts_are_integers():
    grid = build_grid(32, 1e-3)
    want = sample_limit_law(0.6, grid, 3, "empirical_coupling", 4).values
    got = sample_limit_law(0.6, grid, 3.0, "empirical_coupling", 4,
                           m_sample=10000.0, workers=2.0).values
    assert got.tobytes() == want.tobytes()
    for kwargs in (dict(n_draws=True), dict(n_draws=2.5), dict(n_draws=0),
                   dict(m_sample=True), dict(m_sample=1.5e4 + 0.5),
                   dict(workers=True), dict(workers=0), dict(workers=1.5),
                   dict(seed=2.5)):
        args = dict(rho=0.6, grid=grid, n_draws=3,
                    mechanism="empirical_coupling", seed=4) | kwargs
        with pytest.raises(DomainError):
            sample_limit_law(**args)
    with pytest.raises(DomainError, match="integer"):
        sample_limit_law(0.6, grid, 3, "empirical_coupling", 4, m_sample=True)
    with pytest.raises(DomainError, match="m_sample must be >= 10000"):
        sample_limit_law(0.6, grid, 3, "empirical_coupling", 4, m_sample=9999)
    with pytest.raises(DomainError, match="integer"):
        simulate_bridge_pair_gaussian(grid, 0.6, 4, draw_index=1.5)
    with pytest.raises(DomainError, match="integer"):
        simulate_bridge_pair_coupled(grid, 0.6, 10 ** 4, 4, draw_index=1.5)


def test_unknown_mechanism_rejected():
    grid = build_grid(32, 1e-3)
    with pytest.raises(DomainError):
        sample_limit_law(0.5, grid, 10, "bootstrap", seed=1)
    assert MECHANISMS == ("gaussian_grid", "empirical_coupling")


# --------------------------------------------------------------------------
# KS comparisons
# --------------------------------------------------------------------------

def test_ks_edge_cases():
    rng = np.random.default_rng(4)
    a = rng.normal(0, 1, 200)
    r = ks_two_sample(a, a)
    assert r.statistic == 0.0 and r.p_value == pytest.approx(1.0, abs=1e-9)
    b = rng.normal(50, 1, 200)
    r2 = ks_two_sample(a, b)
    assert r2.statistic == 1.0 and r2.p_value < 1e-10
    with pytest.raises(DomainError):
        ks_two_sample(a[:10], b)                   # too small
    with pytest.raises(DomainError):
        ks_two_sample(np.full(100, 2.0), b)        # degenerate
    bad = a.copy()
    bad[0] = math.inf
    with pytest.raises(DomainError):
        ks_two_sample(bad, b)


@settings(max_examples=300, deadline=None)
@given(n_a=st.integers(25, 4000), n_b=st.integers(25, 4000),
       shift=st.floats(0.0, 0.5), decimals=st.sampled_from([None, 0, 1, 2]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n_a=4000, n_b=3000, shift=0.1, decimals=None, seed=0)   # p < 0.025
@example(n_a=25, n_b=4000, shift=0.0, decimals=0, seed=1)       # N = 25, ties
def test_ks_matches_scipy_asymp(n_a, n_b, shift, decimals, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, n_a)
    b = rng.normal(shift, 1.0, n_b)
    if decimals is not None:                       # ties within and across
        a, b = np.round(a, decimals), np.round(b, decimals)
    assume(np.ptp(a) > 0.0 and np.ptp(b) > 0.0)
    r = ks_two_sample(a, b)
    ref = stats.ks_2samp(a, b, method="asymp")
    assert np.float64(r.statistic).tobytes() \
        == np.float64(ref.statistic).tobytes()
    N = round(n_a * n_b / (n_a + n_b))
    d = r.statistic
    assert r.p_value == min(1.0, 2.0 * float(smirnov(N, d)))
    assert r.p_value >= float(ref.pvalue) - 1e-6
    if N > 140 and N * d * d >= 2.2:
        assert r.p_value == float(ref.pvalue)


def test_mechanisms_agree_in_distribution():
    grid = build_grid(64, 1e-3)
    g = sample_limit_law(0.6, grid, 300, "gaussian_grid", seed=41)
    e = sample_limit_law(0.6, grid, 120, "empirical_coupling", seed=42,
                         m_sample=10 ** 4)
    r = ks_two_sample(g.values, e.values)
    assert r.p_value > 1e-3
