"""Coupled-bridge simulation: grids, covariance fidelity, two mechanisms."""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from w2gauss import (BridgePair, Correlation, DomainError, GridSpec,
                     MECHANISMS, bridge_covariance, build_grid,
                     copula_diagonal_gap, density_quantile_h,
                     expected_functional, g_functional,
                     gaussian_copula, ks_two_sample, sample_limit_law,
                     simulate_bridge_pair_coupled,
                     simulate_bridge_pair_gaussian, truncated_second_moment,
                     truncation_bias)
from w2gauss.limitlaw import _copula_matrix, _gaussian_rows
from w2gauss.special import _bvnu_vec


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
    assert u[0] == pytest.approx(1e-4, rel=1e-12)


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


# --------------------------------------------------------------------------
# covariance fidelity (gaussian mechanism)
# --------------------------------------------------------------------------

@pytest.mark.parametrize("rho", [0.6, -0.5])
def test_gaussian_mechanism_covariance(rho):
    grid = build_grid(24, 1e-3)
    n = 20000
    rows = _gaussian_rows(grid, rho, seed=314, draws=range(n))
    sigma = bridge_covariance(grid, rho)
    emp = np.cov(rows.T)
    # spot-check a spread of entries at 5 sigma of the cov estimator
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 2 * grid.m, size=(12, 2))
    for i, j in idx:
        se = math.sqrt((sigma[i, i] * sigma[j, j] + sigma[i, j] ** 2) / n)
        assert abs(emp[i, j] - sigma[i, j]) < 5.0 * se


def test_gaussian_mechanism_marginal_variance():
    grid = build_grid(32, 1e-3)
    n = 20000
    rows = _gaussian_rows(grid, 0.3, seed=99, draws=range(n))
    bx = rows[:, :grid.m]
    for i in (0, 8, 16, 24, 31):
        u = grid.nodes[i]
        want = u * (1.0 - u)
        got = bx[:, i].var(ddof=1)
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
                                        rel=1e-12)
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


@pytest.mark.parametrize("rho", [0.6, -0.5])
def test_copula_matrix_matches_full_grid_construction(rho):
    nodes = build_grid(512, 1.25e-5).nodes
    got = _copula_matrix(nodes, rho)
    assert got.tobytes() == _copula_matrix_full_grid(nodes, rho).tobytes()


def test_rho_near_one_bridges_coincide():
    grid = build_grid(64, 1e-4)
    pair = simulate_bridge_pair_gaussian(grid, 1.0 - 1e-9, seed=7)
    assert np.max(np.abs(pair.bx - pair.by)) < 0.05


def test_single_draw_matches_batch_row():
    grid = build_grid(32, 1e-3)
    sample = sample_limit_law(0.6, grid, 5, "gaussian_grid", seed=21)
    pair = simulate_bridge_pair_gaussian(grid, 0.6, seed=21, draw_index=3)
    assert g_functional(pair) == pytest.approx(sample.values[3], rel=1e-9)


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


def test_mechanisms_agree_in_distribution():
    grid = build_grid(64, 1e-3)
    g = sample_limit_law(0.6, grid, 300, "gaussian_grid", seed=41)
    e = sample_limit_law(0.6, grid, 120, "empirical_coupling", seed=42,
                         m_sample=10 ** 4)
    r = ks_two_sample(g.values, e.values)
    assert r.p_value > 1e-3
