"""n * W2^2 between two correlated empirical distributions vs its limit law.

Couples (X, Y) pairs at rho = 0.6, computes the exact two-sample
distance, and compares the draws against the correlated-bridge limit
functional simulated by both mechanisms (Cholesky on a grid, and
empirical bridges of large coupled samples).
"""

import numpy as np

from w2gauss import (build_grid, ks_two_sample, replicate_w2sq,
                     sample_limit_law, truncated_second_moment)

SEED = 2
RHO = 0.6
N = 2 * 10 ** 4
DRAWS = 600


def finite_n_draws():
    return N * replicate_w2sq(SEED, "two_sample", N, DRAWS, rho=RHO)


if __name__ == "__main__":
    finite = finite_n_draws()
    grid = build_grid(512, 1.0 / (4 * N))
    gauss = sample_limit_law(RHO, grid, DRAWS, "gaussian_grid", SEED + 1)
    emp = sample_limit_law(RHO, grid, DRAWS, "empirical_coupling", SEED + 2,
                           m_sample=10 ** 4)

    print(f"rho = {RHO}, n = {N}, {DRAWS} draws each")
    for name, v in (("finite n", finite), ("gaussian grid", gauss.values),
                    ("empirical coupling", emp.values)):
        q = np.quantile(v, [0.05, 0.5, 0.95])
        print(f"  {name:<20} mean {v.mean():7.4f}   "
              f"q05/q50/q95 {q[0]:6.3f} {q[1]:6.3f} {q[2]:6.3f}")
    print(f"  truncated reference  mean "
          f"{truncated_second_moment(RHO, grid.delta).value:7.4f}   "
          f"(delta = {grid.delta:g})")
    print()
    k1 = ks_two_sample(finite, gauss.values)
    k2 = ks_two_sample(gauss.values, emp.values)
    print(f"KS finite vs gaussian grid: stat {k1.statistic:.4f} "
          f"p {k1.p_value:.3f}")
    print(f"KS mechanism vs mechanism:  stat {k2.statistic:.4f} "
          f"p {k2.p_value:.3f}")
    print()
    print("the three distributions coincide to within Monte Carlo noise;")
    print("note the mean depends on the truncation delta - see")
    print("divergence_windows.py for what happens as delta -> 0")
