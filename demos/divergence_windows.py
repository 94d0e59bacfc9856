"""The limit functional's second moment has no delta -> 0 limit.

M(rho, delta) = 2 int_{delta}^{1-delta} (u - C_rho(u,u))/h^2(u) du is
evaluated by certified tanh-sinh quadrature over a ladder of truncation
windows.  If the integral converged, the values would stabilize; instead they
grow by almost exactly 2 per unit log log(1/delta), all the way down to
delta = 1e-250, for every correlation.  The package therefore refuses
to report a finite limit value, and this script shows the evidence.
"""

import math

import numpy as np

from w2gauss import (DivergenceError, build_grid, copula_diagonal_tail,
                     limit_second_moment, sample_limit_law,
                     second_moment_windows)

if __name__ == "__main__":
    for rho in (0.6, -0.5):
        w = second_moment_windows(rho)
        print(f"rho = {rho}: M(rho, delta) over the window ladder")
        for d, v, s in zip(w["deltas"], w["values"], w["slopes"]):
            print(f"  delta = {d:8.0e}   M = {v:8.4f}   "
                  f"slope vs loglog(1/delta) = {s:6.3f}")
        print()

    print("why: the diagonal copula gap never decays faster than 1-u")
    print("(tail independence), and (1-u)/h^2 is non-integrable:")
    for u in (1 - 1e-6, 1 - 1e-9, 1 - 1e-12):
        t = copula_diagonal_tail(0.6, u)
        print(f"  u = 1-{1 - u:.0e}:  gap/(1-u) = {t.gap_over_tail:.6f}")
    print()

    try:
        limit_second_moment(0.6)
    except DivergenceError as e:
        print("limit_second_moment(0.6) correctly refuses:")
        print(" ", e.diagnostics["note"][:74])
    print()

    print("the same growth is visible in simulated draws at rho = 0")
    print("(independent samples, the classical divergent case):")
    for delta in (1e-2, 1e-3, 1e-4):
        grid = build_grid(96, delta)
        s = sample_limit_law(0.0, grid, 400, "gaussian_grid", seed=3,
                             divergence_demo=True)
        print(f"  delta = {delta:6.0e}   mean = {s.values.mean():7.4f}   "
              f"2 loglog(1/delta) = {2 * math.log(math.log(1 / delta)):7.4f}")
