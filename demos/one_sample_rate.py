"""How fast does n * W2^2(empirical, Phi) grow?

Draws sorted Gaussian samples, evaluates the exact quantile-integral
distance, and compares the Monte Carlo means against the log log n
growth curve and the exact (simulation-free) order-statistic means.
"""

import math

from w2gauss import expected_one_sample_w2sq, replicate_w2sq

SEED = 1


def mc_mean(n, reps):
    vals = n * replicate_w2sq(SEED, "one_sample", n, reps)
    return vals.mean(), vals.std(ddof=1) / math.sqrt(reps)


if __name__ == "__main__":
    print("n * E W2^2 vs log log n (Monte Carlo and exact)")
    print(f"{'n':>8} {'mc mean':>9} {'se':>7} {'exact':>9} "
          f"{'ratio':>7} {'centered':>9}")
    for n, reps in ((10 ** 2, 4000), (10 ** 3, 2000), (10 ** 4, 1000),
                    (10 ** 5, 400)):
        mean, se = mc_mean(n, reps)
        exact = expected_one_sample_w2sq(n)
        ll = math.log(math.log(n))
        print(f"{n:>8} {mean:>9.4f} {se:>7.4f} {exact:>9.4f} "
              f"{mean / ll:>7.4f} {mean - ll:>9.4f}")
    print()
    print("the ratio column drifts down toward 1 (log log convergence is")
    print("slow); the centered column drifts down toward the constant term")
    print("of the Bickel-Freedman centering integral, log 2 + gamma0 = 1.2704")
