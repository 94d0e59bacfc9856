"""Which harmonic-index variant matches the exact order-statistic oracle?

The mean/variance formulas for the (k+1)-th largest of n normals exist
in two published forms differing by an index shift (partial harmonic
sums through k vs k+1).  Rather than trust either, both are compared
against exact Beta-representation sampling: 1 - Phi(Z_{n-k}) is a
Beta(k+1, n-k) variate, so huge replications cost no sorting.  The
sampler is exact, so a miss is formula error: the verdict allows each
prediction 3 SE plus one order of its neglected term.
"""

from w2gauss import VARIANTS, extreme_mean, resolve_index_variant

N = 10 ** 6
REPS = 10 ** 6

if __name__ == "__main__":
    res = resolve_index_variant(n=N, ks=(0, 1, 2, 5), reps=REPS,
                                seed=20260301)
    print(f"n = {N}, reps = {REPS} (exact Beta sampling, no sorting)")
    print(f"{'k':>3} {'mc mean':>9} {'se':>8} "
          f"{'shifted':>9} {'dev/se':>7} {'as_stated':>10} {'dev/se':>7}")
    for row in res["details"]:
        sh = row["shifted"]
        st = row["as_stated"]
        print(f"{row['k']:>3} {row['mc_mean']:>9.5f} {row['se_mean']:>8.5f} "
              f"{sh['mean_pred']:>9.5f} {sh['dev_mean_se']:>7.1f} "
              f"{st['mean_pred']:>10.5f} {st['dev_mean_se']:>7.1f}")
    print()
    print(f"canonical variant: {res['canonical']}")
    print(f"worst deviations (SE units): "
          f"shifted {res['worst_dev_se']['shifted']:.1f}, "
          f"as_stated {res['worst_dev_se']['as_stated']:.1f}")
    print()
    pred = extreme_mean(N, 0)
    print("within a bare 3 SE at every k: "
          + ", ".join(f"{v} {res['within_3se'][v]}" for v in VARIANTS))
    print(f"error orders of the neglected terms: mean "
          f"{pred.mean_error_order:.3f}, variance {pred.var_error_order:.1e}")
    print("worst excess over 3 SE, in error orders (survives at <= 1): "
          + ", ".join(f"{v} {res['worst_excess'][v]:.2f}" for v in VARIANTS))
    print("survivors (within 3 SE plus one error order at every k): "
          + (", ".join(res["survivors"]) or "none"))
