"""Golden sha256 digests of the CSV bodies for small seeded configurations.

The runners promise byte-identical CSV bodies for a given configuration
and seed.  These digests pin that promise: a change that moves any
reported digit changes a digest here, and must say why in CHANGES.md
when it updates the digest.  A different numpy, scipy or CPU instruction
set can move last digits too, and with them these digests.

None of these CSV bytes depends on the number of OpenBLAS threads (see
``test_csv_bytes_do_not_depend_on_blas_threads``): the limit-law Cholesky
factor and its draws are built from matrix products alone, whose bytes do
not move with the thread count.
"""

import hashlib
import os

import pytest

from w2gauss import ExperimentConfig, run_experiment, write_outputs

# case -> (config, {CSV file: sha256 of its bytes})
CASES = {
    "one_sample": (
        dict(experiment="one_sample", seed=7, ns=(64, 1000), reps=200),
        {"one_sample.csv":
         "222fd652fe95092285ae98579fb6affe8a9431971c91fa428b7e09c4b1e304a5"}),
    "two_sample": (
        dict(experiment="two_sample", seed=3, ns=(128, 2000), reps=100,
             rho=0.6),
        {"two_sample.csv":
         "55dcb675ef842886f3e4e5c85bd8444e82479b847f011fbd77a492798e90a5fc"}),
    "expansions": (
        dict(experiment="expansions", seed=1),
        {"expansions.csv":
         "5e4658521fa78c85c7a945ba1dd8e9bc765e6fbb9e0ddb229484b48d7f1fe782"}),
    "integrals": (
        dict(experiment="integrals", seed=1, rho=0.6),
        {"integrals.csv":
         "135d8e6a419e1e5e0c8d883c6c2fdfbf45375b57ab35b967fa3693eef0220dcd"}),
    "moments": (
        dict(experiment="moments", seed=2, ns=(10 ** 4,), reps=3000),
        {"moments.csv":
         "130c0c1ff5668cd9531db40ba53f2d97c780b74bca12fe045a6d352b168520d3"}),
    "limit_compare": (
        dict(experiment="limit_compare", seed=34, ns=(2000,), reps=60,
             rho=0.6, m=64, delta=1e-3),
        {"limit.csv":
         "291efd812db68a9f14f84113f35005661982a812b8456e72670771889ce70245",
         "ks.csv":
         "6169009cd351ac8f98485e1367d2f573bfbbd60a377ee4d77e98201a1686f4cb"}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_body_digest(tmp_path, case):
    config, digests = CASES[case]
    cfg = ExperimentConfig(out=str(tmp_path), **config)
    paths = write_outputs(run_experiment(cfg), cfg.out)
    assert sorted(os.path.basename(p) for p in paths
                  if p.endswith(".csv")) == sorted(digests)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in digests} == digests
