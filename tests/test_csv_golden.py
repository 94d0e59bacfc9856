"""Golden sha256 digests of the CSV bodies for small seeded configurations.

The runners promise byte-identical CSV bodies for a given configuration
and seed.  These digests pin that promise: a change that moves any
reported digit changes a digest here, and must say why in CHANGES.md
when it updates the digest.  A different numpy, scipy or CPU instruction
set can move last digits too, and with them these digests.

The seeded cases (one_sample, two_sample, moments, limit_compare) draw
from SFC64 substreams; their digests moved once, together, when the
streams left Philox for SFC64.  The expansions and integrals tables draw
nothing, and kept theirs.

None of these CSV bytes depends on the number of OpenBLAS threads (see
``test_csv_bytes_do_not_depend_on_blas_threads``): the limit-law Cholesky
factor and its draws are built from matrix-vector and matrix products,
whose bytes do not move with the thread count.
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
         "dc173285fd3e2726ea9a09f2954f389c7dd2e09f3239e7643167a37024e52744"}),
    "two_sample": (
        dict(experiment="two_sample", seed=3, ns=(128, 2000), reps=100,
             rho=0.6),
        {"two_sample.csv":
         "b71015049898056b7d8467479ddbef00515adf35ac285616b3511ae892167212"}),
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
         "a4a810aa7d9c83a06302d65843efa0be4148249c154beca83cd6c8d1e6a371fa"}),
    "limit_compare": (
        dict(experiment="limit_compare", seed=34, ns=(2000,), reps=60,
             rho=0.6, m=64, delta=1e-3),
        {"limit.csv":
         "fb70efdcdee3da6cd2ec25861f31a264d54456094fab7a8aa72eadc894272b48",
         "ks.csv":
         "c91a3998caab4d32b891ffd281841e8f6c46e5ddbef2c53a87649edb9dfa15bf"}),
    # m = 160 pins the K_D factor's bytes past 128 columns, which the m = 64
    # case above cannot see
    "limit_compare_m160": (
        dict(experiment="limit_compare", seed=34, ns=(2000,), reps=200,
             rho=0.6, m=160, delta=1e-3),
        {"limit.csv":
         "30e9bbb488e9898fbf3346133bc3c77f40c6cec49423cc97a6fcdfa6b25bd81d",
         "ks.csv":
         "fa0894943e55fa9cc8a7ce3da18e7832e6196d7cb02b8fbc67f3f7dd42126bff"}),
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
