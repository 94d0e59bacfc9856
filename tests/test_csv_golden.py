"""Golden sha256 digests of the CSV bodies for small seeded configurations.

The runners promise byte-identical CSV bodies for a given configuration
and seed.  These digests pin that promise: a change that moves any
reported digit changes a digest here, and must say why in CHANGES.md
when it updates the digest.  A different numpy, scipy or CPU instruction
set can move last digits too, and with them these digests.

The seeded cases (one_sample, two_sample, moments, limit_compare) draw
from SFC64 substreams; their digests moved once, together, when the
streams left Philox for SFC64.  The normal-drawing cases (one_sample,
two_sample and both limit_compare cases) moved once more, together, when
their normals left ``ndtri`` of open uniforms for numpy's ziggurat
``Generator.standard_normal``; moments draws Beta variates and kept its
digest.  The expansions and integrals tables draw nothing, and kept
theirs.  The ziggurat's output is fixed for a given numpy version only
(numpy's NEP 19 does not cover ``Generator`` methods across versions).

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
         "1b994922ba3b67873834ada04d29f97f7309013f47a8d8b6a3f464bd7102fbf7"}),
    "two_sample": (
        dict(experiment="two_sample", seed=3, ns=(128, 2000), reps=100,
             rho=0.6),
        {"two_sample.csv":
         "547b9326c780b14d1213c67ce30d1a9927171a69dba0cae0ba517dd304417842"}),
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
         "74f539b43b3975dfc5bf73cc3bff6cb23b413c299eb13a87e93e87271da0abd8",
         "ks.csv":
         "def3ca1c83c9a38af18a8e1281d3bc7528135a5b656099d7c5a4b3f80f01ce76"}),
    # m = 160 pins the K_D factor's bytes past 128 columns, which the m = 64
    # case above cannot see
    "limit_compare_m160": (
        dict(experiment="limit_compare", seed=34, ns=(2000,), reps=200,
             rho=0.6, m=160, delta=1e-3),
        {"limit.csv":
         "bdcb638cc4b24efdfe94fa7cf9f7df0238ea777ab16efc57333a051d3f92ad7c",
         "ks.csv":
         "da9ab281e958e50a7e604af4acb980d96f1188491d88afe37da3b1a82191c042"}),
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
