"""Golden sha256 digests of the CSV bodies for small seeded configurations.

The runners promise byte-identical CSV bodies for a given configuration
and seed.  These digests pin that promise: a change that moves any
reported digit changes a digest here, and must say why in CHANGES.md
when it updates the digest.  A different numpy, scipy or CPU instruction
set can move last digits too, and with them these digests.

Every configuration stays at n <= 1e4, where the CSV bytes do not depend
on the number of OpenBLAS threads; limit-compare is left out because its
Cholesky factor does (see ``test_csv_bytes_do_not_depend_on_blas_threads``).
"""

import hashlib
import os

import pytest

from w2gauss import ExperimentConfig, run_experiment, write_outputs

# case -> (config, CSV file, sha256 of its bytes)
CASES = {
    "one_sample": (
        dict(experiment="one_sample", seed=7, ns=(64, 1000), reps=200),
        "one_sample.csv",
        "96442246efc36aeb282e1d00e0671c110dbb09f2fa83b4c52814fee97a15d406"),
    "two_sample": (
        dict(experiment="two_sample", seed=3, ns=(128, 2000), reps=100,
             rho=0.6),
        "two_sample.csv",
        "d368aa09e97093c6e2fdfe133cd9f9524e0e953d479a89d79936a1cc5e9a393c"),
    "expansions": (
        dict(experiment="expansions", seed=1),
        "expansions.csv",
        "854064fdafda425ba59dee4006ac97f667a7469d44602b0a3277db688d45dc4b"),
    "integrals": (
        dict(experiment="integrals", seed=1, rho=0.6),
        "integrals.csv",
        "e3202048b21178d72196d2fb6b4d0bac6a9759417ff1633d1842eb7f61f464b0"),
    "moments": (
        dict(experiment="moments", seed=2, ns=(10 ** 4,), reps=3000),
        "moments.csv",
        "3723434bb4d6bba15c3296ef09069bd91590c740fb663c0efbb84ab3a953f29c"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_body_digest(tmp_path, case):
    config, name, digest = CASES[case]
    cfg = ExperimentConfig(out=str(tmp_path), **config)
    paths = write_outputs(run_experiment(cfg), cfg.out)
    assert sorted(os.path.basename(p) for p in paths
                  if p.endswith(".csv")) == [name]
    body = (tmp_path / name).read_bytes()
    assert hashlib.sha256(body).hexdigest() == digest
