"""The commands and the exact mean load only numpy and scipy.special."""

import os
import subprocess
import sys

import w2gauss

_PROBE = """
import sys

def heavy():
    return [m for m in ("scipy.stats", "scipy.integrate") if m in sys.modules]

import w2gauss
from w2gauss.cli import main
assert heavy() == [], ("after import", heavy())
out = sys.argv[1]
assert main(["one-sample", "--n", "64", "--reps", "4", "--seed", "7",
             "--out", out + "/one"]) == 0
assert main(["limit-compare", "--rho", "0.6", "--m", "32", "--n", "2000",
             "--reps", "40", "--seed", "7", "--out", out + "/limit"]) == 0
assert main(["two-sample", "--rho", "0.6", "--n", "64", "--reps", "4",
             "--seed", "7", "--out", out + "/two"]) == 0
assert main(["integrals", "--rho", "0.6", "--seed", "1",
             "--out", out + "/integrals"]) == 0
assert w2gauss.expected_one_sample_w2sq(1000) > 0.0
assert heavy() == [], ("after the runs", heavy())
"""


def test_monte_carlo_commands_skip_scipy_stats_and_integrate(tmp_path):
    src = os.path.dirname(os.path.dirname(w2gauss.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "one" / "one_sample.csv").exists()
    assert (tmp_path / "limit" / "ks.csv").exists()
    assert (tmp_path / "two" / "two_sample.csv").exists()
    assert (tmp_path / "integrals" / "integrals.csv").exists()
