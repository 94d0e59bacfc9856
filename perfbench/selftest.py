"""Self-test of the benchmark at smoke size (about a minute).

    python3 perfbench/selftest.py

Checks that
  * every metric a run prints, traced or not, has the name and unit that
    ``BENCHMARK.json`` declares;
  * a corrupted CSV, an exception raised inside the command and a warm
    package cache each make the operation fail, and a clean operation
    passes with every cache cold at the start of each timed call;
  * the kernel oracle agrees with a direct 40-digit mpmath evaluation, and
    stored table entries with freshly computed ones.
Exits nonzero if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys

import mpmath
import numpy as np

import run
from make_h_table import h_exact
from oracle import TABLE_N, h_table, reference_w2sq

SMOKE = {
    "one_sample_small_n": run.Workload("smoke", n=1000, reps=200),
    "limit_high_rho": run.Workload("smoke", n=2000, reps=40, rho=0.95, m=32),
}

failures = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
    if not ok:
        failures.append(what)


def metric_names_and_units() -> None:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    check({w["name"]: w["why"] for w in bench["workloads"]} ==
          {name: wl.why for name, wl in run.WORKLOADS.items()},
          "BENCHMARK.json names the run.py workloads and their reasons")
    check(set(declared[1]) == set(run.LAYER_METRICS),
          "BENCHMARK.json per_layer lists the run.py layer metrics")
    run.WORKLOADS.update(SMOKE)
    for name in SMOKE:
        for trace in (0, 1):
            with contextlib.redirect_stdout(io.StringIO()):
                result = run.run(name, seed=3, seconds=0.0, trace=bool(trace))
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check(printed == declared[trace] and result["correct"]
                  and result["failed"] == 0,
                  f"{name} --trace {trace}: metrics and units as declared, "
                  f"run correct")


def failure_accounting() -> None:
    w2gauss = run.import_package()
    wl = SMOKE["limit_high_rho"]
    ref = run.reference(w2gauss, wl)
    clean = run.run_op(wl, 5, ref, trace=False, flip=False)
    check(clean["ok"], "clean operation passes")
    check(all(not any(r["cold"].values()) for r in clean["calls"].values()),
          "factor and table caches are empty when each timed call begins")
    for fault in ("corrupt", "raise", "warm"):
        op = run.run_op(wl, 5, ref, trace=False, flip=False, fault=fault)
        check(not op["ok"], f"fault '{fault}' counts as a failed operation "
                            f"({op['error']})")


def oracle() -> None:
    rng = random.Random(7)
    half = np.load(run.BENCH / "h_table.npy")
    worst = 0.0
    with mpmath.workdps(40):
        for i in rng.sample(range(1, TABLE_N // 2 + 1), 20):
            exact = h_exact(i, TABLE_N)
            got = mpmath.mpf(half[i, 0]) + mpmath.mpf(half[i, 1])
            worst = max(worst, float(abs(got - exact) / exact))
    check(worst < 1e-30, f"stored h table matches mpmath (worst {worst:.1e})")

    w2gauss = run.import_package()
    n = 1000
    z = np.sort(w2gauss.standard_normals(
        w2gauss.substream(11, "one_sample", n, 0), n))
    ref = reference_w2sq(z, h_table(n))
    with mpmath.workdps(40):
        h = [h_exact(i, n) for i in range(n + 1)]
        direct = (mpmath.fsum(mpmath.mpf(v) ** 2 for v in z) / n
                  + 2 * mpmath.fsum(mpmath.mpf(z[i]) * (h[i + 1] - h[i])
                                    for i in range(n)) + 1)
        diff = float(abs(mpmath.mpf(ref.numerator) / ref.denominator - direct)
                     / direct)
    check(diff < 1e-25, f"oracle matches direct mpmath sum (rel {diff:.1e})")


if __name__ == "__main__":
    oracle()
    failure_accounting()
    metric_names_and_units()
    print("self-test " + ("FAILED: " + "; ".join(failures) if failures
                          else "passed"))
    sys.exit(1 if failures else 0)
