"""Cold-process benchmark of the w2gauss Monte Carlo runners.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One operation runs a workload's
``w2gauss`` command as a user would: each call in a fresh interpreter (so
the ``_boundary_tables`` lru_cache and the limitlaw ``_factor_cache`` start
empty, as on every CLI call), importing the package from ``src/``, then
parse, ``run_experiment`` and ``write_outputs``.  It is called once with
``--workers 1`` and once with ``--workers 2`` (= nproc on the reference
box) on the same operation seed, in alternating order.  Operations repeat,
each on a new seed derived from ``--seed``, while the next one is expected to
end within ``--seconds`` plus half an operation.  ``setup_s`` and
``peak_rss_mb`` are medians over the run's calls.

``reps_per_s`` and ``reps_per_s_w2`` are replications per second over all of
the run's calls at that worker count, scaled to a host of reference speed.
On the shared 2-core host this was built on, speed drifts by up to 30% over
minutes (with CPU steal of up to 20%), which no run length within the budget
averages out.  So before each call this process times ``calibrate()``, a
fixed mix of scalar-Python and small-array numpy work that shares no code
with the package, and the run's rates are multiplied by the mean calibration
time over ``CAL_REF_S``.  A change to the package moves the scaled rates as
it moves the raw ones; the raw rates and the calibration are on the
``{"env": ...}`` line.

An operation fails if a call raises (nonzero exit), if a cache was warm at
the start of a timed call, if the CSV bodies of the two calls differ, or if a
row's mean is further than ``Z_LIMIT`` reported standard errors from the
package's simulation-free reference.  The references and the kernel
accuracy probe (``w2_rel_err``, see ``oracle.py``) are computed by this
process before the timed loop.

``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` are inherited, never set,
and recorded with the rest of the environment on the ``{"env": ...}`` line.

``--trace 1`` adds a traced call at each worker count next to an untraced
``--workers 1`` call, prints each per-layer metric beside the end-to-end
metric and workload it should move, and reports the per-layer metrics.
The last stdout line is always the result object.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

Z_LIMIT = 8.0          # |mean - reference| <= Z_LIMIT * reported SE
PROBE_N = 1000         # sample size of the kernel accuracy probe
PROBE_REPS = 1024      # probe samples per run; the metric is their mean
PROBE_MAX_ERR = 1e-10  # a probe error above this marks the run incorrect
CHILD_TIMEOUT_S = 150
CAL_REF_S = 0.26       # calibrate() on the reference box when it is quiet


@dataclasses.dataclass(frozen=True)
class Workload:
    why: str
    n: int
    reps: int
    rho: float | None = None  # set for limit-compare, with the grid size m
    m: int | None = None

    @property
    def one_sample(self) -> bool:
        return self.rho is None

    def argv(self, seed: int, workers: int, out: Path) -> list:
        """Arguments of the ``w2gauss`` command for one call."""
        cmd = ["one-sample"] if self.one_sample else \
            ["limit-compare", "--rho", str(self.rho), "--m", str(self.m)]
        return [*cmd, "--n", str(self.n), "--reps", str(self.reps),
                "--seed", str(seed), "--workers", str(workers),
                "--out", str(out)]


# Two of the four workloads first proposed were dropped, so that each run can
# be long enough to be steady on the 2-core reference box (4 + 22 runs per
# workload must fit in the run budget).
# * two_sample_limit (limit-compare at n=2e4, rho=0.6, m=512, criterion 07's
#   config): over ten seeds its reps_per_s and reps_per_s_w2 spread by
#   0.18-0.22 of their median, the most of any workload (BLAS-threaded
#   Cholesky, matmul and 2e4-element dot products).  limit_high_rho
#   exercises the same limit-law layers.
# * one_sample_large_n (one-sample at n=1e6): steady, but its run time was
#   needed to lengthen the other two runs.  Its layers (uniforms, ndtri,
#   sort, table build, kernel) are the one-sample pipeline that
#   one_sample_small_n also runs, at a smaller n.
# Reps are set so that the timed command, not interpreter start, fills most
# of an operation.
WORKLOADS = {
    "one_sample_small_n": Workload(
        "n=1e3: per-replication fixed costs (substream, dispatch, checks) "
        "dominate; carries the --workers 2 slowdown",
        n=1000, reps=16000),
    "limit_high_rho": Workload(
        "rho=0.95: the only path into the scalar bivariate-normal loop, "
        "paid cold by every call",
        n=20000, reps=300, rho=0.95, m=256),
}

# per-layer metric -> (unit, end-to-end metric and workload it should move)
LAYER_METRICS = {
    "setup.scipy_stats_import_s": ("s", "setup_s on all workloads"),
    "streams.substream_us": ("us", "reps_per_s on one_sample_small_n"),
    "streams.uniforms_ms": ("ms", "reps_per_s on one_sample_small_n"),
    "streams.ndtri_ms": ("ms", "reps_per_s on one_sample_small_n"),
    "streams.pairs_ms": ("ms", "reps_per_s on limit_high_rho"),
    "experiments.sort_ms": ("ms", "reps_per_s on one_sample_small_n"),
    "experiments.self_us": (
        "us", "reps_per_s and reps_per_s_w2 on one_sample_small_n"),
    "experiments.worker_busy_frac": (
        "1", "reps_per_s_w2 on one_sample_small_n"),
    "experiments.write_ms": ("ms", "reps_per_s on all workloads"),
    "wasserstein.sorted_sample_us": (
        "us", "reps_per_s on one_sample_small_n"),
    "wasserstein.kernel_us": ("us", "reps_per_s on one_sample_small_n"),
    "wasserstein.tables_ms": ("ms", "reps_per_s on one_sample_small_n"),
    "wasserstein.kernel_gb_per_s": ("GB/s", "one_sample_small_n"),
    "wasserstein.two_sample_us": ("us", "limit_high_rho"),
    "limitlaw.covariance_ms": (
        "ms", "reps_per_s on limit_high_rho"),
    "limitlaw.cholesky_ms": (
        "ms", "reps_per_s on limit_high_rho"),
    "limitlaw.gaussian_grid_ms_per_draw": ("ms", "limit_high_rho"),
    "limitlaw.empirical_coupling_ms_per_draw": ("ms", "limit_high_rho"),
    "limitlaw.ks_ms": ("ms", "limit_high_rho"),
    "limitlaw.jitter_warnings": (
        "count", "failed_frac on limit_high_rho (expected 0)"),
    "special.bvn_evals": (
        "count", "reps_per_s on limit_high_rho"),
    "special.bvn_useful_ratio": (
        "1", "reps_per_s on limit_high_rho"),
    "trace.overhead_frac": ("1", "traced wall / untraced wall - 1"),
    "trace.unattributed_frac": ("1", "share of wall no layer span covers"),
    "failed_frac": ("1", "failed operations / attempted, every workload"),
}


class BenchError(Exception):
    """The benchmark cannot run here (e.g. no package source)."""


def op_seed(seed: int, k: int) -> int:
    """Package seed of operation ``k`` of a run started with ``--seed``."""
    digest = hashlib.sha256(f"perfbench:{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# --------------------------------------------------------------------------
# one call and one operation
# --------------------------------------------------------------------------

def calibrate() -> float:
    """Seconds this process takes for a fixed mix of scalar-Python and
    small-array numpy work: the host's speed just before a call."""
    import numpy as np

    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 400_000):
        x = i * 1e-5
        acc += math.erf(x) * math.exp(-x * x) / (1.0 + x)
    for _ in range(4000):
        z = np.sort(rng.standard_normal(1000))
        acc += float(z @ z)
    return time.perf_counter() - t0


def call(wl: Workload, seed: int, workers: int, out: Path, trace: bool,
         fault: str | None = None) -> dict:
    """One fresh-interpreter ``w2gauss`` call; returns the child's report."""
    spec = {"argv": wl.argv(seed, workers, out), "trace": trace,
            "fault": fault, "src": os.path.realpath(SRC)}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    cal_s = calibrate()
    start = _monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    report = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_REPORT "):
            report = json.loads(line.split(" ", 1)[1])
    if proc.returncode != 0 or report is None or report["rc"] != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        status = report["rc"] if report else proc.returncode
        raise RuntimeError(f"workers={workers} call failed "
                           f"(status {status}): {tail[0]}")
    report["setup_s"] = report["setup_end"] - start
    report["cal_s"] = cal_s
    return report


def run_op(wl: Workload, seed: int, ref: float, trace: bool, flip: bool,
           fault: str | None = None) -> dict:
    """Calls of one operation plus its output check.

    Returns ``{"ok": bool, "error": str|None, "calls": {label: report}}``;
    reports of calls that succeeded are kept even when the check fails.
    """
    plan = [("w1", 1, trace), ("w2", 2, trace)]
    if trace:
        plan.append(("plain", 1, False))
    if flip:
        plan.reverse()
    calls = {}
    try:
        for label, workers, traced in plan:
            out = OUT / label
            shutil.rmtree(out, ignore_errors=True)
            calls[label] = call(wl, seed, workers, out, traced,
                                fault if label == "w1" else None)
        if fault == "corrupt":
            _corrupt(OUT / "w2")
        check_outputs(wl, seed, ref, [OUT / label for label, _, _ in plan],
                      calls)
    except Exception as exc:  # every failure mode is a failed operation
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                "calls": calls}
    return {"ok": True, "error": None, "calls": calls}


def _corrupt(out: Path) -> None:
    path = sorted(out.glob("*.csv"))[0]
    body = bytearray(path.read_bytes())
    body[-2] = ord("7") if body[-2] != ord("7") else ord("3")
    path.write_bytes(bytes(body))


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------

def check_outputs(wl: Workload, seed: int, ref: float, dirs: list,
                  calls: dict) -> None:
    """Raise ``AssertionError`` naming the first violated rule."""
    for label, report in calls.items():
        if any(report["cold"].values()):
            raise AssertionError(f"{label}: cache warm at start: "
                                 f"{report['cold']}")
    names = sorted(p.name for p in dirs[0].glob("*.csv"))
    expected = ["one_sample.csv"] if wl.one_sample else ["ks.csv", "limit.csv"]
    if names != expected:
        raise AssertionError(f"wrote {names}, expected {expected}")
    rows = {}
    for name in names:
        bodies = {d.name: (d / name).read_bytes() for d in dirs}
        if len(set(bodies.values())) != 1:
            raise AssertionError(f"{name} differs between {sorted(bodies)}")
        rows[name] = list(csv.DictReader(
            bodies[dirs[0].name].decode().splitlines()))
    for table in rows.values():
        for row in table:
            if int(row["seed"]) != seed or int(row["reps"]) != wl.reps:
                raise AssertionError(f"provenance mismatch in {row}")
    if wl.one_sample:
        (row,) = rows["one_sample.csv"]
        _check_mean(row["mean_w2sq"], row["se_w2sq"], ref, "mean_w2sq")
        return
    mechs = {row["mechanism"]: row for row in rows["limit.csv"]}
    if sorted(mechs) != sorted(["gaussian_grid", "empirical_coupling",
                                f"finite_n_{wl.n}"]):
        raise AssertionError(f"limit rows {sorted(mechs)}")
    g = mechs["gaussian_grid"]
    se = math.sqrt(float(g["variance"]) / int(g["n_draws"]))
    _check_mean(g["mean"], se, ref, "gaussian_grid mean")
    if len(rows["ks.csv"]) != 3 or not all(
            0.0 <= float(r["p_value"]) <= 1.0
            and 0.0 <= float(r["ks_stat"]) <= 1.0 for r in rows["ks.csv"]):
        raise AssertionError("ks rows malformed")


def _check_mean(mean, se, ref: float, what: str) -> None:
    mean, se = float(mean), float(se)
    if not (math.isfinite(mean) and se > 0.0
            and abs(mean - ref) <= Z_LIMIT * se):
        raise AssertionError(f"{what} {mean!r} vs reference {ref!r}: "
                             f"more than {Z_LIMIT} x SE {se!r} apart")


# --------------------------------------------------------------------------
# references, probe and environment (outside the timed loop)
# --------------------------------------------------------------------------

def import_package():
    if not (SRC / "w2gauss" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'w2gauss'}; run from "
                         f"the root of a w2gauss checkout")
    sys.path.insert(0, str(SRC))
    import w2gauss
    if not os.path.realpath(w2gauss.__file__).startswith(
            os.path.realpath(SRC) + os.sep):
        raise BenchError(f"w2gauss imported from {w2gauss.__file__}")
    return w2gauss


def reference(w2gauss, wl: Workload) -> float:
    """Simulation-free mean of the checked CSV column."""
    if wl.one_sample:
        return w2gauss.expected_one_sample_w2sq(wl.n) / wl.n
    grid = w2gauss.build_grid(wl.m, 1.0 / (4.0 * wl.n))
    return w2gauss.expected_functional(grid, wl.rho)


def kernel_probe(w2gauss, seed: int) -> float:
    """Mean relative error of ``w2sq_vs_gaussian`` over the probe samples.

    Probe ``r`` is replication ``r`` of a one-sample run at ``PROBE_N``
    with the operation seed: the runner's own substream key and sort.
    """
    import numpy as np
    from oracle import h_table, reference_w2sq, relative_error

    table = h_table(PROBE_N)
    errs = []
    for rep in range(PROBE_REPS):
        g = w2gauss.substream(seed, "one_sample", PROBE_N, rep)
        z = np.sort(w2gauss.standard_normals(g, PROBE_N))
        val = w2gauss.w2sq_vs_gaussian(w2gauss.SortedSample(z))
        errs.append(relative_error(val, reference_w2sq(z, table)))
    return statistics.fmean(errs)


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs since boot, where Linux has them."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def environment(w2gauss) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "w2gauss": w2gauss.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
    }


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _throughput(wl: Workload, calls: list, label: str) -> float:
    """Replications per second over all of the run's ``label`` calls."""
    wall = sum(c[label]["wall_s"] for c in calls)
    return len(calls) * wl.reps / wall if calls else 0.0


def host_speed(ops: list) -> dict:
    """Mean calibration time of the run's calls and the scale it gives."""
    cals = [r["cal_s"] for op in ops for r in op["calls"].values()]
    cal = statistics.fmean(cals) if cals else CAL_REF_S
    return {"cal_ref_s": CAL_REF_S, "cal_s": cal, "scale": cal / CAL_REF_S}


def end_to_end(wl: Workload, ops: list, probe_err: float,
               scale: float) -> dict:
    calls = [op["calls"] for op in ops if op["ok"]]
    return {
        "reps_per_s": (scale * _throughput(wl, calls, "w1"), "1/s"),
        "reps_per_s_w2": (scale * _throughput(wl, calls, "w2"), "1/s"),
        "setup_s": (_median(r["setup_s"] for op in ops
                            for r in op["calls"].values()), "s"),
        "peak_rss_mb": (_median(c["w1"]["maxrss_mb"] for c in calls), "MB"),
        "w2_rel_err": (probe_err, "1"),
    }


def layer_values(wl: Workload, calls: dict) -> dict:
    """Per-layer metrics of one traced operation."""
    t1, t2 = calls["w1"], calls["w2"]
    spans = t1["trace"]["spans"]
    reps = wl.reps

    def get(name, key="incl_s"):
        return spans.get(name, {}).get(key, 0.0)

    def per_call(name, key="incl_s"):
        n = spans.get(name, {}).get("calls", 0)
        return get(name, key) / n if n else 0.0

    run = spans["experiments.run"]
    kernel_self = get("wasserstein.kernel", "self_s")
    kernel_calls = spans.get("wasserstein.kernel", {}).get("calls", 0)
    evals = t1["trace"]["counts"].get("special.bvn_evals", 0)
    builds = spans.get("limitlaw.covariance", {}).get("calls", 0)
    factor = get("limitlaw.factor")
    run2 = t2["trace"]["spans"]["experiments.run"]["incl_s"]
    return {
        "setup.scipy_stats_import_s": t1["scipy_stats_import_s"],
        "streams.substream_us": 1e6 * per_call("streams.substream"),
        "streams.uniforms_ms": 1e3 * get("streams.uniforms") / reps,
        "streams.ndtri_ms": 1e3 * get("streams.ndtri") / reps,
        "streams.pairs_ms": 1e3 * get("streams.pairs") / reps,
        "experiments.sort_ms": 1e3 * get("experiments.sort") / reps,
        "experiments.self_us": 1e6 * run["self_s"] / reps,
        "experiments.worker_busy_frac": t2["trace"]["busy_s"] / (2 * run2),
        "experiments.write_ms": 1e3 * get("experiments.write"),
        "wasserstein.sorted_sample_us":
            1e6 * per_call("wasserstein.sorted_sample"),
        "wasserstein.kernel_us": 1e6 * per_call("wasserstein.kernel",
                                                "self_s"),
        "wasserstein.tables_ms": 1e3 * spans.get("wasserstein.tables", {})
        .get("first_s", 0.0),
        # computed bytes: z and the H table read once each per call
        "wasserstein.kernel_gb_per_s":
            kernel_calls * 16 * wl.n / kernel_self / 1e9 if kernel_self
            else 0.0,
        "wasserstein.two_sample_us": 1e6 * per_call("wasserstein.two_sample"),
        "limitlaw.covariance_ms": 1e3 * get("limitlaw.covariance"),
        "limitlaw.cholesky_ms": 1e3 * get("limitlaw.cholesky"),
        "limitlaw.gaussian_grid_ms_per_draw":
            1e3 * (get("limitlaw.sample[gaussian_grid]") - factor) / reps
            if "limitlaw.sample[gaussian_grid]" in spans else 0.0,
        "limitlaw.empirical_coupling_ms_per_draw":
            1e3 * get("limitlaw.sample[empirical_coupling]") / reps,
        "limitlaw.ks_ms": 1e3 * get("limitlaw.ks"),
        "limitlaw.jitter_warnings": t1["jitter_warnings"],
        "special.bvn_evals": evals / builds if builds else 0.0,
        "special.bvn_useful_ratio":
            builds * wl.m ** 2 / evals if evals else 0.0,
        "trace.overhead_frac": t1["wall_s"] / calls["plain"]["wall_s"] - 1.0,
        "trace.unattributed_frac":
            1.0 - t1["trace"]["covered_s"] / t1["wall_s"],
    }


def per_layer(wl: Workload, ops: list) -> dict:
    good = [layer_values(wl, op["calls"]) for op in ops if op["ok"]]
    failed = sum(not op["ok"] for op in ops)
    out = {name: (_median(v[name] for v in good), unit)
           for name, (unit, _) in LAYER_METRICS.items()
           if name != "failed_frac"}
    out["failed_frac"] = (failed / len(ops), "1")
    return out


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    load_start = os.getloadavg()[0]
    w2gauss = import_package()
    env = environment(w2gauss)
    ref = reference(w2gauss, wl)
    probe_err = kernel_probe(w2gauss, op_seed(seed, 0))

    ops = []
    ticks = _cpu_ticks()
    start = _monotonic()
    while True:
        k = len(ops)
        ops.append(run_op(wl, op_seed(seed, k), ref, trace, flip=k % 2 == 1))
        op = ops[-1]
        timings = "".join(
            f"; {label} wall {r['wall_s']:.4f} s setup {r['setup_s']:.4f} s"
            for label, r in op["calls"].items())
        print(f"operation {k}: {'ok' if op['ok'] else op['error']}{timings}",
              file=sys.stderr)
        elapsed = _monotonic() - start
        # start another operation only if it should end by --seconds plus
        # half an operation
        if elapsed * (k + 1.5) / (k + 1) > seconds:
            break
    shutil.rmtree(OUT, ignore_errors=True)
    steal = None
    if ticks is not None and (end := _cpu_ticks()) is not None:
        steal = (end[0] - ticks[0]) / max(end[1] - ticks[1], 1)

    failed = sum(not op["ok"] for op in ops)
    good = [op["calls"] for op in ops if op["ok"]]
    speed = host_speed(ops)
    speed.update(raw_reps_per_s=_throughput(wl, good, "w1"),
                 raw_reps_per_s_w2=_throughput(wl, good, "w2"))
    env.update(workload=workload, config=dataclasses.asdict(wl), seed=seed,
               operations=len(ops), calls_per_operation=3 if trace else 2,
               measured_s=round(elapsed, 3), reference=ref,
               probe={"n": PROBE_N, "samples": PROBE_REPS,
                      "mean_rel_err": probe_err},
               loadavg_1m_start=load_start,
               loadavg_1m_end=os.getloadavg()[0],
               cpu_steal_frac=steal, host_speed=speed)
    print(json.dumps({"env": env}))
    metrics = per_layer(wl, ops) if trace else \
        end_to_end(wl, ops, probe_err, speed["scale"])
    if trace:
        for name, (value, unit) in metrics.items():
            print(f"{name:42s} {value:14.6g} {unit:6s} -> "
                  f"{LAYER_METRICS[name][1]}")
    return {
        "correct": failed == 0 and probe_err <= PROBE_MAX_ERR,
        "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
