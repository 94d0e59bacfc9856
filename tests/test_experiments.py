"""Experiment configs, runners, deterministic serialization, and the CLI."""

import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from w2gauss import (DELTA_FLOOR, DomainError, EXPERIMENTS, ExperimentConfig,
                     SortedSample,
                     correlated_normal_pairs, expected_one_sample_w2sq,
                     replicate_w2sq, run_experiment,
                     run_one_sample, standard_normals, substream,
                     truncated_second_moment, w2sq_two_sample,
                     w2sq_vs_gaussian, write_outputs)
from w2gauss import experiments, streams
from w2gauss.cli import build_parser, main


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

def test_config_validation_rejections():
    ok = dict(experiment="one_sample", seed=1, ns=(100,), reps=4)
    ExperimentConfig(**ok)
    bad_cases = [
        dict(ok, experiment="nope"),
        dict(ok, seed=None),
        dict(ok, seed=-1),
        dict(ok, seed=True),
        dict(ok, seed=2 ** 64),
        dict(ok, seed=7.9),
        dict(ok, reps=0),
        dict(ok, reps=2.5),
        dict(ok, reps=True),
        dict(ok, reps="4"),
        dict(ok, workers=0),
        dict(ok, workers=1.9),
        dict(ok, m=True),
        dict(ok, m=8),
        dict(ok, m_sample=1e4 + 0.5),
        dict(ok, m_sample=100),
        dict(ok, ns=()),
        dict(ok, ns=(64.9,)),
        dict(ok, ns=(False,)),
        dict(experiment="two_sample", seed=1, ns=(100,), reps=4),  # no rho
        dict(experiment="two_sample", seed=1, ns=(100,), reps=4, rho=1.5),
        dict(experiment="two_sample", seed=1, ns=(100,), reps=4, rho="abc"),
        dict(experiment="two_sample", seed=1, ns=(100,), reps=4, rho="0.5"),
        dict(experiment="two_sample", seed=1, ns=(100,), reps=4, rho=False),
        dict(experiment="limit_compare", seed=1, ns=(100,), reps=25, rho=0.0),
        # rho is checked wherever it is given, not only where it is needed
        dict(experiment="integrals", seed=1, rho="0.5"),
        dict(experiment="integrals", seed=1, rho="abc"),
        dict(experiment="integrals", seed=1, rho=1.0),
        dict(ok, rho=True),
        # delta lies in [DELTA_FLOOR, 1/4) and is a real number
        dict(ok, delta=0.5),
        dict(ok, delta=0.25),
        dict(ok, delta=0),
        dict(ok, delta=1e-300),
        dict(ok, delta=math.nan),
        dict(ok, delta="abc"),
        dict(ok, delta="1e-3"),
        dict(ok, delta=b"1e-3"),
        dict(ok, delta=True),
        dict(experiment="two_sample", seed=1, ns=(100,), reps=4, rho=0.6,
             delta=0.5),
    ]
    for kwargs in bad_cases:
        with pytest.raises(DomainError):
            ExperimentConfig(**kwargs)
    # integral floats (JSON's 1e4) are counts; they hash as the ints do
    cfg = ExperimentConfig(**dict(ok, ns=(1e2,), reps=4.0, workers=2.0,
                                  m_sample=1e4, seed=1.0))
    assert (cfg.ns, cfg.reps, cfg.workers, cfg.m_sample, cfg.seed) == \
        ((100,), 4, 2, 10 ** 4, 1)
    assert all(type(v) is int for v in (*cfg.ns, cfg.reps, cfg.workers,
                                        cfg.m_sample, cfg.seed))
    assert cfg.config_hash() == ExperimentConfig(**ok).config_hash()
    # a valid rho or delta is stored as given, so its hash does not move
    for field, value in (("rho", 0.5), ("rho", np.float64(0.5)),
                         ("delta", 1e-3), ("delta", DELTA_FLOOR)):
        cfg = ExperimentConfig(**dict(ok, **{field: value}))
        assert getattr(cfg, field) is value
    assert ExperimentConfig(**dict(ok, rho=0.5)).config_hash() == \
        ExperimentConfig(**dict(ok, rho=np.float64(0.5))).config_hash()
    # rho = 0 limit comparison allowed only as an explicit divergence demo
    ExperimentConfig(experiment="limit_compare", seed=1, ns=(100,), reps=25,
                     rho=0.0, divergence_demo=True)


def test_experiments_tuple():
    assert EXPERIMENTS == ("one_sample", "two_sample", "limit_compare",
                          "expansions", "integrals", "moments")


def test_config_hash_scope():
    base = ExperimentConfig(experiment="one_sample", seed=9, ns=(50,), reps=3)
    same = ExperimentConfig(experiment="one_sample", seed=9, ns=(50,), reps=3,
                            workers=4, out="elsewhere")
    other = ExperimentConfig(experiment="one_sample", seed=10, ns=(50,),
                             reps=3)
    # workers and output location are execution details, not provenance
    assert base.config_hash() == same.config_hash()
    assert base.config_hash() != other.config_hash()
    assert len(base.config_hash()) == 12


# --------------------------------------------------------------------------
# runners
# --------------------------------------------------------------------------

def test_one_sample_n1_exact_mean():
    # W2^2(delta_X, Phi) = X^2 + 1 so the mean of n W2^2 at n=1 is 2
    cfg = ExperimentConfig(experiment="one_sample", seed=31, ns=(1,),
                           reps=4000)
    row = run_one_sample(cfg)["one_sample"][0]
    assert abs(row["mean_w2sq"] - 2.0) < 3.5 * row["se_w2sq"]
    assert math.isnan(row["ratio"]) or row["n"] > 1


def test_one_sample_runner_guard():
    cfg = ExperimentConfig(experiment="integrals", seed=1)
    with pytest.raises(DomainError):
        run_one_sample(cfg)


def test_two_sample_near_perfect_coupling():
    cfg = ExperimentConfig(experiment="two_sample", seed=32, ns=(100,),
                           reps=50, rho=1.0 - 1e-9)
    row = run_experiment(cfg)["two_sample"][0]
    assert row["mean_nw2sq"] < 1e-5
    assert row["ref_limit"] == math.inf


def test_two_sample_reference_column():
    cfg = ExperimentConfig(experiment="two_sample", seed=33, ns=(1000,),
                           reps=10, rho=0.6)
    row = run_experiment(cfg)["two_sample"][0]
    want = truncated_second_moment(0.6, 1.0 / 4000.0).value
    assert row["ref_truncated"] == pytest.approx(want, rel=1e-12)
    assert row["ref_delta"] == 1.0 / 4000.0
    assert math.isnan(row["norm_indep"])


def test_limit_compare_tables():
    cfg = ExperimentConfig(experiment="limit_compare", seed=34, ns=(2000,),
                           reps=60, rho=0.6, m=64, delta=1e-3)
    tables = run_experiment(cfg)
    assert set(tables) == {"limit", "ks"}
    mechs = [r["mechanism"] for r in tables["limit"]]
    assert "gaussian_grid" in mechs and "empirical_coupling" in mechs
    assert any(m.startswith("finite_n_") for m in mechs)
    labels = {(r["label_a"], r["label_b"]) for r in tables["ks"]}
    assert len(labels) == 3
    for r in tables["ks"]:
        assert 0.0 <= r["ks_stat"] <= 1.0
        assert 0.0 <= r["p_value"] <= 1.0
    for r in tables["limit"]:
        assert set(r) >= {"rho", "mechanism", "m", "delta", "n_draws",
                          "seed", "mean", "variance", "q05", "q50", "q95"}


def test_expansions_and_integrals_and_moments_shapes():
    t1 = run_experiment(ExperimentConfig(experiment="expansions", seed=35))
    assert set(t1) == {"expansions"}
    kinds = {r["kind"] for r in t1["expansions"]}
    assert {"quantile", "h", "psi", "scaled_a=0.5", "scaled_a=2"} <= kinds

    t2 = run_experiment(ExperimentConfig(experiment="integrals", seed=36))
    assert set(t2) == {"integrals"}
    kinds2 = {r["kind"] for r in t2["integrals"]}
    assert {"bickel", "d1n", "truncated_second_moment",
            "limit_second_moment"} <= kinds2
    div = [r for r in t2["integrals"] if r["kind"] == "limit_second_moment"]
    assert div and all(r["value"] == math.inf for r in div)

    t3 = run_experiment(ExperimentConfig(experiment="moments", seed=37,
                                         ns=(10 ** 4,), reps=3000))
    rows = t3["moments"]
    assert {r["variant"] for r in rows} == {"as_stated", "shifted"}
    ks = {r["k"] for r in rows}
    assert ks == {0, 1, 2, 5}
    # both variants share the same Monte Carlo estimate per (n, k)
    by_nk = {}
    for r in rows:
        by_nk.setdefault((r["n"], r["k"]), set()).add(r["mc_mean"])
    assert all(len(v) == 1 for v in by_nk.values())


# --------------------------------------------------------------------------
# replication engine
# --------------------------------------------------------------------------

def _loop_w2sq(seed, domain, n, reps, rho=None):
    """The per-replication loop that ``replicate_w2sq`` replaced."""
    out = np.empty(reps)
    for rep in range(reps):
        g = substream(seed, domain, n, rep)
        if rho is None:
            z = np.sort(standard_normals(g, n))
            out[rep] = w2sq_vs_gaussian(SortedSample(z))
        else:
            xs, ys = correlated_normal_pairs(g, n, rho)
            out[rep] = w2sq_two_sample(SortedSample(np.sort(xs)),
                                       SortedSample(np.sort(ys)))
    return out


@pytest.mark.parametrize("rho", [None, 0.6])
@pytest.mark.parametrize("block_values, n", [
    # a 1024-value block keeps block +- 1 replications cheap at n = 1;
    # at n = 1500 (and at n = 70000 by default) every block is one row
    (2 ** 10, 1), (2 ** 10, 64), (2 ** 10, 1500),
    (streams._BLOCK_VALUES, 64), (streams._BLOCK_VALUES, 70000)])
def test_replicate_w2sq_matches_per_replication_loop(monkeypatch, rho,
                                                     block_values, n):
    monkeypatch.setattr(streams, "_BLOCK_VALUES", block_values)
    rows = streams._block_rows(n if rho is None else 2 * n)
    if n >= 1500:
        assert rows == 1
    for reps in sorted({1, rows - 1, rows + 1} - {0}):
        want = _loop_w2sq(77, "two_sample", n, reps, rho).tobytes()
        for workers in (1, 2, 3):
            got = replicate_w2sq(77, "two_sample", n, reps, rho=rho,
                                 workers=workers)
            assert got.tobytes() == want, (reps, workers)


def _thread_kind():
    return ("main" if threading.current_thread() is threading.main_thread()
            else "pool")


def _poisoning(fill, kinds, row, col):
    """``fill`` (``streams._keyed_normals``) that writes a NaN at ``(row,
    col)`` of each block it fills on a thread whose kind is in ``kinds``,
    if the block has that row."""
    def poisoned(states, out):
        fill(states, out)
        if _thread_kind() in kinds and row < len(out):
            out[row, col] = np.nan
        return out
    return poisoned


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_replicate_w2sq_checks_every_block(monkeypatch, workers):
    # ten rows of n = 16 in blocks of 3, 3 and 4 rows: only the last block
    # is broken, so the checks must run on a block past the first
    monkeypatch.setattr(streams, "_BLOCK_VALUES", 64)
    assert streams._balanced_spans(10, streams._block_rows(16)) == \
        [(0, 3), (3, 6), (6, 10)]
    sort_rows = experiments._sort_rows
    # unsorted rows: the engine's in-place block sort skips the last block,
    # which leaves its rows as drawn
    with monkeypatch.context() as m:
        m.setattr(experiments, "_sort_rows",
                  lambda block: block if len(block) == 4 else sort_rows(block))
        with pytest.raises(DomainError, match="nondecreasing"):
            replicate_w2sq(5, "generic", 16, 10, workers=workers)
    # a NaN in the fourth row of a block, which only the last block has
    monkeypatch.setattr(streams, "_keyed_normals", _poisoning(
        streams._keyed_normals, ("main", "pool"), 3, 7))
    with pytest.raises(DomainError, match="finite"):
        replicate_w2sq(5, "generic", 16, 10, workers=workers)


def _tracing(fill, seed, key, reps, started, nan_at=(), slow=0.0):
    """``fill`` (``streams._keyed_normals``) that appends the first
    replication of each block to ``started`` as its draw starts, writes a
    NaN into each block that starts at a replication in ``nan_at``, and
    sleeps ``slow`` seconds in every other block."""
    first = {int(words[0]): rep for rep, words in
             enumerate(streams._stream_states(seed, key, range(reps)))}

    def traced(states, out):
        start = first[int(states[0, 0])]
        started.append(start)
        fill(states, out)
        if start in nan_at:
            out[0, 3] = np.nan
        else:
            time.sleep(slow)
        return out
    return traced


@pytest.mark.parametrize("nan_on", ["main", "pool"])
def test_replicate_w2sq_error_on_either_thread_raises(monkeypatch, nan_on):
    # seven blocks of 16 rows at n = 64: one worker runs every block inline
    # on the calling thread, two or three run them on the pool; either way a
    # NaN in the first, a middle or the last block raises, and every pool
    # thread has stopped by then
    monkeypatch.setattr(streams, "_BLOCK_VALUES", 2 ** 10)
    spans = streams._balanced_spans(100, streams._block_rows(64))
    assert len(spans) == 7
    fill = streams._keyed_normals
    before = threading.active_count()
    for workers in ((1,) if nan_on == "main" else (2, 3)):
        for start, _ in (spans[0], spans[3], spans[-1]):
            started, kinds = [], set()
            traced = _tracing(fill, 5, ("generic", 64), 100, started,
                              nan_at=(start,))

            def fill_on(states, out):
                kinds.add(_thread_kind())
                return traced(states, out)

            monkeypatch.setattr(streams, "_keyed_normals", fill_on)
            with pytest.raises(DomainError, match="finite"):
                replicate_w2sq(5, "generic", 64, 100, workers=workers)
            assert start in started
            assert kinds == {nan_on}, (workers, start, kinds)
            assert threading.active_count() == before, (workers, start)


def test_replicate_w2sq_stops_drawing_after_a_failed_block(monkeypatch):
    # 63 blocks; the first fails at once while every other block is slow, so
    # the error cancels the blocks not yet started: besides the failed block,
    # at most one per pool thread starts
    monkeypatch.setattr(streams, "_BLOCK_VALUES", 2 ** 10)
    assert -(-1000 // streams._block_rows(64)) == 63
    fill = streams._keyed_normals
    for workers in (2, 3):
        started = []
        monkeypatch.setattr(streams, "_keyed_normals", _tracing(
            fill, 5, ("generic", 64), 1000, started, nan_at=(0,),
            slow=0.05))
        with pytest.raises(DomainError, match="finite"):
            replicate_w2sq(5, "generic", 64, 1000, workers=workers)
        assert 0 in started and len(started) - 1 <= workers, started


def test_replicate_w2sq_stress_more_workers_than_cores(monkeypatch):
    # 100 four-row blocks through 5 workers with a 1 us switch interval:
    # a block lost, finished twice or written to the wrong slot changes
    # the bytes
    monkeypatch.setattr(streams, "_BLOCK_VALUES", 64)  # 4 rows at n = 16
    want = replicate_w2sq(9, "generic", 16, 400, workers=1).tobytes()
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: got.append(
            replicate_w2sq(9, "generic", 16, 400, workers=5)))
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert got[0].tobytes() == want


def test_replicate_w2sq_bounds_its_threads(monkeypatch):
    pool_sizes = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(streams, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(streams, "_BLOCK_VALUES", 64)  # 4 rows at n = 16
    counts = []
    w2sq_rows = experiments._w2sq_rows

    def counting(*args):
        counts.append(threading.active_count())
        return w2sq_rows(*args)

    monkeypatch.setattr(experiments, "_w2sq_rows", counting)
    before = threading.active_count()
    # a pool of min(workers, blocks) threads, one task per block
    for workers, reps, threads in ((8, 12, 3), (2, 40, 2)):
        counts.clear()
        replicate_w2sq(5, "generic", 16, reps, workers=workers)
        assert pool_sizes.pop() == threads
        assert len(counts) == reps // 4 and max(counts) <= before + threads
    # one thread, at workers = 1 or with one block: no pool, no thread starts
    counts.clear()
    replicate_w2sq(5, "generic", 16, 12, workers=1)    # three blocks
    replicate_w2sq(5, "generic", 16, 1, workers=8)     # one block
    assert not pool_sizes and counts == [before] * 4


def test_replicate_w2sq_validation():
    for kwargs in (dict(n=0), dict(reps=0), dict(workers=0), dict(rho=1.0),
                   dict(rho=float("nan")), dict(domain="nope"),
                   dict(seed=-1), dict(n=8.5), dict(reps=True),
                   dict(workers=1.9), dict(seed=2.5), dict(seed=True),
                   dict(seed="7"), dict(rho="0.5"), dict(rho=False)):
        args = dict(seed=1, domain="generic", n=8, reps=2) | kwargs
        with pytest.raises(DomainError):
            replicate_w2sq(**args)


def _z_score(values, want):
    """Distance of ``values``' mean from ``want`` in standard errors."""
    return (values.mean() - want) / (values.std(ddof=1)
                                     / math.sqrt(values.size))


@pytest.mark.parametrize("rho", [0.6, -0.5, 0.95])
def test_two_sample_mean_at_one_pair(rho):
    # at n = 1, W2^2 = (X - Y)^2 with X - Y ~ N(0, 2(1 - rho))
    vals = replicate_w2sq(4, "two_sample", 1, 2 * 10 ** 5, rho=rho)
    assert abs(_z_score(vals, 2.0 * (1.0 - rho))) < 4.0


def test_one_sample_mean_at_one_point():
    # at n = 1, W2^2 = int (Z - Phi^-1(u))^2 du = Z^2 + 1, of mean 2
    vals = replicate_w2sq(4, "one_sample", 1, 2 * 10 ** 5)
    assert abs(_z_score(vals, 2.0)) < 4.0


def test_one_sample_mean_matches_exact_mean():
    vals = replicate_w2sq(4, "one_sample", 1000, 2 * 10 ** 4)
    assert abs(_z_score(vals, expected_one_sample_w2sq(1000) / 1000)) < 4.0


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="needs two CPUs for two BLAS threads")
@pytest.mark.parametrize("args, csv_name", [
    (["one-sample", "--n", "100000", "--reps", "2", "--seed", "7"],
     "one_sample.csv"),
    # correlated pairs, one 2000-wide row each, in three blocks and a pool
    (["two-sample", "--rho", "0.6", "--n", "1000", "--reps", "150",
      "--workers", "2", "--seed", "7"], "two_sample.csv"),
    (["limit-compare", "--rho", "0.6", "--m", "64", "--n", "2000",
      "--reps", "60", "--delta", "1e-3", "--seed", "34"], "limit.csv"),
    # a K_D factor of more than 128 columns, and the 200 draws in one
    # 200-row product with it
    (["limit-compare", "--rho", "0.6", "--m", "160", "--n", "2000",
      "--reps", "200", "--delta", "1e-3", "--seed", "34"], "limit.csv"),
], ids=["one_sample", "two_sample", "limit_compare",
        "limit_compare_two_panels"])
def test_csv_bytes_do_not_depend_on_blas_threads(tmp_path, args, csv_name):
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    bodies = []
    for threads in ("1", "2", "3"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        subprocess.run(
            [sys.executable, "-m", "w2gauss.cli", *args, "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300)
        bodies.append((out / csv_name).read_bytes())
    assert len(set(bodies)) == 1


# --------------------------------------------------------------------------
# deterministic serialization
# --------------------------------------------------------------------------

def _run_and_write(tmp, name, **kwargs):
    cfg = ExperimentConfig(out=str(tmp / name), **kwargs)
    paths = write_outputs(run_experiment(cfg), cfg.out)
    return {os.path.basename(p): open(p, "rb").read() for p in paths}


def test_worker_count_does_not_change_bytes(tmp_path):
    base = dict(experiment="one_sample", seed=40, ns=(64, 256), reps=12)
    a = _run_and_write(tmp_path, "w1", workers=1, **base)
    b = _run_and_write(tmp_path, "w4", workers=4, **base)
    assert a == b


def test_rerun_is_byte_identical(tmp_path):
    base = dict(experiment="two_sample", seed=41, ns=(128,), reps=10, rho=0.3)
    a = _run_and_write(tmp_path, "r1", **base)
    b = _run_and_write(tmp_path, "r2", **base)
    assert a == b


def test_csv_and_json_mirror(tmp_path):
    cfg = ExperimentConfig(experiment="one_sample", seed=42, ns=(32,), reps=5,
                           out=str(tmp_path / "mirror"))
    paths = write_outputs(run_experiment(cfg), cfg.out)
    csv_path = [p for p in paths if p.endswith(".csv")][0]
    json_path = [p for p in paths if p.endswith(".json")][0]
    lines = open(csv_path).read().split("\n")
    header = lines[0].split(",")
    doc = json.loads(open(json_path).read())
    assert doc["columns"] == header
    assert len(doc["rows"]) == len(lines) - 2        # header + trailing \n
    # float cells round-trip exactly through repr
    row = doc["rows"][0]
    cells = lines[1].split(",")
    for col, cell in zip(header, cells):
        if isinstance(row[col], float):
            assert float(cell) == row[col]


def test_json_encodes_nonfinite_as_strings(tmp_path):
    cfg = ExperimentConfig(experiment="integrals", seed=43,
                           out=str(tmp_path / "nf"))
    paths = write_outputs(run_experiment(cfg), cfg.out)
    doc = json.loads(open([p for p in paths if p.endswith(".json")][0]).read())
    vals = [r["value"] for r in doc["rows"]
            if r["kind"] == "limit_second_moment"]
    assert vals and all(v == "inf" for v in vals)


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def test_cli_runs_and_prints_paths(tmp_path, capsys):
    out = tmp_path / "cli_one"
    rc = main(["one-sample", "--n", "64", "--reps", "6", "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out.strip().split("\n")
    assert sorted(os.path.basename(p) for p in printed) == \
        ["one_sample.csv", "one_sample.json"]
    assert all(os.path.exists(p) for p in printed)


def test_cli_limit_compare_bytes_do_not_depend_on_workers(tmp_path, capsys):
    # 300 draws run as two Gaussian blocks (m = 256) and fifty empirical
    # blocks, so both limit-law mechanisms go through the worker pool
    bodies = []
    for workers in (1, 3):
        out = tmp_path / f"w{workers}"
        rc = main(["limit-compare", "--n", "2000", "--reps", "300", "--rho",
                   "0.6", "--m", "256", "--seed", "19", "--workers",
                   str(workers), "--out", str(out)])
        assert rc == 0
        bodies.append({name: (out / name).read_bytes()
                       for name in ("limit.csv", "ks.csv")})
    capsys.readouterr()
    assert bodies[0] == bodies[1]


def test_cli_requires_seed(tmp_path, capsys):
    rc = main(["one-sample", "--n", "64", "--reps", "2",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    doc = json.loads(err)
    assert doc["error"] == "DomainError"
    assert "seed" in doc["message"]


def test_cli_config_file_and_precedence(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment": "two_sample", "seed": 11, "ns": [128], "reps": 4,
        "rho": 0.3, "out": str(tmp_path / "file_out")}))
    rc = main(["two-sample", "--config", str(cfg_path), "--rho", "0.7",
               "--out", str(tmp_path / "cli_out")])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads(open(tmp_path / "cli_out" / "two_sample.json").read())
    assert doc["rows"][0]["rho"] == 0.7          # CLI beats file
    assert not os.path.exists(tmp_path / "file_out")
    # a null ``n`` is absent: the file's ``ns`` stands
    cfg_path.write_text(json.dumps({"seed": 11, "n": None, "ns": [128],
                                    "reps": 2, "rho": 0.3}))
    rc = main(["two-sample", "--config", str(cfg_path),
               "--out", str(tmp_path / "null_n")])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads(open(tmp_path / "null_n" / "two_sample.json").read())
    assert [r["n"] for r in doc["rows"]] == [128]


def test_cli_subcommand_config_mismatch(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "two_sample", "seed": 3}))
    rc = main(["one-sample", "--config", str(cfg_path), "--n", "32",
               "--reps", "2", "--out", str(tmp_path / "y")])
    assert rc == 2
    assert "experiment" in json.loads(capsys.readouterr().err)["message"]


def test_cli_unknown_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "one_sample", "seed": 3,
                                    "bogus_key": 5}))
    rc = main(["one-sample", "--config", str(cfg_path), "--n", "32",
               "--reps", "2", "--out", str(tmp_path / "z")])
    assert rc == 2
    assert "bogus_key" in json.loads(capsys.readouterr().err)["message"]


def test_cli_rho_zero_guard(tmp_path, capsys):
    rc = main(["limit-compare", "--n", "256", "--reps", "4", "--rho", "0",
               "--seed", "5", "--out", str(tmp_path / "q")])
    assert rc == 2
    assert "divergence" in json.loads(capsys.readouterr().err)["message"]


def test_limit_compare_needs_reps_for_its_ks_tests(tmp_path, capsys,
                                                   monkeypatch):
    # the KS rows need 25 draws a sample: fewer reps are refused by the
    # config, before any draw and before any file is written
    def no_draw(*args):
        raise AssertionError("drew normals")

    monkeypatch.setattr(streams, "_keyed_normals", no_draw)
    ok = dict(experiment="limit_compare", seed=3, ns=(2000,), rho=0.6, m=16)
    ExperimentConfig(**ok, reps=25)
    with pytest.raises(DomainError, match="reps >= 25"):
        ExperimentConfig(**ok, reps=24)
    out = tmp_path / "few"
    rc = main(["limit-compare", "--rho", "0.6", "--m", "16", "--n", "2000",
               "--reps", "10", "--seed", "3", "--out", str(out)])
    assert rc == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "DomainError" and "reps" in doc["message"]
    assert not os.path.exists(out)


@pytest.mark.parametrize("delta", ["0.5", "0", "1e-300", "abc"])
def test_two_sample_refuses_delta_before_drawing(tmp_path, capsys,
                                                 monkeypatch, delta):
    # delta sets only the reference mean, computed after the draws: the
    # config refuses it before any draw and before any file is written;
    # a number comes as a flag, a string only from a config file
    def no_draw(*args):
        raise AssertionError("drew normals")

    monkeypatch.setattr(streams, "_keyed_normals", no_draw)
    if delta == "abc":
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"delta": delta}))
        given = ["--config", str(cfg_path)]
    else:
        given = ["--delta", delta]
    out = tmp_path / "bad"
    rc = main(["two-sample", "--rho", "0.6", "--n", "2000", "--reps", "3000",
               "--seed", "3", "--out", str(out), *given])
    assert rc == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "DomainError" and "delta" in doc["message"]
    assert not os.path.exists(out)


def test_cli_counts_must_be_integers(tmp_path, capsys):
    # a count is never truncated: 2.5 replications, 1.9 workers, seed 7.9
    # and n = 64.9 are errors; integral floats such as JSON's 4.0 are ints
    cfg_path = tmp_path / "cfg.json"
    for key, value in (("reps", 2.5), ("reps", True), ("workers", 1.9),
                       ("seed", 7.9), ("n", [64.9])):
        cfg_path.write_text(json.dumps({"seed": 7, "reps": 4, key: value}))
        argv = ["one-sample", "--config", str(cfg_path),
                "--out", str(tmp_path / "bad")]
        rc = main(argv if key == "n" else argv + ["--n", "64"])
        assert rc == 2, (key, value)
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "DomainError" and key in doc["message"]
    rc = main(["one-sample", "--n", "64.9", "--reps", "4", "--seed", "7",
               "--out", str(tmp_path / "bad")])
    assert rc == 2
    assert "64.9" in json.loads(capsys.readouterr().err)["message"]
    assert not os.path.exists(tmp_path / "bad")
    cfg_path.write_text(json.dumps({"seed": 7, "reps": 4.0}))
    rc = main(["one-sample", "--config", str(cfg_path), "--n", "1e2",
               "--out", str(tmp_path / "ok")])
    assert rc == 0
    capsys.readouterr()
    header, row = open(tmp_path / "ok" / "one_sample.csv").read().split()
    cells = dict(zip(header.split(","), row.split(",")))
    assert (cells["n"], cells["reps"], cells["seed"]) == ("100", "4", "7")


def test_cli_comma_separated_ns(tmp_path, capsys):
    out = tmp_path / "multi"
    rc = main(["one-sample", "--n", "16,64", "--reps", "3", "--seed", "8",
               "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads(open(out / "one_sample.json").read())
    assert [r["n"] for r in doc["rows"]] == [16, 64]


# --------------------------------------------------------------------------
# one schema: ExperimentConfig's fields are the knobs
# --------------------------------------------------------------------------

def _subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_parser_options_are_the_config_fields():
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for name in _subparsers():
        dests = set(vars(build_parser().parse_args([name])))
        # --n spells ns, --config names a file, the subcommand the experiment
        assert dests - {"subcommand", "config", "n"} == \
            fields - {"experiment", "ns"}, name


def test_cli_rejects_gamma_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["one-sample", "--gamma", "2", "--n", "32", "--reps", "2",
              "--seed", "3", "--out", str(tmp_path / "g")])
    assert exc.value.code == 2
    assert "--gamma" in capsys.readouterr().err


def test_cli_rejects_gamma_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"gamma": 2}))
    rc = main(["one-sample", "--config", str(cfg_path), "--n", "32",
               "--reps", "2", "--seed", "3", "--out", str(tmp_path / "g")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "DomainError"
    assert "gamma" in doc["message"]


def test_readme_flags_match_parser():
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "README.md")).read()
    paragraph = readme[readme.index("Flags:"):].split("\n\n")[0]
    documented = set(re.findall(r"--[A-Za-z][\w-]*", paragraph))
    for name, sub in _subparsers().items():
        options = {s for a in sub._actions for s in a.option_strings
                   if s.startswith("--")} - {"--help"}
        assert documented == options, name
