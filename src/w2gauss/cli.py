"""Command-line entry point: ``w2gauss <experiment> --seed S [options]``.

Subcommands: ``one-sample``, ``two-sample``, ``limit-compare``,
``expansions``, ``integrals``, ``moments``.  Options may also come from a
JSON config file (``--config``); precedence is CLI > file > defaults.
The seed is always explicit — there is no wall-clock fallback.  On
success the exit code is 0 and the written paths are listed on stdout;
on failure the exit code is nonzero and stderr carries a single
machine-readable JSON error line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import DomainError
from .experiments import (EXPERIMENTS, ExperimentConfig, run_experiment,
                          write_outputs)

_SUBCOMMANDS = {e.replace("_", "-"): e for e in EXPERIMENTS}

# the knobs are the ExperimentConfig fields; ``n`` is the file's (and the
# command line's) spelling of ``ns``, and the subcommand names the experiment
_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))
_FILE_KEYS = frozenset(_FIELDS) | {"n"}
_FLAG_KEYS = tuple(k for k in _FIELDS if k not in ("experiment", "ns"))


def _parse_ns(text: str) -> tuple[float, ...]:
    # ExperimentConfig turns each entry into an int or rejects it
    try:
        parts = tuple(float(p) for p in str(text).split(",") if p != "")
    except ValueError:
        raise DomainError(f"--n must be an integer or comma list, got {text!r}")
    if not parts:
        raise DomainError("--n must name at least one sample size")
    return parts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="w2gauss",
        description="Seeded Monte Carlo experiments for Gaussian "
                    "2-Wasserstein asymptotics.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--n", help="sample size, or comma list of sizes")
        p.add_argument("--reps", type=int, help="Monte Carlo replications")
        p.add_argument("--rho", type=float, help="correlation in (-1, 1)")
        p.add_argument("--seed", type=int,
                       help="explicit RNG seed (required; no clock default)")
        p.add_argument("--workers", type=int,
                       help="worker threads (never changes any number)")
        p.add_argument("--config",
                       help="JSON config file; CLI flags override it")
        p.add_argument("--out", help="output directory for CSV/JSON reports")
        p.add_argument("--m", type=int, help="limit-law grid size")
        p.add_argument("--delta", type=float,
                       help="grid truncation (default 1/(4n))")
        p.add_argument("--m-sample", type=int,
                       help="empirical-coupling sample size")
        p.add_argument("--C", type=float,
                       help="constant C of d1n's cut K = floor(C (log n)"
                            "^theta) in the integrals runner")
        p.add_argument("--theta", type=float,
                       help="exponent theta in (1, 2] of d1n's cut in the "
                            "integrals runner")
        p.add_argument("--divergence-demo", action="store_true", default=None,
                       help="allow rho = 0 sampling as a divergence demo")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config file {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise DomainError(f"config file {path!r} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise DomainError("config file must hold a single JSON object")
    unknown = set(doc) - _FILE_KEYS
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    return doc


def _assemble(args: argparse.Namespace) -> ExperimentConfig:
    experiment = _SUBCOMMANDS[args.subcommand]
    merged: dict = {}
    if args.config:
        merged.update(_load_config_file(args.config))
    for key in _FLAG_KEYS:
        val = getattr(args, key)
        if val is not None:
            merged[key] = val
    if args.n is not None:
        merged["n"] = args.n
    if "experiment" in merged and merged["experiment"] != experiment:
        raise DomainError(
            f"config file names experiment {merged['experiment']!r} but the "
            f"subcommand is {args.subcommand!r}")
    merged["experiment"] = experiment

    # ``n`` beats ``ns``; ExperimentConfig checks that each entry is an int
    ns = merged.pop("ns", None)
    n = merged.pop("n", None)
    if n is None:
        n = ns
    if n is not None:
        merged["ns"] = _parse_ns(n) if isinstance(n, str) else (
            tuple(n) if isinstance(n, (list, tuple)) else (n,))
    if "seed" not in merged:
        raise DomainError("an explicit --seed is required")
    return ExperimentConfig(**merged)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _assemble(args)
        tables = run_experiment(cfg)
        written = write_outputs(tables, cfg.out)
    except Exception as exc:  # contract: one JSON line on stderr, nonzero exit
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
