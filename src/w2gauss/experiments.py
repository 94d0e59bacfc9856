"""Seeded Monte Carlo experiment runners with CSV/JSON reporting.

Each runner consumes an :class:`ExperimentConfig` and returns named row
tables; :func:`write_outputs` serializes them.  Reproducibility contract:
identical ``(config, seed)`` produce byte-identical CSV bodies across
runs and across worker counts — every replication reads its own
counter-derived substream keyed ``(seed, domain, n, rep)`` and writes to
a preallocated slot, so scheduling cannot reorder or perturb anything.
Every row carries ``(seed, reps, config_hash)`` for provenance.

All seeded replications, in the runners, the release gate and the demos,
go through one loop, :func:`streams._replicate`.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os

import numpy as np

from .errors import DomainError
from .extremes import VARIANTS, extreme_mean, sample_extreme
from .integrals import (bickel_integral, d1n, second_moment_windows,
                        truncated_second_moment)
from .limitlaw import (_KS_MIN_SIZE, MECHANISMS, _draw_summary, build_grid,
                       ks_two_sample, sample_limit_law)
from .special import (as_correlation, h_tail_expansion, psi, psi_expansion,
                      quantile_tail_expansion, scaled_tail, std_normal_quantile)
from .streams import _integer, _pairs_inplace, _replicate, _stream_states
from .wasserstein import _cell_tables, _check_sorted_rows, _w2sq_rows

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "replicate_w2sq",
    "run_one_sample",
    "run_two_sample",
    "run_limit_compare",
    "run_expansions",
    "run_integrals",
    "run_moments",
    "run_experiment",
    "write_outputs",
]

EXPERIMENTS = ("one_sample", "two_sample", "limit_compare",
               "expansions", "integrals", "moments")

_NEEDS_RHO = ("two_sample", "limit_compare")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; ``seed`` is always explicit.

    The fields are the one list of knobs: the CLI flags, the config-file
    keys and the :meth:`config_hash` payload all derive from them.
    """

    experiment: str
    seed: int
    ns: tuple[int, ...] = ()
    reps: int = 1
    rho: float | None = None
    workers: int = 1
    m: int = 512
    delta: float | None = None          # None -> 1/(4n) where a grid is used
    m_sample: int = 10 ** 4
    C: float = 1.0
    theta: float = 2.0
    divergence_demo: bool = False
    out: str = "results"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise DomainError(
                f"experiment must be one of {EXPERIMENTS}, "
                f"got {self.experiment!r}")
        for name, least in (("seed", 0), ("reps", 1), ("workers", 1),
                            ("m", 16), ("m_sample", 10 ** 4)):
            object.__setattr__(self, name,
                               _integer(name, getattr(self, name), least))
        if self.seed >= 2 ** 64:
            raise DomainError("seed must be an explicit unsigned 64-bit int")
        ns = tuple(_integer("n", n, 1) for n in self.ns)
        object.__setattr__(self, "ns", ns)
        if self.experiment in _NEEDS_RHO:
            if self.rho is None:
                raise DomainError(f"{self.experiment} requires rho")
            as_correlation(self.rho)  # range check
        if self.experiment == "limit_compare" and float(self.rho) == 0.0 \
                and not self.divergence_demo:
            raise DomainError(
                "limit_compare at rho = 0 has no finite limit law; pass "
                "divergence_demo to run it as a divergence demonstration")
        if self.experiment == "limit_compare" and self.reps < _KS_MIN_SIZE:
            raise DomainError(
                f"limit_compare needs reps >= {_KS_MIN_SIZE}: its KS tests "
                f"compare samples of reps draws, got {self.reps}")
        if self.experiment in ("one_sample", "two_sample", "limit_compare") \
                and not ns:
            raise DomainError(f"{self.experiment} requires at least one n")

    def config_hash(self) -> str:
        """12-hex-digit digest of every field but ``workers`` and ``out``.

        Those two are excluded: they must not change any reported number.
        """
        payload = dataclasses.asdict(self)
        del payload["workers"], payload["out"]
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


# --------------------------------------------------------------------------
# replication engine
# --------------------------------------------------------------------------

def _sort_rows(block: np.ndarray) -> np.ndarray:
    """Sort ``block`` in place along its last axis; returns ``block``."""
    block.sort(axis=-1)
    return block


def replicate_w2sq(seed: int, domain: str, n: int, reps: int,
                   rho: float | None = None, workers: int = 1) -> np.ndarray:
    """``W_2^2`` of replications ``0 .. reps-1``, one value per replication.

    Replication ``rep`` draws a sample of size ``n`` from
    ``substream(seed, domain, n, rep)``: with ``rho=None`` standard normals,
    scored by :func:`w2sq_vs_gaussian` against N(0, 1); otherwise
    correlated pairs as in :func:`correlated_normal_pairs`, scored by
    :func:`w2sq_two_sample`.  The values are bit-for-bit those of that
    per-replication loop, at every ``workers``.

    The SFC64 states of all ``reps`` substreams are derived up front in
    one vectorised pass (:func:`streams._stream_states`), and each
    replication's normals are filled straight from its state, one row of
    ``n`` (or ``2n`` for pairs: X's, then Z's) per replication.
    :func:`streams._replicate` runs the block loop, finishing each block in
    place: correlation (pairs only), sort (:func:`_sort_rows`), sortedness
    check and W2 reduction.  Each block's W2 values are one row-wise
    reduction (:func:`wasserstein._w2sq_rows`) of the rank-wise gaps:
    ``Z - m`` against the cell means of :func:`wasserstein._cell_tables`,
    or ``X - Y`` for pairs.
    """
    n, reps, workers = (_integer("n", n, 1), _integer("reps", reps, 1),
                        _integer("workers", workers, 1))
    pairs = rho is not None
    if pairs:
        rho = as_correlation(rho).rho
    else:
        m, _, within = _cell_tables(n)

    def finish(z: np.ndarray) -> np.ndarray:
        # one row per replication; the block is the loop's buffer: every
        # stage overwrites it
        if pairs:
            xy = _sort_rows(_pairs_inplace(z, rho))
            _check_sorted_rows(xy)
            return _w2sq_rows(np.subtract(xy[:, 0], xy[:, 1], out=xy[:, 0]))
        _check_sorted_rows(_sort_rows(z))
        return _w2sq_rows(np.subtract(z, m, out=z), within)

    states = _stream_states(seed, (domain, n), range(reps))
    return _replicate(states, 2 * n if pairs else n, finish, workers)


def _loglog(n: int) -> float:
    if n <= 1 or math.log(n) <= 1.0:
        return math.nan
    return math.log(math.log(n))


# --------------------------------------------------------------------------
# runners
# --------------------------------------------------------------------------

def _provenance(cfg: ExperimentConfig, experiment: str) -> dict:
    """The ``seed, reps, config_hash`` columns of every row of a runner."""
    if cfg.experiment != experiment:
        raise DomainError(f"config experiment must be {experiment}")
    return {"seed": cfg.seed, "reps": cfg.reps,
            "config_hash": cfg.config_hash()}


def run_one_sample(cfg: ExperimentConfig) -> dict[str, list[dict]]:
    """Mean one-sample distances with their Theorem-1 normalizations."""
    provenance = _provenance(cfg, "one_sample")
    rows = []
    for n in cfg.ns:
        w2sq = replicate_w2sq(cfg.seed, "one_sample", n, cfg.reps,
                              workers=cfg.workers)
        w2 = np.sqrt(w2sq)
        ll = _loglog(n)
        mean_sq = float(w2sq.mean())
        se_sq = float(w2sq.std(ddof=1) / math.sqrt(cfg.reps)) \
            if cfg.reps > 1 else 0.0
        mean_w2 = float(w2.mean())
        se_w2 = float(w2.std(ddof=1) / math.sqrt(cfg.reps)) \
            if cfg.reps > 1 else 0.0
        rows.append({
            "n": n, "mean_w2sq": mean_sq, "se_w2sq": se_sq,
            "mean_w2": mean_w2, "se_w2": se_w2,
            "ratio": n * mean_sq / ll,
            "root_ratio": math.sqrt(n / ll) * mean_w2 if ll == ll else math.nan,
            "centered": n * mean_sq - ll, **provenance,
        })
    return {"one_sample": rows}


def _two_sample_draws(cfg: ExperimentConfig, n: int, domain: str) -> np.ndarray:
    """Draws of ``n W_2^2(F_n, G_n)`` at ``cfg.rho``."""
    return n * replicate_w2sq(cfg.seed, domain, n, cfg.reps, rho=cfg.rho,
                              workers=cfg.workers)


def run_two_sample(cfg: ExperimentConfig) -> dict[str, list[dict]]:
    """Draws of ``n W_2^2(F_n, G_n)`` against the analytic references.

    ``ref_truncated`` is the finite truncated mean ``M(rho, 1/(4n))``;
    ``ref_limit`` is the delta -> 0 value, reported as ``inf`` because the
    integral diverges for every |rho| < 1 (the finite-n means keep
    growing with n accordingly).  For rho = 0, ``norm_indep`` reports
    ``n mean / (2 log log n)``.
    """
    provenance = _provenance(cfg, "two_sample")
    rho = float(cfg.rho)
    rows = []
    for n in cfg.ns:
        vals = _two_sample_draws(cfg, n, "two_sample")
        q05, q50, q95 = np.quantile(vals, [0.05, 0.50, 0.95])
        ll = _loglog(n)
        delta = cfg.delta if cfg.delta is not None else 1.0 / (4.0 * n)
        ref_trunc = truncated_second_moment(rho, delta).value
        rows.append({
            "rho": rho, "n": n, "mean_nw2sq": float(vals.mean()),
            "se_nw2sq": float(vals.std(ddof=1) / math.sqrt(cfg.reps))
            if cfg.reps > 1 else 0.0,
            "q05": float(q05), "q50": float(q50), "q95": float(q95),
            "ref_truncated": ref_trunc, "ref_delta": delta,
            "ref_limit": math.inf,
            "norm_indep": float(vals.mean()) / (2.0 * ll)
            if rho == 0.0 else math.nan, **provenance,
        })
    return {"two_sample": rows}


def run_limit_compare(cfg: ExperimentConfig) -> dict[str, list[dict]]:
    """Finite-n draws against both limit-law mechanisms, with KS rows."""
    provenance = _provenance(cfg, "limit_compare")
    rho = float(cfg.rho)
    limit_rows = []
    ks_rows = []
    for n in cfg.ns:
        delta = cfg.delta if cfg.delta is not None else 1.0 / (4.0 * n)
        grid = build_grid(cfg.m, delta)
        finite = _two_sample_draws(cfg, n, "limit_compare")
        samples = {f"finite_n_{n}": finite}
        # gaussian_grid, the BLAS stage, is drawn last: OpenBLAS's idle
        # threads spin after each matrix product and would slow the
        # empirical_coupling draws on the same cores
        draws = {mech: sample_limit_law(rho, grid, cfg.reps, mech, cfg.seed,
                                        m_sample=cfg.m_sample,
                                        divergence_demo=cfg.divergence_demo,
                                        workers=cfg.workers)
                 for mech in ("empirical_coupling", "gaussian_grid")}
        for mech in MECHANISMS:
            samples[mech] = draws[mech].values
            limit_rows.append(dict(draws[mech].summary(), **provenance))
        limit_rows.append(dict(
            _draw_summary(finite, rho, f"finite_n_{n}", cfg.m, delta,
                          cfg.seed), **provenance))
        pairs = [(f"finite_n_{n}", "gaussian_grid"),
                 (f"finite_n_{n}", "empirical_coupling"),
                 ("gaussian_grid", "empirical_coupling")]
        for la, lb in pairs:
            ks = ks_two_sample(samples[la], samples[lb])
            ks_rows.append({
                "label_a": la, "label_b": lb, "n_a": ks.n_a, "n_b": ks.n_b,
                "ks_stat": ks.statistic, "p_value": ks.p_value, **provenance,
            })
    return {"limit": limit_rows, "ks": ks_rows}


_EXPANSION_US = tuple(1.0 - 10.0 ** (-j) for j in range(3, 13))
_PSI_XS = (2.0, 3.0, 5.0, 8.0, 12.0, 20.0)
_SCALED_AS = (0.5, 2.0)


def run_expansions(cfg: ExperimentConfig) -> dict[str, list[dict]]:
    """Tail-expansion accuracy tables: exact vs asymptotic with ratios."""
    provenance = _provenance(cfg, "expansions")
    rows = []

    def add(kind: str, arg: float, exact: float, asym: float, order: float):
        rows.append({
            "kind": kind, "arg": arg, "exact": exact, "asymptotic": asym,
            "ratio": exact / asym if asym != 0 else math.nan,
            "error_order": order, **provenance,
        })

    for x in _PSI_XS:
        t = psi_expansion(x)
        add("psi", x, psi(x), t.value, t.relative_error_order)
    for u in _EXPANSION_US:
        t = quantile_tail_expansion(u)
        add("quantile", u, float(std_normal_quantile(u)), t.value,
            t.relative_error_order)
    for u in _EXPANSION_US:
        t = h_tail_expansion(u)
        exact = math.exp(-0.5 * float(std_normal_quantile(u)) ** 2) \
            / math.sqrt(2.0 * math.pi)
        add("h", u, exact, t.value, t.relative_error_order)
    for a in _SCALED_AS:
        for u in _EXPANSION_US:
            s = scaled_tail(a, u)
            add(f"scaled_a={a:g}", u, s.exact, s.asymptotic, s.ratio)
    return {"expansions": rows}


_INTEGRAL_NS = (1e4, 1e8, 1e16, 1e32)


def run_integrals(cfg: ExperimentConfig) -> dict[str, list[dict]]:
    """Certified singular-integral values, including divergence witnesses."""
    provenance = _provenance(cfg, "integrals")
    rows = []

    def add(kind: str, key: float, res=None, **override):
        row = {"kind": kind, "n_or_rho": key,
               "value": math.nan, "centered_or_ratio": math.nan,
               "error_estimate": math.nan, "evaluations": 0, **provenance}
        if res is not None:
            row.update(value=res.value, centered_or_ratio=res.centered_or_ratio,
                       error_estimate=res.abs_error_estimate,
                       evaluations=res.evaluations)
        row.update(override)
        rows.append(row)

    for n in _INTEGRAL_NS:
        add("bickel", n, bickel_integral(n))
    for n in _INTEGRAL_NS:
        add("d1n", n, d1n(n, C=cfg.C, theta=cfg.theta))
    rho = float(cfg.rho) if cfg.rho is not None else 0.6
    table = second_moment_windows(rho)
    for dlt, val, err, neval in zip(table["deltas"], table["values"],
                                    table["errors"], table["evaluations"]):
        add("truncated_second_moment", rho, value=val, centered_or_ratio=dlt,
            error_estimate=err, evaluations=neval)
    add("limit_second_moment", rho, value=math.inf,
        centered_or_ratio=table["slopes"][-1])
    return {"integrals": rows}


_MOMENT_KS = (0, 1, 2, 5)


def run_moments(cfg: ExperimentConfig) -> dict[str, list[dict]]:
    """Extreme-order-statistic predictions vs the exact Beta-draw oracle."""
    provenance = _provenance(cfg, "moments")
    ns = cfg.ns or (10 ** 6,)
    rows = []
    for n in ns:
        for k in _MOMENT_KS:
            mc = sample_extreme(n, k, cfg.reps, cfg.seed)
            for variant in VARIANTS:
                pred = extreme_mean(n, k, variant)
                rows.append({
                    "n": n, "k": k, "variant": variant,
                    "mean_pred": pred.mean_pred, "var_pred": pred.var_pred,
                    "mc_mean": mc.mean, "mc_mean_se": mc.se_mean,
                    "mc_var": mc.variance, "mc_var_se": mc.se_var,
                    # reps first: moments.csv orders reps, seed, config_hash
                    "reps": cfg.reps, **provenance,
                })
    return {"moments": rows}


_RUNNERS = {
    "one_sample": run_one_sample,
    "two_sample": run_two_sample,
    "limit_compare": run_limit_compare,
    "expansions": run_expansions,
    "integrals": run_integrals,
    "moments": run_moments,
}


def run_experiment(cfg: ExperimentConfig) -> dict[str, list[dict]]:
    """Dispatch to the runner named by ``cfg.experiment``."""
    return _RUNNERS[cfg.experiment](cfg)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def _cell(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # shortest round-trip decimal
    return str(v)


def _json_value(v):
    """Native JSON value; non-finite floats become strings."""
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(v, (bool, str)) or v is None:
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    return str(v)


def write_outputs(tables: dict[str, list[dict]], out_dir: str) -> list[str]:
    """Write each table as ``<name>.csv`` plus a mirroring ``<name>.json``.

    CSV bodies are byte-stable: fixed column order from the first row,
    ``\\n`` line endings, shortest round-trip float formatting.  The JSON
    mirror holds the same rows with native types.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, rows in tables.items():
        if not rows:
            continue
        cols = list(rows[0].keys())
        csv_path = os.path.join(out_dir, f"{name}.csv")
        with open(csv_path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(cols)
            for row in rows:
                w.writerow([_cell(row[c]) for c in cols])
        json_path = os.path.join(out_dir, f"{name}.json")
        clean = [{k: _json_value(v) for k, v in row.items()} for row in rows]
        with open(json_path, "w") as fh:
            json.dump({"table": name, "columns": cols, "rows": clean},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.extend([csv_path, json_path])
    return written
