"""Deterministic, splittable random streams and variate generation.

Every stochastic routine in the package draws from a counter-derived
Philox substream keyed by ``(master seed, domain label, indices...)``.
Distinct keys give statistically independent streams, and a replication's
stream depends only on its own index — never on scheduling or worker
count — so parallel runs are byte-reproducible.

Normal variates are produced by inverse-cdf transform of open-interval
uniforms, so a single audited quantile path feeds all samplers, and
correlated pairs are exact via ``Y = rho X + sqrt(1-rho^2) Z``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri

from .errors import DomainError

__all__ = [
    "DOMAINS",
    "substream",
    "uniforms_open",
    "standard_normals",
    "correlated_normal_pairs",
]

# stable numeric labels for stream domains; never renumber, only append
DOMAINS = {
    "one_sample": 1,
    "two_sample": 2,
    "limit_compare": 3,
    "expansions": 4,
    "integrals": 5,
    "moments": 6,
    "limit_gaussian": 7,
    "limit_empirical": 8,
    "extreme": 9,
    "generic": 10,
}

_TWO53 = float(2 ** 53)


def _key_ints(parts) -> tuple[int, ...]:
    out = []
    for p in parts:
        if isinstance(p, str):
            if p not in DOMAINS:
                raise DomainError(f"unknown stream domain {p!r}")
            out.append(DOMAINS[p])
        else:
            q = int(p)
            if q < 0:
                raise DomainError("stream key indices must be nonnegative")
            out.append(q)
    return tuple(out)


def substream(master_seed: int, *key) -> np.random.Generator:
    """Independent Philox generator for ``(master_seed, *key)``.

    ``key`` elements are nonnegative integers or registered domain names;
    the pair (seed, key) fully determines the stream.
    """
    seed = int(master_seed)
    if seed < 0:
        raise DomainError("master seed must be a nonnegative integer")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=_key_ints(key))
    return np.random.Generator(np.random.Philox(ss))


def uniforms_open(rng: np.random.Generator, size) -> np.ndarray:
    """Uniforms strictly inside (0, 1): ``(k + 1/2) / 2^53`` on 53-bit k."""
    k = rng.integers(0, 2 ** 53, size=size, dtype=np.int64)
    return (k + 0.5) / _TWO53


def _normals_inplace(u: np.ndarray) -> np.ndarray:
    """Overwrite open uniforms with their standard-normal quantiles."""
    return ndtri(u, out=u)


def standard_normals(rng: np.random.Generator, size) -> np.ndarray:
    """Standard normals by inverse-cdf transform of open uniforms."""
    return _normals_inplace(uniforms_open(rng, size))


def _pair_rho(rho) -> float:
    """``float(rho)``, or ``DomainError`` unless it is finite with |rho| < 1."""
    try:
        rho = float(rho)
    except (TypeError, ValueError):
        raise DomainError(f"correlated pairs need a real rho, got {rho!r}")
    if not (math.isfinite(rho) and abs(rho) < 1):
        raise DomainError(f"correlated pairs need |rho| < 1, got {rho!r}")
    return rho


def _correlate_inplace(x: np.ndarray, z: np.ndarray, rho: float) -> np.ndarray:
    """``Y = rho X + sqrt(1-rho^2) Z`` for independent normals, over ``z``."""
    z *= math.sqrt(1.0 - rho * rho)
    z += rho * x
    return z


def correlated_normal_pairs(rng: np.random.Generator, size, rho):
    """Pairs ``(X, Y)`` with correlation rho: ``Y = rho X + sqrt(1-rho^2) Z``.

    ``rho`` may be a float or anything float() accepts (e.g. a
    Correlation); |rho| < 1 is required.  X's normals are drawn first,
    then Z's.
    """
    rho = _pair_rho(rho)
    x = standard_normals(rng, size)
    z = standard_normals(rng, size)
    return x, _correlate_inplace(x, z, rho)
