"""Deterministic, splittable random streams and variate generation.

Every stochastic routine in the package draws from a counter-derived
Philox substream keyed by ``(master seed, domain label, indices...)``.
Distinct keys give statistically independent streams, and a replication's
stream depends only on its own index — never on scheduling or worker
count — so parallel runs are byte-reproducible.

:func:`substream` defines a stream: numpy's ``SeedSequence`` hashes the
key into a 128-bit Philox key.  Seeded replications need thousands of
streams per run, so :func:`_philox_keys` does that hashing for a whole
range of replication indices in one vectorised pass, and
:func:`_keyed_uniforms` re-keys one private ``Philox`` per replication
through a state dict of plain ints and fills each row straight from the
generator, giving the same uniforms :func:`uniforms_open` draws from the
same stream.  :func:`_replicate`, the one replication loop, hands blocks of
them to a caller's ``finish`` (W2 engine or limit law), which may overwrite
the block in place.

Normal variates are produced by inverse-cdf transform of open-interval
uniforms, so a single audited quantile path feeds all samplers, and
correlated pairs are exact via ``Y = rho X + sqrt(1-rho^2) Z``.
"""

from __future__ import annotations

import collections
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import ndtri

from .errors import DomainError
from .special import as_correlation

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

# open uniforms are (k + 1/2) / 2^53 for 53-bit k, clamped below 1
_HALF_ULP = 2.0 ** -54
_BELOW_ONE = 1.0 - 2.0 ** -53  # the largest double below 1

# numpy's SeedSequence hash constants (pool of four 32-bit words)
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _integer(name: str, value) -> int:
    """``value`` as an ``int``.

    An integral float (JSON's ``1e4``) converts; a bool, a fraction or
    anything else raises :class:`DomainError` rather than being truncated.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise DomainError(f"{name} must be an integer, got {value!r}")


def _master_seed(master_seed) -> int:
    seed = int(master_seed)
    if seed < 0:
        raise DomainError("master seed must be a nonnegative integer")
    return seed


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
    ss = np.random.SeedSequence(entropy=_master_seed(master_seed),
                                spawn_key=_key_ints(key))
    return np.random.Generator(np.random.Philox(ss))


def _words(q: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence reads from an int."""
    out = [q & _MASK32]
    while q := q >> 32:
        out.append(q & _MASK32)
    return out


class _HashMix:
    """SeedSequence's ``hashmix``: each call advances the hash constant."""

    def __init__(self, const: int, mult: int):
        self.const, self.mult = const, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = self.const * self.mult & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of a pool word ``x`` with a hashed word ``y``."""
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> np.uint32(16))


def _philox_keys(seed: int, key: tuple, reps: range) -> np.ndarray:
    """The ``(len(reps), 2)`` uint64 Philox keys of ``substream(seed, *key,
    rep)`` for every ``rep`` in ``reps = range(start, stop)``.

    Row ``i`` equals ``SeedSequence(entropy=seed, spawn_key=(*key, reps[i]))
    .generate_state(2, np.uint64)``, domains as ``DOMAINS`` numbers: numpy's
    pool-4 hash mixing, done in uint32 lanes, one lane per replication.  The
    entropy words of seed and key prefix (``(domain, n)`` for the W2 engine,
    ``(domain,)`` for the limit law) are the same in every lane and are mixed
    once; a rep at or above 2^32 adds a second word, so only those lanes mix it.
    """
    seed = _master_seed(seed)
    *prefix, _ = _key_ints((*key, reps.start))
    run = _words(seed)
    shared = np.array(run + [0] * (_POOL - len(run))
                      + [w for q in prefix for w in _words(q)],
                      dtype=np.uint32)[:, np.newaxis]
    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in shared[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))

    def absorb(pool, word):
        return [_mix(p, hashmix(word)) for p in pool]

    for word in shared[_POOL:]:
        pool = absorb(pool, word)
    rep = np.arange(reps.start, reps.stop, dtype=np.uint64)
    pool = absorb(pool, rep.astype(np.uint32))
    high = (rep >> np.uint64(32)).astype(np.uint32)
    if high.any():
        pool = [np.where(high != 0, two, one)
                for one, two in zip(pool, absorb(pool, high))]
    # generate_state(2, uint64): four hashed pool words, paired little-endian
    hashmix = _HashMix(_INIT_B, _MULT_B)
    state = np.empty((rep.size, _POOL), dtype="<u4")
    for i, p in enumerate(pool):
        state[:, i] = hashmix(p)
    return state.view("<u8").astype(np.uint64)


def _below_one(u: np.ndarray) -> np.ndarray:
    """Clamp open uniforms at ``1 - 2^-53``, in place.

    ``(k + 1/2) / 2^53`` rounds ties-to-even to exactly 1.0 at the one
    ``k = 2^53 - 1`` (probability 2^-53 per value), where ``ndtri`` would
    give ``+inf``; every other ``k`` already lies below 1 and is unchanged.
    """
    return np.minimum(u, _BELOW_ONE, out=u)


def _open_unit(k: np.ndarray) -> np.ndarray:
    """``(k + 1/2) / 2^53`` for 53-bit integers ``k``, clamped below 1.

    The cast is exact below 2^53 and the scaling by 2^-53 is exact, so
    the one rounding is that of ``k + 0.5``.
    """
    u = np.array(k, dtype=np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return _below_one(u)


def uniforms_open(rng: np.random.Generator, size) -> np.ndarray:
    """Uniforms strictly inside (0, 1): ``(k + 1/2) / 2^53`` on 53-bit k,
    at most ``1 - 2^-53``."""
    return _open_unit(rng.integers(0, 2 ** 53, size=size, dtype=np.int64))


def _keyed_uniforms(keys: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out[:, r]`` from the Philox stream keyed by ``keys[r]``.

    ``out`` is a float64 ``(parts, len(keys), n)`` array whose rows are
    contiguous.  Row ``r`` gets what ``parts`` calls of
    ``uniforms_open(g, n)`` give on that stream.  ``integers(0, 2**53)``
    turns each raw word ``w`` into ``k = w >> 11`` (Lemire's method never
    rejects on a power-of-two range), and ``Generator.random`` writes
    ``k * 2^-53`` from the same word, so each row is filled straight from
    the generator and the block finished in one pass that adds 2^-54
    (then :func:`_below_one`): ``k * 2^-53 + 2^-54`` rounds the same real
    number ``(2k + 1) 2^-54`` that ``(k + 1/2) / 2^53`` rounds, so the bits
    are equal.  One private Philox is re-keyed per row through a state
    dict of plain ints, with a zero counter and an empty buffer, as a
    freshly seeded one starts.
    """
    parts = out.shape[0]
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for r, key in enumerate(keys.tolist()):
        state["state"]["key"] = key
        bits.state = state
        for p in range(parts):
            gen.random(out=out[p, r])
    out += _HALF_ULP
    return _below_one(out)


def _normals_inplace(u: np.ndarray) -> np.ndarray:
    """Overwrite open uniforms with their standard-normal quantiles."""
    return ndtri(u, out=u)


def standard_normals(rng: np.random.Generator, size) -> np.ndarray:
    """Standard normals by inverse-cdf transform of open uniforms."""
    return _normals_inplace(uniforms_open(rng, size))


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
    rho = as_correlation(rho).rho
    x = standard_normals(rng, size)
    z = standard_normals(rng, size)
    return x, _correlate_inplace(x, z, rho)


_BLOCK_VALUES = 2 ** 17  # float64 values drawn per block (1 MiB)


def _block_rows(width: int, parts: int) -> int:
    """Rows per block: ``_BLOCK_VALUES`` values, at least one row."""
    return max(1, _BLOCK_VALUES // (width * parts))


def _replicate(keys: np.ndarray, parts: int, width: int, finish,
               workers: int) -> np.ndarray:
    """One value per key: ``finish(block)`` for each block of keyed uniforms.

    Row ``r`` of a ``(parts, rows, width)`` block holds ``parts`` calls of
    ``uniforms_open(g, width)`` on the stream of its key.  ``finish`` may
    overwrite the block: its buffer is drawn into again only after
    ``finish`` has returned, and the values it returns are copied out
    before that.  Blocks hold about 2^17 numbers (1 MiB), their sizes
    balanced to within one row: a block of a few rows could send a caller's
    matrix product to another BLAS kernel, with other rounding.  The calling
    thread draws each block (:func:`_keyed_uniforms`); ``finish`` runs
    inline when ``workers == 1``.
    Otherwise a pool of ``threads = min(workers - 1, number of blocks)``
    threads finishes them: the calling thread submits each block it draws to
    the pool while at most ``threads + 1`` blocks are pending there, and
    otherwise finishes the block itself.  Before each draw it collects the
    finished blocks at the head of the queue and keeps their buffers for
    reuse, so at most ``workers + 2`` block buffers exist.  Once every
    block is drawn, the calling thread finishes each pending block the pool
    has not started, newest first, while the pool works from the oldest.
    An error in a block raises here, wherever the block was finished: from
    the pool, before the next draw once the blocks ahead of it are done.
    It cancels the blocks still queued, and raises after every pool thread
    has stopped.
    """
    count = len(keys)
    blocks = -(-count // _block_rows(width, parts))
    spans = [(count * b // blocks, count * (b + 1) // blocks)
             for b in range(blocks)]
    shape = (parts, -(-count // blocks), width)
    out = np.empty(count)

    def draw(start: int, stop: int, buffer: np.ndarray) -> None:
        _keyed_uniforms(keys[start:stop], buffer[:, :stop - start])

    def run(start: int, stop: int, buffer: np.ndarray) -> None:
        out[start:stop] = finish(buffer[:, :stop - start])

    threads = min(workers - 1, blocks)
    if threads == 0:
        buffer = np.empty(shape)
        for span in spans:
            draw(*span, buffer)
            run(*span, buffer)
        return out

    # submitted blocks with their spans and buffers, oldest first, and the
    # buffers of finished blocks: a reused buffer saves a page fault per 4 KiB
    pending, free = collections.deque(), []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        try:
            for span in spans:
                while pending and pending[0][0].done():
                    future, _, buffer = pending.popleft()
                    future.result()
                    free.append(buffer)
                buffer = free.pop() if free else np.empty(shape)
                draw(*span, buffer)
                if len(pending) <= threads + 1:
                    pending.append((pool.submit(run, *span, buffer), span,
                                    buffer))
                else:
                    run(*span, buffer)
                    free.append(buffer)
            # all drawn: the pool takes queued blocks from the head, the
            # calling thread takes those the pool has not started from the tail
            for future, span, buffer in reversed(pending):
                if future.cancel():
                    run(*span, buffer)
                else:
                    future.result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return out
