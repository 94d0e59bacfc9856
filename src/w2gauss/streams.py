"""Deterministic, splittable random streams and variate generation.

Every stochastic routine in the package draws from an SFC64 substream
seeded by ``(master seed, domain label, indices...)``.  Distinct keys give
independent streams in the sense numpy documents for ``SeedSequence``
spawning: each key is hashed into its own 192-bit seed, and each stream
has a period of at least 2^64.  Unlike Philox, where each key selects a
distinct bijection, distinct SFC64 streams are not disjoint by
construction; overlap between them is improbable, not impossible.  A
replication's stream depends only on its own index — never on scheduling
or worker count — so parallel runs are byte-reproducible.

Every seeded draw takes its normals as one contiguous row of its stream:
a replication of ``n`` correlated pairs reads ``2n`` normals, X's ``n``,
then Z's ``n``, which are the values two ``standard_normals(g, n)`` calls
would give.  :func:`substream` defines a stream: numpy's ``SeedSequence``
hashes the key into three 64-bit words, which SFC64 runs through 12
warm-up rounds.  Seeded replications need thousands of streams per run, so
:func:`_stream_states` does that hashing and warm-up for a whole range of
replication indices in one vectorised pass, and :func:`_keyed_normals`
fills a ``(rows, width)`` block, one row per state, giving each row the
normals :func:`standard_normals` draws from the same stream.  Each thread
fills its rows from one private SFC64 generator, made on the thread's first
fill and kept in a module-level ``threading.local``: per row, the four state
words are written straight into the generator's C state through a view of
them, and the row is drawn.  When a thread's generator is made, known words
written through that view are read back through the ``state`` getter, so a
numpy whose SFC64 lays its state out otherwise raises at once.
:func:`_replicate`, the one replication loop, fills blocks of them and
hands each to a caller's ``finish`` (W2 engine or limit law), which may
overwrite the block in place; with more than one worker it maps these
block tasks over a thread pool, one block buffer per pool thread.

Normal variates are numpy's ``Generator.standard_normal``, the ziggurat of
Marsaglia & Tsang ("The Ziggurat Method for Generating Random Variables",
J. Stat. Softw. 5(8), 2000), which draws exact N(0, 1) variates; correlated
pairs are exact via ``Y = rho X + sqrt(1-rho^2) Z``.  ``ndtri`` stays the
quantile of every deterministic computation (cell tables, grids,
integrals); no random draw goes through it.  numpy's stream-compatibility
policy (NEP 19) does not cover ``Generator`` methods across numpy
versions, so the draws are byte-stable for a fixed numpy version.
"""

from __future__ import annotations

import ctypes
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
# ndtri is unused here but stays bound: perfbench/tracer.py rebinds it
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
# SFC64 seeds its first three words from SeedSequence and runs 12 rounds
_SEED_WORDS = 3
_SFC64_WARMUP = 12


def _integer(name: str, value, least: int | None = None) -> int:
    """``value`` as an ``int``, at least ``least`` when that is given.

    The package's one check of a seed, stream index or count.  An integral
    float (JSON's ``1e4``) converts; a bool, a fraction, a string or
    anything else raises :class:`DomainError` rather than being truncated,
    and so does an integer below ``least``.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        out = int(value)
    elif isinstance(value, (float, np.floating)) and float(value).is_integer():
        out = int(value)
    else:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if least is not None and out < least:
        raise DomainError(f"{name} must be >= {least}, got {out}")
    return out


def _key_ints(key) -> tuple[int, ...]:
    out = []
    for p in key:
        if isinstance(p, str) and p not in DOMAINS:
            raise DomainError(f"unknown stream domain {p!r}")
        out.append(DOMAINS[p] if isinstance(p, str)
                   else _integer("stream key index", p, 0))
    return tuple(out)


def substream(master_seed: int, *key) -> np.random.Generator:
    """Independent SFC64 generator for ``(master_seed, *key)``.

    ``key`` elements are nonnegative integers or registered domain names;
    the pair (seed, key) fully determines the stream.
    """
    ss = np.random.SeedSequence(entropy=_integer("seed", master_seed, 0),
                                spawn_key=_key_ints(key))
    return np.random.Generator(np.random.SFC64(ss))


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


def _stream_states(seed: int, key: tuple, reps: range) -> np.ndarray:
    """The ``(len(reps), 4)`` uint64 SFC64 states of ``substream(seed, *key,
    rep)`` for every ``rep`` in ``reps = range(start, stop)``.

    Row ``i`` equals ``SFC64(SeedSequence(entropy=seed, spawn_key=(*key,
    reps[i]))).state["state"]["state"]``, domains as ``DOMAINS`` numbers:
    numpy's pool-4 hash mixing, done in uint32 lanes, one lane per
    replication, then SFC64's seeding in uint64 lanes.  The entropy words of
    seed and key prefix (``(domain, n)`` for the W2 engine, ``(domain,)`` for
    the limit law) are the same in every lane and are mixed once; a rep at or
    above 2^32 adds a second word, so only those lanes mix it.
    """
    seed = _integer("seed", seed, 0)
    if reps.step != 1:
        raise DomainError(f"replication range must have step 1, got {reps}")
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
    # generate_state(3, uint64): six hashed words, the pool read cyclically,
    # paired little-endian
    hashmix = _HashMix(_INIT_B, _MULT_B)
    words = np.empty((rep.size, 2 * _SEED_WORDS), dtype="<u4")
    for i in range(2 * _SEED_WORDS):
        words[:, i] = hashmix(pool[i % _POOL])
    a, b, c = words.view("<u8").astype(np.uint64).T
    # SFC64's seeding: counter 1, then rounds of sfc64_next, output dropped
    w = np.ones_like(a)
    for _ in range(_SFC64_WARMUP):
        tmp = a + b + w
        w += np.uint64(1)
        a = b ^ (b >> np.uint64(11))
        b = c + (c << np.uint64(3))
        c = (c << np.uint64(24) | c >> np.uint64(40)) + tmp
    return np.stack([a, b, c, w], axis=1)


def _open_inplace(u: np.ndarray) -> np.ndarray:
    """Turn ``Generator.random``'s ``k 2^-53`` into the open uniform ``(k +
    1/2) / 2^53``, in place: adding 2^-54 rounds the same real ``(2k + 1)
    2^-54``.  That rounds to 1.0 at the one ``k = 2^53 - 1`` (probability
    2^-53), so it is clamped at ``1 - 2^-53``."""
    u += _HALF_ULP
    return np.minimum(u, _BELOW_ONE, out=u)


def uniforms_open(rng: np.random.Generator, size) -> np.ndarray:
    """Uniforms strictly inside (0, 1): ``(k + 1/2) / 2^53`` for the top 53
    bits ``k`` of each raw word, at most ``1 - 2^-53``; ``size=None`` gives
    a 0-d array."""
    return _open_inplace(np.asarray(rng.random(size)))


def standard_normals(rng: np.random.Generator, size) -> np.ndarray:
    """Standard normals, ``rng.standard_normal(size)`` (numpy's ziggurat);
    ``size=None`` gives a 0-d array."""
    return np.asarray(rng.standard_normal(size))


# words the probe of each thread's generator writes through its state view
_PROBE_WORDS = (2 ** 64 - 1, 2 ** 63, 0, 2 ** 63 + 1)
# each thread's keyed generator and the view of its state words
_KEYED = threading.local()


def _keyed_generator() -> tuple:
    """This thread's ``(Generator, words)``: a private SFC64 generator and a
    writable ``(4,)`` uint64 view of its four state words, made and probed
    on the thread's first call.

    The view reads the SFC64's C state at ``bits.ctypes.state_address``;
    the probe writes ``_PROBE_WORDS`` through it and reads them back
    through the ``state`` getter, with no buffered 32-bit half.
    """
    keyed = getattr(_KEYED, "generator", None)
    if keyed is None:
        bits = np.random.SFC64(0)
        words = np.frombuffer((ctypes.c_uint64 * 4).from_address(
            bits.ctypes.state_address), dtype=np.uint64)
        words[...] = _PROBE_WORDS
        state = bits.state
        if (tuple(state["state"]["state"].tolist()) != _PROBE_WORDS
                or state["has_uint32"] != 0):
            raise RuntimeError(
                f"numpy {np.__version__}: SFC64's four state words are not "
                "the first words at its ctypes state_address")
        # the Generator holds the SFC64, which owns the words under the view
        keyed = _KEYED.generator = (np.random.Generator(bits), words)
    return keyed


def _keyed_normals(states: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill row ``r`` of ``out``, a float64 ``(len(states), width)`` array
    with contiguous rows, with ``standard_normals(g, width)`` on the SFC64
    stream whose state is ``states[r]``.

    This thread's generator (:func:`_keyed_generator`) takes each row's four
    state words, written straight into its C state, and fills the row in
    place.  ``standard_normal`` draws only 64-bit words, so the generator
    never buffers a 32-bit half and each row starts as a freshly seeded
    SFC64 at that state would.
    """
    if len(states) != len(out):
        raise DomainError(
            f"{len(states)} stream states for {len(out)} rows of normals")
    gen, words = _keyed_generator()
    for row, state in zip(out, states):
        words[...] = state
        gen.standard_normal(out=row)
    return out


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


def _pairs_inplace(z: np.ndarray, rho: float) -> np.ndarray:
    """Overwrite a contiguous ``(rows, 2w)`` block of standard normals with
    correlated normal pairs, returned as its ``(rows, 2, w)`` view.

    Each row's first ``w`` normals are X (``[:, 0]``) and the next ``w``
    become Y (``[:, 1]``), as :func:`correlated_normal_pairs` makes them
    from the same stream.
    """
    pairs = z.reshape(len(z), 2, -1)
    _correlate_inplace(pairs[:, 0], pairs[:, 1], rho)
    return pairs


_BLOCK_VALUES = 2 ** 17  # float64 values drawn per block (1 MiB)


def _block_rows(width: int) -> int:
    """Rows per block: ``_BLOCK_VALUES`` values, at least one row."""
    return max(1, _BLOCK_VALUES // width)


def _balanced_spans(count: int, most: int) -> list:
    """``(start, stop)`` of the ``ceil(count / most)`` spans covering
    ``range(count)``, their sizes balanced to within one: a span of a few
    rows could send a caller's matrix product to another BLAS kernel, with
    other rounding."""
    k = -(-count // most)
    return [(count * s // k, count * (s + 1) // k) for s in range(k)]


def _replicate(states: np.ndarray, width: int, finish,
               workers: int) -> np.ndarray:
    """One value per stream state: ``finish(block)`` for each block of
    keyed normals.

    Row ``r`` of a ``(rows, width)`` block is ``standard_normals(g,
    width)`` on the stream of its state: every normal one draw uses, in the
    order its stream gives them.  ``finish`` may overwrite the block: its
    buffer is drawn into again only after ``finish`` has returned, and the
    values it returns are copied out before that.  Blocks hold about 2^17
    numbers (1 MiB), their sizes balanced to within one row
    (:func:`_balanced_spans`).  Each block is one task, run on one thread:
    draw it (:func:`_keyed_normals`), then finish it.  With ``threads =
    min(workers, number of blocks)`` equal to one, every block runs inline
    in one reused buffer and no thread starts; otherwise a pool of
    ``threads`` threads maps the tasks over the blocks, and each thread
    draws into its own buffer, allocated on its first block and reused, so
    at most ``threads`` block buffers exist.  An error in a block cancels
    the blocks not yet started, and raises here after every pool thread has
    stopped.
    """
    count = len(states)
    spans = _balanced_spans(count, _block_rows(width))
    shape = (-(-count // len(spans)), width)
    out = np.empty(count)
    # a reused buffer saves a page fault per 4 KiB
    local = threading.local()

    def run(span: tuple) -> None:
        start, stop = span
        if not hasattr(local, "buffer"):
            local.buffer = np.empty(shape)
        block = _keyed_normals(states[start:stop], local.buffer[:stop - start])
        out[start:stop] = finish(block)

    threads = min(workers, len(spans))
    if threads == 1:
        for span in spans:
            run(span)
        return out
    with ThreadPoolExecutor(threads) as pool:
        try:
            for _ in pool.map(run, spans):
                pass
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return out
