"""Deterministic substreams and variate generation."""

import hashlib
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from w2gauss import (Correlation, DOMAINS, DomainError,
                     correlated_normal_pairs, standard_normals, substream,
                     uniforms_open)
from w2gauss import experiments, streams


def _open_oracle(rng, size):
    """``(integers(0, 2^53) + 1/2) / 2^53``, clamped below 1: the open
    uniforms of ``rng``, made from its integers."""
    k = rng.integers(0, 2 ** 53, size=size, dtype=np.int64)
    return np.minimum((k + 0.5) / 2 ** 53, 1.0 - 2.0 ** -53)


def test_domain_codes_are_distinct_and_stable():
    assert len(set(DOMAINS.values())) == len(DOMAINS)
    # frozen assignments: renumbering would silently change every stream
    assert DOMAINS["one_sample"] == 1
    assert DOMAINS["generic"] == 10


def test_substream_is_deterministic():
    a = substream(123, "generic", 4).standard_normal(16)
    b = substream(123, "generic", 4).standard_normal(16)
    assert np.array_equal(a, b)


def test_substream_key_sensitivity():
    base = substream(123, "generic", 0).standard_normal(64)
    for other in [substream(123, "generic", 1),
                  substream(123, "one_sample", 0),
                  substream(124, "generic", 0),
                  substream(123, "generic", 0, 1)]:
        assert not np.array_equal(base, other.standard_normal(64))


def test_substream_validation():
    with pytest.raises(DomainError):
        substream(-1, "generic")
    with pytest.raises(DomainError):
        substream(5, "no_such_domain")
    with pytest.raises(DomainError):
        substream(5, "generic", -2)
    # a seed or key index is an integer: a fraction, bool or string is
    # refused, not read as another seed's stream
    for seed in (2.5, True, "7"):
        with pytest.raises(DomainError, match="integer"):
            substream(seed, "generic")
    with pytest.raises(DomainError, match="integer"):
        substream(1, "one_sample", 2.7)
    want = substream(7, "generic", 3).random(8)
    for seed, index in ((np.uint64(7), 3), (7.0, 3), (7, 3.0)):
        assert substream(seed, "generic", index).random(8).tobytes() == \
            want.tobytes()


def test_no_collisions_across_rep_range():
    # first draw of 2000 consecutive rep substreams: all distinct
    firsts = np.array([substream(99, "one_sample", r).standard_normal()
                       for r in range(2000)])
    assert len(np.unique(firsts)) == 2000


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       domain=st.sampled_from(sorted(DOMAINS)), n=st.integers(1, 2 ** 40),
       # key prefixes of one, two and three parts: the limit law's (domain,),
       # the W2 engine's (domain, n), and a second index that takes two words
       prefix=st.integers(1, 3), index=st.integers(2 ** 32, 2 ** 64 - 1),
       # a rep at or above 2^32 takes two entropy words, so lanes of a
       # range that crosses it differ in length
       start=st.one_of(st.integers(0, 2 ** 34),
                       st.integers(2 ** 32 - 16, 2 ** 32)),
       length=st.integers(0, 24))
@example(seed=0, domain="one_sample", n=1, prefix=2, index=2 ** 32,
         start=2 ** 32 - 2, length=4)
@example(seed=2 ** 64 - 1, domain="generic", n=2 ** 40, prefix=2,
         index=2 ** 32, start=0, length=0)
@example(seed=7, domain="limit_gaussian", n=1, prefix=1, index=2 ** 32,
         start=0, length=5)
@example(seed=7, domain="limit_empirical", n=3, prefix=3, index=2 ** 40,
         start=2 ** 32 - 2, length=4)
def test_stream_states_match_seed_sequence(seed, domain, n, prefix, index,
                                           start, length):
    reps = range(start, start + length)
    key = (domain, n, index)[:prefix]
    got = streams._stream_states(seed, key, reps)
    want = [np.random.SFC64(np.random.SeedSequence(
        entropy=seed, spawn_key=(DOMAINS[domain], *key[1:], rep)))
        .state["state"]["state"] for rep in reps]
    assert got.dtype == np.uint64
    assert got.shape == (length, 4)
    assert np.array_equal(got, np.reshape(want, (length, 4)))


def test_stream_states_validation():
    for args in ((-1, ("generic", 4), range(3)), (5, ("nope", 4), range(3)),
                 (5, ("generic", -4), range(3)),
                 (5, ("generic", 4), range(-1, 3)),
                 (2.5, ("generic", 4), range(3)),
                 (True, ("generic", 4), range(3)),
                 ("7", ("generic", 4), range(3)),
                 (5, ("generic", 2.7), range(3))):
        with pytest.raises(DomainError):
            streams._stream_states(*args)
    # a stepped range is refused, not read as its start and stop
    for reps in (range(0, 10, 2), range(5, 0, -1)):
        with pytest.raises(DomainError, match="step"):
            streams._stream_states(7, ("generic", 4), reps)
    want = streams._stream_states(7, ("generic", 4), range(3))
    for seed in (np.uint64(7), 7.0):
        got = streams._stream_states(seed, ("generic", 4.0), range(3))
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("calls, n", [(1, 1), (1, 1000), (2, 7), (2, 300)])
def test_keyed_normals_match_standard_normals(calls, n):
    # a row of calls * n normals is that many standard_normals(g, n) calls
    reps = range(3, 9)
    out = np.empty((len(reps), calls * n))
    streams._keyed_normals(
        streams._stream_states(42, ("two_sample", n), reps), out)
    for row, rep in zip(out, reps):
        g = substream(42, "two_sample", n, rep)
        want = np.concatenate([standard_normals(g, n) for _ in range(calls)])
        assert row.tobytes() == want.tobytes()
        oracle = substream(42, "two_sample", n, rep).standard_normal(calls * n)
        assert row.tobytes() == oracle.tobytes()


def test_pair_replication_reads_one_row_of_its_stream(monkeypatch):
    # a correlated-pair replication's 2n normals are standard_normals(g, 2n)
    # on its substream: X's n, then Z's n, as two standard_normals(g, n)
    # calls
    monkeypatch.setattr(streams, "_BLOCK_VALUES", 64)  # 4 rows at n = 8
    blocks = []

    def recording(z, rho):
        blocks.append(z.copy())
        return streams._pairs_inplace(z, rho)

    monkeypatch.setattr(experiments, "_pairs_inplace", recording)
    n, reps = 8, 10
    experiments.replicate_w2sq(3, "two_sample", n, reps, rho=0.5)
    rows = np.concatenate(blocks)
    assert len(blocks) == 3 and rows.shape == (reps, 2 * n)
    for rep, row in enumerate(rows):
        g = substream(3, "two_sample", n, rep)
        assert row.tobytes() == standard_normals(g, 2 * n).tobytes()
        g = substream(3, "two_sample", n, rep)
        x, z = standard_normals(g, n), standard_normals(g, n)
        assert row[:n].tobytes() == x.tobytes()
        assert row[n:].tobytes() == z.tobytes()


def test_keyed_normals_high_key_words_into_reused_buffer():
    # state words at and above 2^63 written into the generator's C state
    # give the normals the SFC64 state setter gives;
    # the buffer is a NaN-filled view of a larger one, as the loop reuses
    # its block buffers
    states = np.array([[2 ** 64 - 1, 2 ** 63, 0, 2 ** 63 + 1],
                       [2 ** 63, 0, 2 ** 64 - 1, 13],
                       [12345, 2 ** 64 - 2, 2 ** 63, 2 ** 64 - 1]],
                      dtype=np.uint64)
    buffer = np.full((len(states) + 2, 257), np.nan)
    out = buffer[:len(states)]
    assert streams._keyed_normals(states, out) is out
    for row, words in zip(out, states.tolist()):
        bits = np.random.SFC64(0)
        bits.state = {"bit_generator": "SFC64", "state": {"state": words},
                      "has_uint32": 0, "uinteger": 0}
        assert row.tobytes() == np.random.Generator(
            bits).standard_normal(257).tobytes()
    assert np.isnan(buffer[len(states):]).all()


def test_keyed_generator_state_view():
    # words at and above 2^63 written through the view read back through
    # the state getter; an odd-width fill buffers no 32-bit half
    gen, words = streams._keyed_generator()
    assert streams._keyed_generator()[0] is gen
    bits = gen.bit_generator
    want = [2 ** 64 - 1, 2 ** 63, 0, 2 ** 63 + 1]
    words[...] = want
    state = bits.state
    assert state["state"]["state"].tolist() == want
    assert (state["has_uint32"], state["uinteger"]) == (0, 0)
    gen.standard_normal(out=np.empty(7))
    state = bits.state
    assert state["state"]["state"].tolist() == words.tolist() != want
    assert (state["has_uint32"], state["uinteger"]) == (0, 0)


def test_keyed_normals_on_more_threads_than_cores():
    # six threads fill at once, switching every microsecond: each row is
    # still its own substream's normals, so no thread draws from another's
    # generator
    width, reps = 33, range(40)
    states = streams._stream_states(4, ("generic", width), reps)
    want = np.stack([substream(4, "generic", width, rep)
                     .standard_normal(width) for rep in reps])
    outs = [np.empty((len(reps), width)) for _ in range(6)]

    def fill(out):
        for _ in range(20):
            streams._keyed_normals(states, out)

    threads = [threading.Thread(target=fill, args=(out,)) for out in outs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for out in outs:
        assert out.tobytes() == want.tobytes()


def test_keyed_generator_probe_names_numpy_version(monkeypatch):
    # an SFC64 whose state getter does not show the words written at its
    # state address is refused when a thread makes its generator
    class Misplaced(np.random.SFC64):
        @property
        def state(self):
            state = super().state
            state["state"]["state"] = state["state"]["state"][::-1].copy()
            return state

    monkeypatch.setattr(np.random, "SFC64", Misplaced)
    errors = []

    def make():
        try:
            streams._keyed_generator()
        except RuntimeError as exc:
            errors.append(str(exc))

    thread = threading.Thread(target=make)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert len(errors) == 1 and f"numpy {np.__version__}" in errors[0]


def test_keyed_normals_carry_nothing_between_calls():
    # back-to-back fills on one thread's generator: each row is a fresh
    # substream's normals, whatever the width of the call before
    for width in (1, 7, 257, 2000):
        reps = range(2, 6)
        out = np.empty((len(reps), width))
        streams._keyed_normals(
            streams._stream_states(9, ("generic", width), reps), out)
        for row, rep in zip(out, reps):
            want = substream(9, "generic", width, rep).standard_normal(width)
            assert row.tobytes() == want.tobytes(), (width, rep)


def test_keyed_normals_refuses_row_count_mismatch():
    states = streams._stream_states(7, ("generic", 4), range(4))
    for rows in (2, 4):
        out = np.full((3, 4), np.nan)
        with pytest.raises(DomainError, match="rows"):
            streams._keyed_normals(states[:rows], out)
        assert np.isnan(out).all()


def test_open_unit_conversion_at_lattice_edges():
    # (k + 1/2) / 2^53 rounds ties-to-even to 1.0 at k = 2^53 - 1; the one
    # conversion (k 2^-53 from Generator.random, plus 2^-54) clamps that
    # value at 1 - 2^-53 and gives every other k exactly (k + 1/2) / 2^53
    ks = np.array([0, 2 ** 52 - 1, 2 ** 52, 2 ** 52 + 1, 2 ** 53 - 2,
                   2 ** 53 - 1], dtype=np.int64)
    want = (ks + 0.5) / 2 ** 53
    u = streams._open_inplace(ks * 2.0 ** -53)
    assert (u > 0.0).all() and (u < 1.0).all()
    assert u[:-1].tobytes() == want[:-1].tobytes()
    assert want[-1] == 1.0
    assert u[-1] == 1.0 - 2.0 ** -53


def test_uniforms_open_strictly_interior():
    rng = substream(7, "generic")
    u = uniforms_open(rng, 10 ** 6)
    assert u.min() > 0.0
    assert u.max() < 1.0
    # half-integer lattice: the smallest representable value is 2^-54
    assert u.min() >= 0.5 / 2 ** 53
    assert u.max() <= 1.0 - 0.5 / 2 ** 53
    # uniform on (0,1): mean 1/2 within 4 standard errors
    se = 1.0 / math.sqrt(12 * len(u))
    assert abs(u.mean() - 0.5) < 4 * se
    # an int, a tuple or None (a 0-d array) gives the oracle's shape and bits
    for size in (5, (2, 3), None):
        got = uniforms_open(substream(7, "generic", 1), size)
        want = _open_oracle(substream(7, "generic", 1), size)
        assert isinstance(got, np.ndarray) and got.shape == np.shape(want)
        assert got.tobytes() == want.tobytes()


def test_standard_normals_distribution():
    rng = substream(8, "generic")
    x = standard_normals(rng, 2 * 10 ** 5)
    assert abs(x.mean()) < 4.0 / math.sqrt(len(x))
    assert abs(x.var() - 1.0) < 4.0 * math.sqrt(2.0 / len(x))
    ks = stats.kstest(x[:5000], "norm")
    assert ks.pvalue > 1e-4
    # an int, a tuple or None (a 0-d array) gives the generator's shape and
    # bits
    for size in (5, (2, 3), None):
        got = standard_normals(substream(8, "generic", 1), size)
        want = np.asarray(substream(8, "generic", 1).standard_normal(size))
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# numpy's ziggurat_nor_r: the ziggurat draws beyond it from its tail branch
_ZIGGURAT_R = 3.6541528853610088


def test_standard_normals_tail_branch():
    # the count of 4e6 draws beyond the ziggurat's tail cut r is binomial
    # with p = 2 Phi(-r), and their mean |Z| is phi(r) / Phi(-r), the mean
    # of the normal's tail beyond r
    n = 4 * 10 ** 6
    tail = np.abs(standard_normals(substream(12, "generic"), n))
    tail = tail[tail > _ZIGGURAT_R]
    p = 2.0 * stats.norm.sf(_ZIGGURAT_R)
    assert abs(tail.size - n * p) < 4.0 * math.sqrt(n * p * (1.0 - p))
    mean = stats.norm.pdf(_ZIGGURAT_R) / stats.norm.sf(_ZIGGURAT_R)
    # the variance of |Z| beyond r is 1 + r mean - mean^2
    sd = math.sqrt(1.0 + _ZIGGURAT_R * mean - mean * mean)
    assert abs(tail.mean() - mean) < 4.0 * sd / math.sqrt(tail.size)


# SFC64(0)'s state: its first 4096 normals include one tail-branch draw
# (|x| = 4.89) and take 4170 raw words, 74 beyond one per value
_CANARY_STATE = (9957867060933711493, 532597980065565856,
                 14769588338631205282, 13)
_CANARY_SHA256 = \
    "aab7b2c3d88814b7e4f595c0121a59ce096797432abf7f1b04539ccb9bd61a51"


def _sfc64_at(words):
    bits = np.random.SFC64(0)
    state = bits.state
    state["state"]["state"] = np.array(words, dtype=np.uint64)
    bits.state = state
    return bits


def test_ziggurat_canary():
    # every seeded table rests on numpy's ziggurat, which NEP 19 leaves free
    # to change between numpy releases: a release that changes it fails
    # here, by name, besides moving the golden CSV digests
    bits = _sfc64_at(_CANARY_STATE)
    x = np.random.Generator(bits).standard_normal(4096)
    changed = (f"numpy {np.__version__} draws other normals from a fixed "
               "SFC64 state than the ziggurat the seeded tables were made "
               "with")
    assert np.abs(x).max() > _ZIGGURAT_R, changed  # the tail branch ran
    # the fast path takes one raw word per value; the tail, the wedge tests
    # and each rejection's fresh draw take the words beyond 4096
    after = bits.state["state"]["state"]
    probe = _sfc64_at(_CANARY_STATE)
    probe.random_raw(4096)
    extra = 0
    while not np.array_equal(probe.state["state"]["state"], after):
        assert extra < 4096, "the state after the draw was never reached"
        probe.random_raw()
        extra += 1
    digest = hashlib.sha256(x.astype("<f8").tobytes()).hexdigest()
    assert (digest, extra) == (_CANARY_SHA256, 74), changed


def test_correlated_pairs_correlation_and_marginals():
    for rho in (-0.8, 0.0, 0.45, 0.95):
        rng = substream(9, "generic")
        x, y = correlated_normal_pairs(rng, 2 * 10 ** 5, rho)
        r = np.corrcoef(x, y)[0, 1]
        se = (1.0 - rho * rho) / math.sqrt(len(x))
        assert abs(r - rho) < 5 * se
        assert abs(y.mean()) < 4.0 / math.sqrt(len(y))
        assert abs(y.var() - 1.0) < 5.0 * math.sqrt(2.0 / len(y))


def test_correlated_pairs_accept_correlation_object():
    rng = substream(10, "generic")
    x, y = correlated_normal_pairs(rng, 100, Correlation(0.5))
    assert x.shape == (100,)
    assert y.shape == (100,)


def test_correlated_pairs_domain():
    rng = substream(11, "generic")
    for bad in (1.0, -1.0, 1.5, math.nan, "abc", None, "0.5", False,
                np.False_):
        with pytest.raises(DomainError):
            correlated_normal_pairs(rng, 10, bad)
