"""The generator is pinned to a fixed algorithm: splitmix64 seeding a
xoshiro256** core.  Golden values below were produced by a separate
transcription of the published reference algorithms (reproduced inline
as the oracle), so any drift in the package implementation fails here.
"""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pontgap.prng import (
    _BLOCK,
    _LANE,
    _LANE_MIN_WORDS,
    Xoshiro256StarStar,
    _apply,
    _jump_tables,
    _lane_walk,
    _walk,
    splitmix64,
)

_MASK = (1 << 64) - 1

# published splitmix64 outputs for seed 0
SPLITMIX_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

# first outputs of xoshiro256** with splitmix64-expanded seeds (oracle run)
XOSHIRO_SEED0 = [
    0x99EC5F36CB75F2B4,
    0xBF6E1F784956452A,
    0x1A5F849D4933E6E0,
    0x6AA594F1262D2D2C,
    0xBBA5AD4A1F842E59,
]
XOSHIRO_SEED12345 = [
    0xBE6A36374160D49B,
    0x214AAA0637A688C6,
    0xF69D16DE9954D388,
    0x0C60048C4E96E033,
    0x8E2076AEED51C648,
]


def _oracle_splitmix(seed):
    state = seed & _MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & _MASK


def _oracle_xoshiro(seed, count):
    s = list(itertools.islice(_oracle_splitmix(seed), 4))
    out = []
    for _ in range(count):
        out.append((_rotl((s[1] * 5) & _MASK, 7) * 9) & _MASK)
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
    return out


def test_splitmix64_reference_vectors():
    state = 0
    outputs = []
    for _ in range(3):
        state, value = splitmix64(state)
        outputs.append(value)
    assert outputs == SPLITMIX_SEED0


@pytest.mark.parametrize(
    "seed,golden", [(0, XOSHIRO_SEED0), (12345, XOSHIRO_SEED12345)]
)
def test_xoshiro_golden_outputs(seed, golden):
    rng = Xoshiro256StarStar(seed)
    assert [rng.next_u64() for _ in range(5)] == golden


@given(st.integers(min_value=0, max_value=_MASK))
def test_xoshiro_matches_oracle(seed):
    rng = Xoshiro256StarStar(seed)
    assert [rng.next_u64() for _ in range(40)] == _oracle_xoshiro(seed, 40)


def test_determinism():
    a = Xoshiro256StarStar(99)
    b = Xoshiro256StarStar(99)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


@given(st.integers(min_value=0, max_value=_MASK))
def test_uniform_range(seed):
    rng = Xoshiro256StarStar(seed)
    for _ in range(20):
        u = rng.uniform()
        assert 0.0 <= u < 1.0


def test_uniform_moments():
    rng = Xoshiro256StarStar(7)
    draws = np.array([rng.uniform() for _ in range(20_000)])
    assert abs(draws.mean() - 0.5) < 0.01
    assert abs(draws.var() - 1 / 12) < 0.005


def test_normal_moments():
    rng = Xoshiro256StarStar(11)
    draws = np.array([rng.normal() for _ in range(20_000)])
    assert abs(draws.mean()) < 0.03
    assert abs(draws.std() - 1.0) < 0.03


def test_complex_normal_is_unit_variance():
    rng = Xoshiro256StarStar(13)
    draws = np.array([rng.complex_normal() for _ in range(20_000)])
    assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 0.05
    assert abs(draws.mean()) < 0.05


def test_sign_takes_both_values():
    rng = Xoshiro256StarStar(3)
    draws = [rng.sign() for _ in range(200)]
    assert set(draws) == {-1.0, 1.0}
    assert abs(sum(draws)) < 80


def test_substreams_differ_and_are_deterministic():
    base = 5
    first = Xoshiro256StarStar.substream(base, 1)
    second = Xoshiro256StarStar.substream(base, 2)
    again = Xoshiro256StarStar.substream(base, 1)
    seq1 = [first.next_u64() for _ in range(10)]
    seq2 = [second.next_u64() for _ in range(10)]
    assert seq1 != seq2
    assert seq1 == [again.next_u64() for _ in range(10)]


def _prepared(seed, prefix):
    """A stream that has made the draws ``prefix`` names, in order."""
    rng = Xoshiro256StarStar(seed)
    for method in prefix:
        getattr(rng, method)()
    return rng


#: normal counts whose 2 * count words fall just below and at the lane crossover
_CROSSOVER_COUNTS = [_LANE_MIN_WORDS // 2 - 1, _LANE_MIN_WORDS // 2]


@given(
    st.integers(min_value=0, max_value=_MASK),
    st.one_of(
        st.sampled_from([0, 1, 2, *_CROSSOVER_COUNTS]),
        st.integers(min_value=3, max_value=_LANE_MIN_WORDS),
    ),
    st.sampled_from([(), ("sign", "uniform"), ("normal",), ("sign", "normal", "uniform")]),
)
def test_complex_normals_equal_the_scalar_path(seed, count, prefix):
    # ("normal",) leaves a spare pending, which the bulk draw uses first;
    # counts from _LANE_MIN_WORDS // 2 on walk their words as lanes
    scalar, bulk = _prepared(seed, prefix), _prepared(seed, prefix)
    expected = np.array([scalar.complex_normal() for _ in range(count)], dtype=complex)
    got = bulk.complex_normals(count)
    assert got.dtype == np.complex128 and got.shape == (count,)
    assert got.tobytes() == expected.tobytes()
    assert bulk._s == scalar._s
    assert repr(bulk._spare_normal) == repr(scalar._spare_normal)
    assert bulk.next_u64() == scalar.next_u64()


#: first complex normal after a signed-zero spare, as (real, imag) in
#: float.hex, recorded with CPython 3.11's complex quotient.  At seed 4 the
#: next normal is positive, so a -0.0 spare gives a +0.0 real part, where
#: a componentwise division (CPython 3.14's) would keep -0.0.  (A list,
#: not a dict: -0.0 and 0.0 are equal keys.)
_SIGNED_ZERO_FIRST = [
    (0, -0.0, "-0x0.0p+0", "-0x1.46dc775996cd2p-7"),
    (0, 0.0, "0x0.0p+0", "-0x1.46dc775996cd2p-7"),
    (1, -0.0, "-0x0.0p+0", "-0x1.2d7c0ef1a5622p-1"),
    (1, 0.0, "0x0.0p+0", "-0x1.2d7c0ef1a5622p-1"),
    (2, -0.0, "-0x0.0p+0", "-0x1.d9efd4cf85680p-3"),
    (2, 0.0, "0x0.0p+0", "-0x1.d9efd4cf85680p-3"),
    (3, -0.0, "-0x0.0p+0", "-0x1.8b5ae04704978p-2"),
    (3, 0.0, "0x0.0p+0", "-0x1.8b5ae04704978p-2"),
    (4, -0.0, "0x0.0p+0", "0x1.f65001a0f2216p-1"),
    (4, 0.0, "0x0.0p+0", "0x1.f65001a0f2216p-1"),
]


@pytest.mark.parametrize(
    "seed,spare,re,im",
    [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in _SIGNED_ZERO_FIRST],
)
def test_complex_normals_keep_a_signed_zero_spare(seed, spare, re, im):
    scalar, bulk = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    scalar._spare_normal = bulk._spare_normal = spare
    expected = np.array([scalar.complex_normal() for _ in range(3)], dtype=complex)
    got = bulk.complex_normals(3)
    assert got.tobytes() == expected.tobytes()
    first = np.array([complex(float.fromhex(re), float.fromhex(im))])
    assert got[:1].tobytes() == first.tobytes()


#: (seed, draws before, count, SHA-256 of the normals' bytes, final state),
#: recorded with the one-word-at-a-time walk.  131,072 words fill 2,048
#: whole lanes; the third stream has a spare pending and a partial last lane
_LONG_STREAMS = [
    (
        0, (), 65_536,
        "27016f02545a117b444c493b23c2fc96b479bf464c7eaf00b94bd136ae6b924c",
        [0x7DDB25481D84B665, 0x89DF6BD8BC02CD0F, 0xAB70BAED01FEAD17, 0x388F1E6C5BB911BE],
    ),
    (
        2026, (), 65_536,
        "fe2c3d50599a8c47b6722ca1f40a1582054a844a0f87437c66e7ae83681f4b09",
        [0x8231D4023F555C81, 0xA349839ECC05FE81, 0xD1ACFF7720B569F5, 0xA84C6F78413D083A],
    ),
    (
        12345, ("normal",), 65_539,
        "e33c2184f62acd825b01a3c4cee4440d9211bc28cad934a1e52b2eeab3465f8c",
        [0x552E3F6EAEDE69D5, 0xFC7E7857F78803AE, 0xE48475175D6A0222, 0xE1BA37A48514CA32],
    ),
]


@pytest.mark.parametrize(
    "seed,prefix,count,digest,state",
    [pytest.param(*case, id=f"{case[0]}-{case[2]}") for case in _LONG_STREAMS],
)
def test_golden_long_stream(seed, prefix, count, digest, state):
    rng = _prepared(seed, prefix)
    assert hashlib.sha256(rng.complex_normals(count).tobytes()).hexdigest() == digest
    assert rng._s == state


_STATES = st.lists(st.integers(min_value=0, max_value=_MASK), min_size=4, max_size=4)


@settings(max_examples=10, deadline=None)
@given(_STATES)
@pytest.mark.parametrize(
    "count",
    [
        0, 1,
        _LANE_MIN_WORDS - 1, _LANE_MIN_WORDS, _LANE_MIN_WORDS + 1,
        _LANE - 1, _LANE, _LANE + 1, 3 * _LANE - 1, 3 * _LANE + 1,
        # around the first block boundary, and into the second block
        _BLOCK * _LANE - 1, _BLOCK * _LANE, _BLOCK * _LANE + 1, (_BLOCK + 1) * _LANE + 3,
        18_432, 18_433,  # one 96x96 draw, and one word more
    ],
)
def test_lane_walk_equals_the_scalar_walk(count, state):
    scalar, lanes = list(state), list(state)
    expected = np.empty(count, dtype=np.uint64)
    got = np.empty(count, dtype=np.uint64)
    _walk(scalar, expected)
    _lane_walk(lanes, got)
    assert got.tobytes() == expected.tobytes()
    assert lanes == scalar


@given(_STATES)
def test_one_jump_is_a_lane_of_steps(state):
    # one T is _LANE steps, and one T^_BLOCK is _BLOCK lanes of steps
    for table, steps in zip(_jump_tables(), (_LANE, _BLOCK * _LANE)):
        stepped = list(state)
        _walk(stepped, [0] * steps)
        assert _apply(table, np.array([state], dtype=np.uint64)).tolist() == [stepped]
