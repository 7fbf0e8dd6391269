"""Deterministic pseudo-random streams for reproducible ensembles.

The generator is xoshiro256** seeded through splitmix64, implemented
directly so that every ensemble in this package is reproducible from a
64-bit seed alone, independent of the host library's RNG defaults.
Both algorithms are pinned by reference output vectors in the tests.

Matrix draws take all their normals in one call,
:meth:`Xoshiro256StarStar.complex_normals`, which returns the very bytes
that as many :meth:`~Xoshiro256StarStar.complex_normal` calls would.
Only the state recurrence is sequential; it records the state word s1
at every step, and the ``**`` scrambler, a function of s1 alone, then
runs over the whole block in numpy.  That is exact: numpy ``uint64``
products and shifts wrap modulo 2**64 like the masked Python integers,
and integers below 2**53 convert to doubles exactly.  ``np.sqrt`` and
products of doubles are correctly rounded IEEE operations, so they give
the scalar path's bits too.  The logarithm, sine and cosine are not:
numpy's vectorized versions may differ from the C library's in the last
bit, and between CPUs, so they go through :mod:`math` one value at a
time.

A long walk runs as lanes.  The xoshiro256 state update uses only xor,
shifts and rotations, so it is linear over GF(2): ``_LANE`` steps are
one fixed 256x256 bit matrix T, and the state ``j * _LANE`` steps on is
T applied j times.  :func:`_lane_walk` jumps from lane start to lane
start with T (32 table lookups instead of ``_LANE`` steps), advances
all lanes together in numpy ``uint64``, where xor and shifts are exact,
and writes each lane's words to its own slice of the stream, so the
words and the final state are those of :func:`_walk`.  T is built once
per process, when first needed, by stepping the 256 unit states as
lanes.  Numpy pays a fixed cost per operation, so a walk shorter than
``_LANE_MIN_WORDS`` stays on :func:`_walk`, which is also the reference
and walks the remainder after the last whole lane.

The division by sqrt(2) is written out as CPython 3.10-3.13 divide a
complex by (sqrt(2), 0): ``((re + im*0.0) / sqrt(2), (im - re*0.0) /
sqrt(2))``, signed zeros included (:func:`_over_root2`).  Both paths use
that formula rather than the interpreter's own quotient.  CPython 3.14
divides a complex by a float componentwise, which gives ``-0.0`` where
the formula gives ``+0.0`` (a spare of ``-0.0`` paired with a positive
normal), so relying on ``/`` would tie the bytes to the interpreter.
numpy divides a complex array by a real scalar through a reciprocal,
which changes bits, so the bulk path divides the two float64 parts.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
#: ``uint64`` operands of the bulk scrambler and the lane steps: every
#: operation stays in uint64 on any numpy, and none converts a Python int
#: per call
_U64 = {k: np.uint64(k) for k in (5, 7, 9, 11, 17, 19, 45, 57)}
#: words per lane.  For the 18,432 words of one 96x96 draw (2-vCPU VM,
#: Python 3.11, numpy 2.4) the lane walk took about 2.1 ms at 32, 64 or
#: 128 words per lane, against 12.9 ms for :func:`_walk`; 64 balances
#: the jumps (one per lane) against the numpy steps (one per word)
_LANE = 64
#: shortest walk run as lanes: with 64-word lanes the two paths took the
#: same time at about 700-900 words (same machine), and every sweep-grid
#: draw (at most 32 words) stays far below
_LANE_MIN_WORDS = 768


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state once; return ``(new_state, output)``."""
    state = (state + _GOLDEN) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, (z ^ (z >> 31)) & _MASK


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


def _walk(s: list, out) -> None:
    """Record s1 in each slot of ``out``, advancing the state ``s`` once per slot.

    The whole xoshiro256 state recurrence; each output word is the
    ``**`` scrambler applied to the recorded s1.
    """
    s0, s1, s2, s3 = s
    for i in range(len(out)):
        out[i] = s1
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
    s[:] = (s0, s1, s2, s3)


def _step_lanes(lanes: np.ndarray, rows: np.ndarray) -> None:
    """Advance each column of the (4, L) ``uint64`` state ``lanes`` once per row.

    Row t of ``rows`` (shape (steps, L)) receives every lane's s1 before
    its step t; the recurrence is :func:`_walk`'s, in numpy.
    """
    s0, s1, s2, s3 = lanes
    t = np.empty_like(s1)
    for row in rows:
        row[...] = s1
        np.left_shift(s1, _U64[17], out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, _U64[45], out=t)
        s3 >>= _U64[19]
        s3 |= t


@functools.cache
def _jump_tables() -> tuple[tuple[int, ...], ...]:
    """Per-byte xor tables of T, the ``_LANE``-step transition over GF(2).

    A state is 256 bits, s0 first and little-endian.  Column i of T, the
    image of unit state i, comes from stepping all 256 unit states as
    lanes.  Entry x of table b is the xor of the columns 8b..8b+7 that
    the bits of x select, so T·state is the xor of one entry per byte.
    """
    units = np.zeros((4, 256), dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    for w in range(4):
        units[w, 64 * w : 64 * (w + 1)] = bits
    _step_lanes(units, np.empty((_LANE, 256), dtype=np.uint64))
    packed = units.T.astype("<u8").tobytes()
    columns = [int.from_bytes(packed[32 * i : 32 * (i + 1)], "little") for i in range(256)]
    tables = []
    for b in range(32):
        table = [0]
        for column in columns[8 * b : 8 * (b + 1)]:
            table += [x ^ column for x in table]
        tables.append(tuple(table))
    return tuple(tables)


def _jump(state: bytes) -> bytes:
    """The state ``_LANE`` steps after ``state``; both as 32 little-endian bytes."""
    word = functools.reduce(operator.xor, map(tuple.__getitem__, _jump_tables(), state))
    return word.to_bytes(32, "little")


def _lane_walk(s: list, out: np.ndarray) -> None:
    """:func:`_walk` into the ``uint64`` vector ``out``, as lanes of ``_LANE`` words.

    Lane j starts ``j * _LANE`` steps on, one :func:`_jump` after lane
    j - 1, and fills ``out[j * _LANE : (j + 1) * _LANE]``.  The last
    lane's end state walks the remainder through :func:`_walk`.
    """
    count = len(out) // _LANE
    if count:
        state = b"".join(word.to_bytes(8, "little") for word in s)
        starts = [state]
        for _ in range(count - 1):
            state = _jump(state)
            starts.append(state)
        packed = np.frombuffer(b"".join(starts), dtype="<u8").reshape(count, 4)
        lanes = np.array(packed.T, dtype=np.uint64, order="C")
        _step_lanes(lanes, out[: count * _LANE].reshape(count, _LANE).T)
        s[:] = lanes[:, -1].tolist()
    _walk(s, out[count * _LANE :])


def _over_root2(re, im):
    """``complex(re, im) / sqrt(2)`` as CPython 3.10-3.13 compute it, as (real, imag).

    Takes floats or float64 arrays; see the module docstring.
    """
    root2 = math.sqrt(2.0)
    return (re + im * 0.0) / root2, (im - re * 0.0) / root2


class Xoshiro256StarStar:
    """xoshiro256** stream with splitmix64 state expansion.

    Parameters
    ----------
    seed : int
        Any Python integer; reduced modulo 2**64.
    """

    __slots__ = ("_s", "_spare_normal")

    def __init__(self, seed: int):
        state = seed & _MASK
        s = []
        for _ in range(4):
            state, out = splitmix64(state)
            s.append(out)
        if not any(s):  # all-zero state is a fixed point of xoshiro
            s[0] = _GOLDEN
        self._s = s
        self._spare_normal = None

    @classmethod
    def substream(cls, seed: int, tag: int) -> "Xoshiro256StarStar":
        """Derive an independent stream for purpose ``tag`` under ``seed``."""
        _, mixed = splitmix64((seed + tag * _GOLDEN) & _MASK)
        return cls(mixed)

    def next_u64(self) -> int:
        word = [0]
        _walk(self._s, word)
        return (_rotl((word[0] * 5) & _MASK, 7) * 9) & _MASK

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """Standard normal via Box-Muller, one spare cached."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        # u1 in (0, 1] so the logarithm is finite
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def complex_normal(self) -> complex:
        """Standard complex normal (unit variance overall)."""
        return complex(*_over_root2(self.normal(), self.normal()))

    def complex_normals(self, count: int) -> np.ndarray:
        """``count`` standard complex normals as a complex128 vector.

        The values, and the stream's state and spare normal afterwards,
        are those of ``count`` calls of :meth:`complex_normal`: ``count``
        Box-Muller pairs take two words each, and a spare pending before
        the call is the first normal used.  Each intermediate vector is
        dropped once read, so a draw holds a few vectors at a time.
        """
        words = np.empty(2 * count, dtype=np.uint64)
        (_walk if len(words) < _LANE_MIN_WORDS else _lane_walk)(self._s, words)
        # the ** scrambler, rotl(5 s1, 7) * 9 modulo 2**64, then the top 53 bits
        words *= _U64[5]
        bits = words << _U64[7]
        words >>= _U64[57]
        bits |= words
        del words
        bits *= _U64[9]
        bits >>= _U64[11]
        # per pair (u1, u2), with u1 in (0, 1] so the logarithm is finite;
        # memoryviews hand math one Python float at a time, never a list
        units = bits.astype(np.float64)
        del bits
        units[0::2] += 1.0
        units *= 2.0**-53
        r = np.fromiter(map(math.log, memoryview(units[0::2])), np.float64, count)
        r *= -2.0
        np.sqrt(r, out=r)
        angles = (2.0 * math.pi) * units[1::2]
        del units
        cos = np.fromiter(map(math.cos, memoryview(angles)), np.float64, count)
        sin = np.fromiter(map(math.sin, memoryview(angles)), np.float64, count)
        del angles
        cos *= r
        sin *= r
        del r
        # the normals run cos_1, sin_1, cos_2, ...; a pending spare goes first
        if self._spare_normal is None:
            re, im = cos, sin
        else:
            re, im = np.concatenate(([self._spare_normal], sin)), cos
            self._spare_normal = float(re[-1])
            re = re[:-1]
        quotients = np.empty(count, dtype=np.complex128)
        quotients.real, quotients.imag = _over_root2(re, im)
        return quotients

    def sign(self) -> int:
        """Uniform on {-1, +1}."""
        return 1 if (self.next_u64() >> 63) == 0 else -1
