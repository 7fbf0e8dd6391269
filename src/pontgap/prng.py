"""Deterministic pseudo-random streams for reproducible ensembles.

The generator is xoshiro256** seeded through splitmix64, implemented
directly so that every ensemble in this package is reproducible from a
64-bit seed alone, independent of the host library's RNG defaults.
Both algorithms are pinned by reference output vectors in the tests.

Matrix draws take all their normals in one call,
:meth:`Xoshiro256StarStar.complex_normals`, which returns the very bytes
that as many :meth:`~Xoshiro256StarStar.complex_normal` calls would, or
:func:`complex_normal_blocks` for several streams at once.  Only the state
recurrence is sequential; it records the state word s1 at every step, and
the ``**`` scrambler, a function of s1 alone, then runs over the whole
block, of one stream or of several, in numpy.  That is exact: numpy ``uint64``
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
T applied j times.  A jump by T or by T^B, for B = ``_BLOCK`` lanes, is
32 table lookups, one per byte of the state, and an xor of what they
find, for many states at once in numpy (jumping ahead by a fixed power of
the transition is the xoshiro authors' own technique: Blackman & Vigna,
ACM TOMS 47, 2021).  :func:`_lane_walk` takes the start of each
block of B lanes by a short sequential chain of T^B jumps, then the
other starts by B - 1 jumps of T over all block starts together.  It
advances all lanes together in numpy ``uint64``, where xor and shifts
are exact, and writes each lane's words to its own slice of the stream,
so the words and the final state are those of :func:`_walk`.  The tables
of T and T^B are built once per process, when first needed: T's by
stepping the 256 unit states as lanes, and T^B's by applying T's B
times to them.  Numpy pays a fixed cost per operation, so a walk shorter
than ``_LANE_MIN_WORDS`` stays on :func:`_walk`, which is also the
reference and walks the remainder after the last whole lane.

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

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
#: ``uint64`` operands of the bulk scrambler and the lane steps: every
#: operation stays in uint64 on any numpy, and none converts a Python int
#: per call
_U64 = {k: np.uint64(k) for k in (5, 7, 9, 11, 17, 19, 45, 57)}
#: words per lane.  For the 18,432 words of one 96x96 draw (2-vCPU VM,
#: Python 3.11, numpy 2.4, 16-lane blocks) the lane walk took about 1.1,
#: 0.8 and 0.9 ms at 32, 64 and 128 words per lane, against 7.8 ms for
#: :func:`_walk`; 64 balances the jumps against the numpy steps (one per
#: word).  At 131,072 words (d = 256), 128 was faster: 3.0-3.5 ms
#: against 4.0 ms at 64
_LANE = 64
#: lanes per block of :func:`_lane_walk`: a sequential chain of one
#: T^_BLOCK jump per block, then _BLOCK - 1 jumps of T over all blocks at
#: once.  8, 16 and 32 took about 1.5, 1.4 and 1.5 ms for one 96x96 draw
_BLOCK = 16
#: shortest walk run as lanes: with 64-word lanes the two paths took the
#: same time at about 700-900 words (same machine, measured again with
#: block jumps), and every sweep-grid draw (at most 32 words) stays far below
_LANE_MIN_WORDS = 768
#: the byte positions of a state, for the gather of :func:`_apply`
_BYTES = np.arange(32)


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
def _jump_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per-byte xor tables of T, the ``_LANE``-step transition over GF(2),
    and of T^``_BLOCK``, each a (32, 256, 4) ``uint64`` array.

    A state is 256 bits, s0 first and little-endian.  Column i of T, the
    image of unit state i, comes from stepping all 256 unit states as
    lanes; the columns of T^``_BLOCK`` from applying T's tables
    ``_BLOCK`` times to the unit states.  Entry x of table b is the xor
    of the columns 8b..8b+7 that the bits of x select, so a state's image
    is the xor of one entry per byte (see :func:`_apply`).
    """
    units = np.zeros((4, 256), dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    for w in range(4):
        units[w, 64 * w : 64 * (w + 1)] = bits
    block = units.T.copy()
    _step_lanes(units, np.empty((_LANE, 256), dtype=np.uint64))
    lane = _byte_tables(units.T)
    for _ in range(_BLOCK):
        block = _apply(lane, block)
    return lane, _byte_tables(block)


def _byte_tables(columns: np.ndarray) -> np.ndarray:
    """The per-byte xor tables of the GF(2) matrix whose 256 columns are
    the rows of the (256, 4) ``uint64`` array ``columns``."""
    columns = columns.reshape(32, 8, 4)
    tables = np.zeros((32, 256, 4), dtype=np.uint64)
    for k in range(8):
        # the entries with bit k set: those without it, xor column 8b + k
        np.bitwise_xor(tables[:, : 1 << k], columns[:, k, None],
                       out=tables[:, 1 << k : 2 << k])
    tables.setflags(write=False)
    return tables


def _apply(tables: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The images, under the matrix of ``tables``, of the rows of the
    (n, 4) ``uint64`` array ``states``: one table entry gathered per byte,
    the bytes read little-endian whatever the host's order, and xor-reduced."""
    octets = np.ascontiguousarray(states, dtype="<u8").view(np.uint8)
    return np.bitwise_xor.reduce(tables[_BYTES, octets], axis=1)


def _lane_walk(s: list, out: np.ndarray) -> None:
    """:func:`_walk` into the ``uint64`` vector ``out``, as lanes of ``_LANE`` words.

    Lane j starts ``j * _LANE`` steps on and fills
    ``out[j * _LANE : (j + 1) * _LANE]``.  The lanes go in blocks of
    ``_BLOCK``: each block's first lane starts one T^``_BLOCK`` after the
    previous block's, and the other lanes of every block start one T after
    the lane before, all blocks at once.  The last lane's end state walks
    the remainder through :func:`_walk`.
    """
    count = len(out) // _LANE
    if count:
        lane, block = _jump_tables()
        # starts[i, k] is the start of lane k * _BLOCK + i; fewer lanes
        # than a block make one block of that many
        starts = np.empty((min(count, _BLOCK), -(-count // _BLOCK), 4), dtype=np.uint64)
        starts[0, 0] = s
        for k in range(1, starts.shape[1]):
            starts[0, k] = _apply(block, starts[0, k - 1 : k])
        for i in range(1, len(starts)):
            starts[i] = _apply(lane, starts[i - 1])
        lanes = np.array(starts.transpose(2, 1, 0).reshape(4, -1)[:, :count], order="C")
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
        the call is the first normal used.  The one-stream case of
        :func:`complex_normal_blocks`.
        """
        return complex_normal_blocks([self], [count])[0]

    def sign(self) -> int:
        """Uniform on {-1, +1}."""
        return 1 if (self.next_u64() >> 63) == 0 else -1


def complex_normal_blocks(streams, counts) -> list[np.ndarray]:
    """Each stream's :meth:`~Xoshiro256StarStar.complex_normals` of its
    count, in order: the same values, states and spare normals.

    Each stream walks its own words into one block; the scrambler and the
    Box-Muller transform then run once over the words of all streams, so
    numpy's cost per call is paid once, not once per stream.  Box-Muller
    pairs never straddle two streams, since each takes an even number of
    words.  Each intermediate vector is dropped once read, so a draw holds
    a few vectors at a time; the blocks are views of one vector.
    """
    counts = list(counts)
    total = sum(counts)
    words = np.empty(2 * total, dtype=np.uint64)
    at = 0
    for rng, count in zip(streams, counts):
        block = words[at : at + 2 * count]
        (_walk if len(block) < _LANE_MIN_WORDS else _lane_walk)(rng._s, block)
        at += 2 * count
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
    r = np.fromiter(map(math.log, memoryview(units[0::2])), np.float64, total)
    r *= -2.0
    np.sqrt(r, out=r)
    angles = (2.0 * math.pi) * units[1::2]
    del units
    cos = np.fromiter(map(math.cos, memoryview(angles)), np.float64, total)
    sin = np.fromiter(map(math.sin, memoryview(angles)), np.float64, total)
    del angles
    cos *= r
    sin *= r
    del r
    # each stream's normals run cos_1, sin_1, cos_2, ...; where a spare is
    # pending, it goes first, and the stream's last sine is its new spare
    re, im = cos, sin
    ends = np.cumsum([0] + counts).tolist()
    spared = [(rng, a, b) for rng, a, b in zip(streams, ends, ends[1:])
              if rng._spare_normal is not None and b > a]
    if spared:
        re, im = cos.copy(), sin.copy()
        for rng, a, b in spared:
            re[a], re[a + 1 : b], im[a:b] = rng._spare_normal, sin[a : b - 1], cos[a:b]
            rng._spare_normal = float(sin[b - 1])
    quotients = np.empty(total, dtype=np.complex128)
    quotients.real, quotients.imag = _over_root2(re, im)
    return [quotients[a:b] for a, b in zip(ends, ends[1:])]
