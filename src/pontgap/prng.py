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
time.  So does the final division by sqrt(2): numpy divides a complex
array by a real scalar through a reciprocal, which changes bits, and a
Python complex quotient may treat signed zeros differently from a
componentwise one.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
#: ``uint64`` operands of the bulk scrambler: every operation stays in
#: uint64 on any numpy, and none converts a Python int per call
_U64 = {k: np.uint64(k) for k in (5, 7, 9, 11, 57)}


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
        return complex(self.normal(), self.normal()) / math.sqrt(2.0)

    def complex_normals(self, count: int) -> np.ndarray:
        """``count`` standard complex normals as a complex128 vector.

        The values, and the stream's state and spare normal afterwards,
        are those of ``count`` calls of :meth:`complex_normal`: ``count``
        Box-Muller pairs take two words each, and a spare pending before
        the call is the first normal used.  Each intermediate vector is
        dropped once read, so a draw holds a few vectors at a time.
        """
        words = np.empty(2 * count, dtype=np.uint64)
        _walk(self._s, words)
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
        quotients = map(
            complex.__truediv__,
            map(complex, memoryview(re), memoryview(im)),
            itertools.repeat(math.sqrt(2.0)),
        )
        return np.fromiter(quotients, np.complex128, count)

    def sign(self) -> int:
        """Uniform on {-1, +1}."""
        return 1 if (self.next_u64() >> 63) == 0 else -1
