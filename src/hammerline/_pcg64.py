"""numpy's default generator for the certifier's uniform draws.

``Generator(seed).uniform(low, high[, size])`` returns what
``numpy.random.default_rng(seed).uniform(low, high[, size])`` returns, bit
for bit, for every nonnegative integer seed: numpy's ``SeedSequence``
hashes the seed into the state of O'Neill's PCG64 (a 128-bit LCG with the
XSL-RR output; O'Neill, HMC-CS-2014-0905), and a double is the top 53 bits
of an output. Importing numpy.random (with secrets, hashlib and OpenSSL)
cost every certifying command more time and memory than all of its draws,
which number at most a few thousand.
"""

from __future__ import annotations

import operator

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875    # SeedSequence's pool hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED    # its output hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as Python ints."""
    entropy = [seed & _M32]            # little-endian words, at least one
    while seed > _M32:
        seed >>= 32
        entropy.append(seed & _M32)
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, words = _INIT_B, []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _M32
        value = value * const & _M32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, len(words), 2)]


class Generator:
    """A seeded PCG64 stream with numpy's ``uniform``."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        w = _seed_words(seed)
        init_state, stream = w[0] << 64 | w[1], w[2] << 64 | w[3]
        self._inc = (stream << 1 | 1) & _M128
        # numpy's seeding: a step from state 0 (which gives inc), add the
        # initial state, another step
        self._state = ((self._inc + init_state) * _PCG_MULT + self._inc) & _M128

    def _doubles(self, n: int) -> list:
        """The next n doubles in [0, 1): a step, then the output's top 53 bits."""
        state, inc, out = self._state, self._inc, []
        for _ in range(n):
            state = (state * _PCG_MULT + inc) & _M128
            x, rot = (state >> 64 ^ state) & _M64, state >> 122
            out.append(((x >> rot | x << (64 - rot)) & _M64) >> 11)
        self._state = state
        return [k * 2.0 ** -53 for k in out]

    def uniform(self, low: float, high: float, size: int | None = None):
        """A float from [low, high), or an array of ``size`` of them."""
        low, high = float(low), float(high)
        scale = high - low
        if size is None:
            return low + scale * self._doubles(1)[0]
        return np.array([low + scale * d for d in self._doubles(size)])
