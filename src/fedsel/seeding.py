"""Many seeded permutations at once, equal to ``default_rng``'s draw for draw.

``np.random.default_rng([*prefix, row])`` hashes its entropy with NumPy's
``SeedSequence`` and seeds a ``PCG64`` from the hash. Building one generator
per row costs several microseconds of Python-level set-up, which adds up when
a round needs one per client. :func:`permutations` runs the same hash once,
vectorised over the rows in uint32 arithmetic, then draws each permutation
from one reused ``PCG64`` whose state it sets to the seeded one.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

# SeedSequence's hash constants and pool size.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF

# PCG64's 128-bit LCG multiplier.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1

# Word arithmetic below runs on Python ints (words shared by every row) and
# on uint32 arrays (one word per row) alike: Python ints are masked to 32 bits
# before they meet an array, and the arrays wrap on their own.


def _hashmix(value, const: int):
    """SeedSequence's ``hashmix``: the mixed value and the next constant."""
    nxt = (const * _MULT_A) & _MASK32
    value = ((value ^ const) * nxt) & _MASK32
    return value ^ (value >> 16), nxt


def _mix(x, y):
    result = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) \
        & _MASK32
    return result ^ (result >> 16)


def _words(value: int) -> list[int]:
    """The little-endian uint32 words SeedSequence makes of one integer."""
    out = [value & _MASK32]
    value >>= 32
    while value:
        out.append(value & _MASK32)
        value >>= 32
    return out


def _pool(entropy: list) -> list:
    """``SeedSequence.mix_entropy`` over a list of words."""
    const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        word, const = _hashmix(entropy[i] if i < len(entropy) else 0, const)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], word)
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            word, const = _hashmix(entropy[src], const)
            pool[dst] = _mix(pool[dst], word)
    return pool


def _pcg64_states(pool: list, count: int) -> list[list[int]]:
    """``[state, inc]`` of the ``PCG64`` seeded from each row's pool, as
    ``SeedSequence.generate_state(4, uint64)`` and PCG64's seeding make
    them."""
    xors, mults, const = [], [], _INIT_B
    for _ in range(2 * _POOL_SIZE):
        xors.append(const)
        const = (const * _MULT_B) & _MASK32
        mults.append(const)
    pool = np.array([np.broadcast_to(w, count) for w in pool], np.uint32)
    words = pool[np.arange(2 * _POOL_SIZE) % _POOL_SIZE]
    words ^= np.array(xors, np.uint32)[:, None]
    words *= np.array(mults, np.uint32)[:, None]
    words ^= words >> 16
    halves = words.astype(np.uint64)
    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in (
            halves[0::2] | (halves[1::2] << 32)).T.tolist():
        inc = ((((inc_hi << 64) | inc_lo) << 1) | 1) & _MASK128
        seed = (seed_hi << 64) | seed_lo
        states.append([((inc + seed) * _PCG_MULT + inc) & _MASK128, inc])
    return states


def permutations(prefix: Sequence[int], rows: np.ndarray,
                 sizes: Sequence[int]) -> list[np.ndarray]:
    """``np.random.default_rng([*prefix, rows[i]]).permutation(sizes[i])`` for
    every i, draw for draw.

    ``prefix`` holds nonnegative integers; ``rows`` nonnegative integers
    below 2**32, one entropy word each.
    """
    prefix = [operator.index(p) for p in prefix]
    rows = np.asarray(rows)
    if any(p < 0 for p in prefix):
        raise ValueError("seed entropy must be nonnegative")
    if rows.ndim != 1 or len(rows) != len(sizes):
        raise ValueError("need one size per row")
    if rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0
                      or rows.max() > _MASK32):
        raise ValueError("rows must be integers in [0, 2**32)")
    entropy = [w for p in prefix for w in _words(p)]
    entropy.append(rows.astype(np.uint32))
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    seeded = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": seeded, "has_uint32": 0,
            "uinteger": 0}
    out = []
    states = _pcg64_states(_pool(entropy), rows.size)
    for (state, inc), n in zip(states, sizes):
        seeded["state"], seeded["inc"] = state, inc
        bit_generator.state = full
        out.append(generator.permutation(n))
    return out
