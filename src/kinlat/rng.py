"""Uniform draws of the wave lane: numpy's seeded PCG64 stream, computed here.

``uniforms(seed, replicas, shape)`` returns, bit for bit, what
``np.random.default_rng(np.random.SeedSequence([seed, i])).random(shape)``
returns for each replica ``i``, without importing ``numpy.random`` (which
loads ``secrets``, ``hashlib`` and OpenSSL's libcrypto, about 6 MiB).  The
three pieces are numpy's own algorithms, written in numpy ``uint32`` and
``uint64`` arithmetic over whole arrays of replicas and draws:

* SeedSequence: the entropy words (those of ``seed``, then those of ``i``,
  32 bits each, least significant first) are hashed into a pool of four
  words and mixed, and ``generate_state(4, uint64)`` hashes the pool out
  into the seed words ``s0 .. s3``;
* PCG64 (O'Neill, "PCG: A family of simple fast space-efficient
  statistically good algorithms for random number generation",
  HMC-CS-2014-0905): the 128-bit LCG ``x -> M x + inc`` started from
  ``inc = (s2:s3 << 1) | 1`` and ``x0 = (inc + s0:s1) M + inc``, whose
  ``j``-th draw (from 1) is the XSL-RR output of ``x_j``;
* ``random()``: the top 53 bits of a draw times ``2**-53``.

``x_j = A_j x0 + B_j inc (mod 2**128)`` with the cached jump constants
``A_j = M**j`` and ``B_j = sum_{t<j} M**t``, so every draw is a pure
function of (seed, replica, draw index).  Draws are made in blocks of
whole replicas, at most ``BLOCK`` draws or one replica, so no temporary
grows with the ensemble; the only ensemble-sized array is the result.

NumPy does not promise that ``Generator`` streams stay the same across its
versions (NEP 19), so this stream equals numpy's today and is kinlat's own
from here on.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["uniforms", "uniform_blocks"]

# draws per block: every temporary of a block holds at most this many words
BLOCK = 4096

MASK32 = 0xFFFFFFFF
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1
# SeedSequence's hash and mix constants (numpy/random/bit_generator.pyx)
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's default 128-bit multiplier
PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def uniforms(seed: int, replicas, shape: tuple[int, ...]) -> np.ndarray:
    """Uniforms on [0, 1) of each replica's stream ``[seed, i]``, shape
    ``(len(replicas),) + shape``.

    ``replicas`` holds replica indices in ``[0, 2**32)``, one entropy word
    each; row ``r`` is numpy's
    ``default_rng(SeedSequence([seed, replicas[r]])).random(shape)``.
    """
    out = np.empty((len(replicas),) + tuple(shape))
    for rows, u in uniform_blocks(seed, replicas, shape):
        out[rows] = u
    return out


def uniform_blocks(seed: int, replicas, shape: tuple[int, ...]):
    """:func:`uniforms` block by block: yields ``(rows, u)``, the slice of
    ``replicas`` a block covers and its uniforms, shape ``(rows,) + shape``.

    A block has at most ``BLOCK`` draws, or one replica where that has
    more; every temporary of a block is of the block's size.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    ids = np.asarray(replicas)
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise ValueError("replicas must be a sequence of integers")
    if ids.size and (ids.min() < 0 or ids.max() > MASK32):
        raise ValueError("replica indices must lie in [0, 2**32)")
    n = math.prod(shape)
    starts = _starts(seed, ids)
    a_hi, a_lo, b_hi, b_lo = _jumps(n)
    step = max(1, BLOCK // n)
    for r0 in range(0, ids.size, step):
        rows = slice(r0, min(r0 + step, ids.size))
        x0_hi, x0_lo, inc_hi, inc_lo = starts[:, rows, None]
        u = _draws((x0_hi, x0_lo), (inc_hi, inc_lo), (a_hi, a_lo), (b_hi, b_lo))
        yield rows, u.reshape((-1,) + tuple(shape))


def _draws(x0, inc, a, b) -> np.ndarray:
    """``random()`` of the states ``a x0 + b inc``: 128-bit ``(hi, lo)`` pairs,
    replicas down a column against draws along a row."""
    hi, lo = _add128(_mul128(a, x0), _mul128(b, inc))
    # XSL-RR: the two halves xored, rotated right by the top six bits
    x = hi ^ lo
    rot = hi >> 58
    x = (x >> rot) | (x << ((64 - rot) & 63))
    return (x >> 11) * (1.0 / 9007199254740992.0)


def _add128(a, b) -> tuple[np.ndarray, np.ndarray]:
    """``a + b`` modulo 2**128, both ``(hi, lo)`` pairs of ``uint64`` arrays."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]), lo


def _mul128(a, b) -> tuple[np.ndarray, np.ndarray]:
    """``a b`` modulo 2**128, both ``(hi, lo)`` pairs of ``uint64`` arrays."""
    a_hi, a_lo = a
    b_hi, b_lo = b
    a0, a1 = a_lo & MASK32, a_lo >> 32
    b0, b1 = b_lo & MASK32, b_lo >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    carry = ((p00 >> 32) + (p01 & MASK32) + (p10 & MASK32)) >> 32
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + carry + a_lo * b_hi + a_hi * b_lo
    return hi, a_lo * b_lo


@lru_cache(maxsize=8)
def _jumps(n: int) -> tuple[np.ndarray, ...]:
    """``A_j = M**j`` and ``B_j = sum_{t<j} M**t`` for ``j = 1 .. n``, as the
    ``uint64`` arrays ``(A hi, A lo, B hi, B lo)``."""
    a, b, table = 1, 0, []
    for _ in range(n):
        b = (b + a) & MASK128
        a = a * PCG_MULT & MASK128
        table += [a >> 64, a & MASK64, b >> 64, b & MASK64]
    out = np.array(table, dtype=np.uint64).reshape(n, 4).T.copy()
    out.setflags(write=False)
    return tuple(out)


def _starts(seed: int, ids: np.ndarray) -> np.ndarray:
    """Each replica's PCG64 start ``x0`` and increment ``inc``, as the ``uint64``
    rows ``(x0 hi, x0 lo, inc hi, inc lo)``, shape ``(4, replicas)``."""
    words = [np.full(ids.size, w, dtype=np.uint32) for w in _words(seed)]
    s = _generate_state(_pool(words + [ids.astype(np.uint32)]))
    inc = ((s[2] << 1) | (s[3] >> 63), (s[3] << 1) | 1)
    q = _add128(inc, (s[0], s[1]))
    x0 = _add128(_mul128((PCG_MULT >> 64, PCG_MULT & MASK64), q), inc)
    return np.stack(x0 + inc)


def _words(n: int) -> list[int]:
    """SeedSequence's entropy words of ``n``: 32 bits each, least significant first."""
    out = [n & MASK32]
    while n > MASK32:
        n >>= 32
        out.append(n & MASK32)
    return out


class _Hash:
    """SeedSequence's ``hashmix`` over ``uint32`` arrays, with its evolving constant."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = x ^ self.const
        self.const = self.const * self.mult & MASK32
        x = x * self.const
        return x ^ (x >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = MIX_MULT_L * x - MIX_MULT_R * y
    return r ^ (r >> 16)


def _pool(words: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence's mixed entropy pool, four ``uint32`` arrays."""
    hashmix = _Hash(INIT_A, MULT_A)
    zero = np.zeros_like(words[0])
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list[np.ndarray]) -> np.ndarray:
    """``generate_state(4, uint64)``: eight hashed pool words, paired little-endian."""
    hashout = _Hash(INIT_B, MULT_B)
    w = [hashout(pool[k % POOL_SIZE]).astype(np.uint64) for k in range(2 * POOL_SIZE)]
    return np.stack([w[2 * k] | w[2 * k + 1] << 32 for k in range(POOL_SIZE)])
