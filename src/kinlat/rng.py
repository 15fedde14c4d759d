"""Random draws of kinlat: numpy's seeded PCG64 stream, computed here.

``uniforms(seed, replicas, shape)`` and ``normals(seed, replicas, shape)``
return, bit for bit, what
``np.random.default_rng(np.random.SeedSequence([seed, i]))`` returns from
``.random(shape)`` and from ``.standard_normal(shape)`` for each replica
``i``, without importing ``numpy.random`` (which loads ``secrets``,
``hashlib`` and OpenSSL's libcrypto, about 6 MiB).  The wave lane draws its
phases from the uniforms and the chain lane its sites from the normals;
:class:`Stream` reads one stream in order, as one ``Generator`` does.  The
pieces are numpy's own algorithms, written in numpy ``uint32`` and
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
* ``random()``: the top 53 bits of a draw times ``2**-53``;
* ``standard_normal()``: numpy's 256-layer ziggurat (Marsaglia & Tsang,
  "The ziggurat method for generating random variables", J. Stat. Softw.
  5(8), 2000) with numpy's tables (:mod:`kinlat._ziggurat`).  A draw ``u``
  gives the layer ``u & 0xff``, the sign bit 8 and the 52 bits above it,
  ``rabs``; ``x = +-rabs wi[layer]`` is accepted when ``rabs < ki[layer]``,
  as about 98.5% of draws are.  A rejected draw takes numpy's slow path:
  the wedge tests one more ``random()`` against ``exp(-x**2/2)`` and starts
  over when that fails, and layer 0 takes pairs of ``log1p`` draws for the
  tail beyond ``R``.  The accept test runs on whole blocks; only the
  rejected draws are walked in Python, whose ``math.exp`` and
  ``math.log1p`` call the same libm as numpy's C code.

``x_j = A_j x0 + B_j inc (mod 2**128)`` with the jump constants
``A_j = M**j`` and ``B_j = sum_{t<j} M**t``, so every draw is a pure
function of (seed, replica, draw index).  A block splits the draw index as
``j = qK + p`` with ``K`` about the square root of its draws per replica:
``x_{qK+p} = A_p y_q + B_p inc`` with ``y_q = x_{qK}``, and ``B_p inc`` is
computed once per replica and reused over ``q``, so a draw costs one
128-bit product.  Draws are made in blocks of whole replicas, at most
``BLOCK`` draws or one replica, so no temporary grows with the ensemble;
the only ensemble-sized array is the result.

NumPy does not promise that ``Generator`` streams stay the same across its
versions (NEP 19), so these streams equal numpy's today and are kinlat's
own from here on.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["uniforms", "uniform_blocks", "normals", "normal_blocks", "Stream"]

# draws per block: every temporary of a block holds at most this many words
BLOCK = 4096

MASK32 = 0xFFFFFFFF
MASK52 = (1 << 52) - 1
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
    n = math.prod(shape)
    for rows, _, words in _blocks(seed, replicas, n):
        u = _unit(words[:, :n])
        yield rows, u.reshape(u.shape[:1] + tuple(shape))


def normals(seed: int, replicas, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals of each replica's stream ``[seed, i]``, shape
    ``(len(replicas),) + shape``: row ``r`` is numpy's
    ``default_rng(SeedSequence([seed, replicas[r]])).standard_normal(shape)``.
    """
    out = np.empty((len(replicas),) + tuple(shape))
    for rows, z in normal_blocks(seed, replicas, shape):
        out[rows] = z
    return out


def normal_blocks(seed: int, replicas, shape: tuple[int, ...]):
    """:func:`normals` block by block, as :func:`uniform_blocks` yields
    uniforms.  An empty ``shape`` draws nothing and seeds no stream."""
    n = math.prod(shape)
    if n == 0:
        ids = _replica_ids(seed, replicas)
        yield slice(0, ids.size), np.empty((ids.size,) + tuple(shape))
        return
    for rows, start, words in _blocks(seed, replicas, _with_spare(n)):
        z, _ = _normals(start, words, n)
        yield rows, z.reshape(z.shape[:1] + tuple(shape))


class Stream:
    """One stream ``[seed, replica]`` read in order, as numpy's
    ``default_rng(SeedSequence([seed, replica]))`` reads it: :meth:`random`
    takes one draw per value, :meth:`standard_normal` one or more."""

    def __init__(self, seed: int, replica: int):
        start = _starts(seed, _replica_ids(seed, [replica]))[:, 0].tolist()
        self._x0, self._inc = start[0] << 64 | start[1], start[2] << 64 | start[3]
        self._drawn = 0

    def random(self, shape: tuple[int, ...]) -> np.ndarray:
        n = math.prod(shape)
        u = _unit(_outputs(self._start(), n))
        self._drawn += n
        return u.reshape(shape)

    def standard_normal(self, shape: tuple[int, ...]) -> np.ndarray:
        n, start = math.prod(shape), self._start()
        z, used = _normals(start, _outputs(start, _with_spare(n)), n)
        self._drawn += int(used[0])
        return z.reshape(shape)

    def _start(self) -> np.ndarray:
        """The start rows (see :func:`_starts`) of the stream past its draws so far."""
        a, b = _jump(self._drawn)
        x = (a * self._x0 + b * self._inc) & MASK128
        words = [x >> 64, x & MASK64, self._inc >> 64, self._inc & MASK64]
        return np.array(words, dtype=np.uint64).reshape(4, 1)


def _replica_ids(seed: int, replicas) -> np.ndarray:
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    ids = np.asarray(replicas)
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise ValueError("replicas must be a sequence of integers")
    if ids.size and (ids.min() < 0 or ids.max() > MASK32):
        raise ValueError("replica indices must lie in [0, 2**32)")
    return ids


def _blocks(seed: int, replicas, n: int):
    """Yields ``(rows, start, words)``: blocks of ``BLOCK // n`` replicas (at
    least one), their start rows (see :func:`_starts`), shape ``(4, rows)``,
    and their draws (see :func:`_outputs`), at least ``n`` per replica.

    The replicas' grid terms (see :func:`_terms`) are made for as many
    whole blocks at a time as ``BLOCK`` words of them hold.
    """
    ids = _replica_ids(seed, replicas)
    starts = _starts(seed, ids)
    k, q = _split(n)
    step = max(1, BLOCK // n)
    group = step * max(1, BLOCK // (step * (2 * q + k)))
    for g0 in range(0, ids.size, group):
        y, c = _terms(starts[:, g0 : g0 + group], k, q)
        for r0 in range(g0, min(g0 + group, ids.size), step):
            rows = slice(r0, min(r0 + step, ids.size))
            part = slice(rows.start - g0, rows.stop - g0)
            yield rows, starts[:, rows], _grid([h[part] for h in y], [h[part] for h in c], k, q)


def _outputs(start: np.ndarray, n: int) -> np.ndarray:
    """The XSL-RR outputs of draws ``1 .. n`` of each stream, shape
    ``(streams, n)``, from the start rows ``(x0 hi, x0 lo, inc hi, inc lo)``."""
    k, q = _split(n)
    return _grid(*_terms(start, k, q), k, q)[:, :n]


def _terms(start: np.ndarray, k: int, q: int):
    """Each stream's ``y_q = x_{qK}`` for ``q < Q`` and ``B_p inc`` for
    ``1 <= p <= K``, as ``(hi, lo)`` pairs: ``2Q + K`` products in one."""
    t = _tables(k, q)[1]
    x0_inc = [np.repeat(np.stack(pair, axis=1), (q, q + k), axis=1) for pair in (start[::2], start[1::2])]
    p_hi, p_lo = _mul128(t, x0_inc)
    y = _add128((p_hi[:, :q], p_lo[:, :q]), (p_hi[:, q : 2 * q], p_lo[:, q : 2 * q]))
    return y, (p_hi[:, 2 * q :], p_lo[:, 2 * q :])


def _grid(y, c, k: int, q: int) -> np.ndarray:
    """The XSL-RR outputs of draws ``qK + p`` (``q < Q``, ``1 <= p <= K``) of
    each stream, ``A_p y_q + B_p inc`` from its terms, shape ``(streams, QK)``."""
    hi, lo = _mul128(_tables(k, q)[0], [np.repeat(half, k, axis=1) for half in y])
    rows = (len(hi), q, k)
    hi, lo = _add128((hi.reshape(rows), lo.reshape(rows)), (c[0][:, None], c[1][:, None]))
    # XSL-RR: the two halves xored, rotated right by the top six bits
    x = hi ^ lo
    rot = hi >> 58
    x = (x >> rot) | (x << ((64 - rot) & 63))
    return x.reshape(len(x), -1)


def _unit(words):
    """``random()`` of raw draws (an array or one int): the top 53 bits times ``2**-53``."""
    return (words >> 11) * (1.0 / 9007199254740992.0)


def _with_spare(n: int) -> int:
    """The draws a stream takes for ``n`` normals: ``n`` and a few more for the
    rejections' slow paths, rounded up to a whole grid (see :func:`_split`)."""
    k, q = _split(n + n // 32 + 16)
    return k * q


def _normals(start: np.ndarray, words: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` standard normals of each stream from its draws ``words``, shape
    ``(streams, n)``, and the draws each stream used; when a stream needs
    more draws than it has (rare), the streams are drawn again, twice as many."""
    while (got := _ziggurat(words, n)) is None:
        words = _outputs(start, 2 * words.shape[1])
    return got


def _ziggurat(words: np.ndarray, n: int):
    """numpy's ``standard_normal`` over each row of raw draws: ``n`` normals
    per row and the draws each row used, or ``None`` when a row runs out."""
    from ._ziggurat import FI, KI, WI

    rows, size = words.shape
    layer = (words & 0xFF).view(np.intp)
    rabs = (words >> 9) & MASK52
    z = rabs * WI[layer]
    # x = rabs wi >= +0, so setting bit 63 negates it exactly, zero included
    z.view(np.uint64)[...] |= (words & 0x100) << 55
    # each rejected draw's wedge test, as if it started a normal: numpy's
    # operations in its order, and libm's exp; past a row's end only for a
    # row that then runs out
    at = np.flatnonzero(rabs >= KI[layer])
    lay = layer.ravel()[at]
    x = z.ravel()[at]
    u = _unit(words.ravel()[np.minimum(at + 1, words.size - 1)])
    wedge = (FI[lay - 1] - FI[lay]) * u + FI[lay]
    test = zip(lay.tolist(), wedge.tolist(), (-0.5 * x * x).tolist())
    accept = [None if k == 0 else w < math.exp(e) for k, w, e in test]
    at = at.tolist()
    bounds = np.searchsorted(at, np.arange(rows + 1) * size).tolist()
    used, drop, tails = [], [], []
    for row in range(rows):
        lo, hi = bounds[row], bounds[row + 1]
        got = _walk(words[row], at[lo:hi], accept[lo:hi], row * size, n)
        if got is None:
            return None
        used.append(got[0])
        drop += got[1]
        tails += got[2]
    keep = np.arange(size) < np.array(used)[:, None]
    keep.ravel()[drop] = False
    if tails:
        index, value = zip(*tails)
        z.ravel()[list(index)] = value
    return z[keep].reshape(rows, n), np.array(used)


def _walk(w: np.ndarray, at: list[int], accept: list, base: int, n: int):
    """One row of :func:`_ziggurat`, in numpy's order: its draws ``w``, the
    flat indices ``at`` (from ``base``) of its rejected draws and their
    wedge tests (``None`` on layer 0).

    Returns the draws the row's ``n`` normals used, the flat indices of its
    draws that make no normal, and ``(flat index, value)`` for each normal
    from the tail; ``None`` when the row needs more than ``len(w)`` draws.
    """
    from ._ziggurat import INV_R, R

    start, made = 0, 0  # the draw the next normal starts at, normals made
    drop, tails = [], []
    for flat, ok in zip(at, accept):
        j = flat - base
        if j < start:  # an extra draw of an earlier slow path
            continue
        if made + j - start >= n:
            break
        made += j - start
        if ok is not None:  # the wedge: one more uniform against exp(-x**2 / 2)
            if j + 2 > len(w):
                return None
            if ok:
                made += 1
            else:
                drop.append(flat)
            drop.append(flat + 1)
            start = j + 2
        else:  # layer 0: the tail beyond R, from pairs of log1p draws
            t = j + 1
            while True:
                if t + 2 > len(w):
                    return None
                xx = -INV_R * math.log1p(-_unit(int(w[t])))
                yy = -math.log1p(-_unit(int(w[t + 1])))
                t += 2
                if yy + yy > xx * xx:
                    break
            tails.append((flat, -(R + xx) if (int(w[j]) >> 17) & 1 else R + xx))
            drop += range(flat + 1, base + t)
            made += 1
            start = t
        if made == n:
            return start, drop, tails
    if made + len(w) - start < n:
        return None
    return start + n - made, drop, tails


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
    # the high word of a_lo b_lo from 32-bit halves; no partial sum overflows
    u = a1 * b0 + ((a0 * b0) >> 32)
    w = a0 * b1 + (u & MASK32)
    hi = a1 * b1 + (u >> 32) + (w >> 32) + a_lo * b_hi + a_hi * b_lo
    return hi, a_lo * b_lo


def _split(n: int) -> tuple[int, int]:
    """``(K, Q)``: ``K`` about ``sqrt(n)`` and ``Q K >= n``."""
    k = math.isqrt(n - 1) + 1
    return k, -(-n // k)


def _jump(j: int) -> tuple[int, int]:
    """``(A_j, B_j)``: ``M**j`` and ``sum_{t<j} M**t`` modulo 2**128."""
    # M = 1 modulo M - 1, so M**j - 1 taken modulo (M - 1) 2**128 divides exactly
    b = (pow(PCG_MULT, j, (PCG_MULT - 1) << 128) - 1) // (PCG_MULT - 1)
    return pow(PCG_MULT, j, 1 << 128), b & MASK128


@lru_cache(maxsize=16)
def _tables(k: int, q: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The jump constants a grid of ``(K, Q)`` reads, as ``(hi, lo)`` pairs of
    read-only ``uint64`` arrays: ``A_p`` for ``1 <= p <= K`` tiled ``Q``
    times, then ``A_{qK}`` and ``B_{qK}`` for ``q < Q`` followed by ``B_p``
    for ``1 <= p <= K``."""
    a_k, b_k = _jump(k)
    a_p, b_p, a_q, b_q = [PCG_MULT], [1], [1], [0]
    for _ in range(1, k):
        # A_{j+1} = M A_j and B_{j+1} = M B_j + 1
        a_p.append(a_p[-1] * PCG_MULT & MASK128)
        b_p.append((b_p[-1] * PCG_MULT + 1) & MASK128)
    for _ in range(1, q):
        # A_{j+K} = A_K A_j and B_{j+K} = A_K B_j + B_K
        a_q.append(a_q[-1] * a_k & MASK128)
        b_q.append((b_q[-1] * a_k + b_k) & MASK128)
    out = []
    for values in (a_p * q, a_q + b_q + b_p):
        pair = np.array([[v >> 64 for v in values], [v & MASK64 for v in values]], dtype=np.uint64)
        pair.setflags(write=False)
        out.append(tuple(pair))
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
