"""Slow literal reference paths for cross-validation.

Everything here is written straight from the defining sums with plain
Python loops — no FFT shortcuts, no precomputed interaction plans, no jit.
These are the independent second opinions the fast kernels are required to
match (typically to 1e-12); the oracle suite and the test suite both run
them.  Complexity is whatever the definition costs, so keep the sizes
small.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .chain import FractionalParams
from .kinetic import ResonanceRule, omega_grid
from .lattice import TorusGrid, delta_mod, dispersion_bar, nodes, wavenumbers
from .vlasov import PhaseGrid, r_centers

__all__ = [
    "dft_direct",
    "inverse_dft_direct",
    "doubled_shifted",
    "wave_rhs_direct",
    "hamiltonian_direct",
    "collision_direct",
    "chain_force_pairs",
    "verlet_pairs",
    "verlet_longdouble",
    "chain_potential_pairs",
    "sigma_field_unfactorized",
    "shift_lines_loop",
    "free_streaming_density",
    "pcg64_outputs_loop",
    "pcg64_uniforms_loop",
    "ziggurat_attempts_loop",
    "ziggurat_normals_loop",
]


def _site_iter(grid: TorusGrid):
    return itertools.product(range(grid.m), repeat=grid.d)


def dft_direct(grid: TorusGrid, f: np.ndarray) -> np.ndarray:
    """Transform as the literal site sum ``h^d sum_x f(x) e^(-2 pi i k.x)``."""
    out = np.zeros(grid.shape, dtype=np.complex128)
    kmesh = wavenumbers(grid)
    for j in _site_iter(grid):
        x = np.array(j, dtype=np.float64) * grid.h
        phase = np.exp(-2j * np.pi * np.tensordot(kmesh, x, axes=(-1, 0)))
        out += f[j] * phase
    return grid.h**grid.d * out


def inverse_dft_direct(grid: TorusGrid, fhat: np.ndarray) -> np.ndarray:
    """Inverse as the literal wavenumber sum ``sum_k fhat(k) e^(2 pi i k.x)``."""
    out = np.zeros(grid.shape, dtype=np.complex128)
    kmesh = wavenumbers(grid)
    for j in _site_iter(grid):
        x = np.array(j, dtype=np.float64) * grid.h
        phase = np.exp(2j * np.pi * np.tensordot(kmesh, x, axes=(-1, 0)))
        out[j] = np.sum(fhat * phase)
    return out


def doubled_shifted(b: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The layout the wave oracles read, from ``a(+)`` in FFT order:
    ``batch + (2,) + (m,)*d``, the pair ``(a(+), conj a(+))`` in ascending
    wavenumber order, so ``a[..., 0, k + D] = a(+)(k)``."""
    plus = np.fft.fftshift(b, axes=tuple(range(b.ndim - grid.d, b.ndim)))
    return np.stack([plus, np.conj(plus)], axis=b.ndim - grid.d)


def wave_rhs_direct(a: np.ndarray, grid: TorusGrid, lam: float) -> np.ndarray:
    """Amplitude derivative from the defining constrained triple sum, on the
    layout of :func:`doubled_shifted`.

    Enumerates every (sign1, k1, sign2, k2) combination with the quadrature
    weight ``h**(2d)``, keeps those the modular momentum delta selects, and
    applies the interaction weight ``[8 w(k) w(k1) w(k2)]^-1``; modes with
    vanishing dispersion neither couple nor move.  O(m^(2d)) per output
    mode — test sizes only.
    """
    D = grid.m // 2
    ks = [np.array(k) for k in itertools.product(range(-D, D + 1), repeat=grid.d)]
    wbar = {tuple(k): dispersion_bar(grid, tuple(k)) for k in ks}
    idx = {tuple(k): tuple(k + D) for k in ks}
    out = np.zeros_like(a)
    signs = (1.0, -1.0)
    for si, sigma in enumerate(signs):
        for k in ks:
            wk = wbar[tuple(k)]
            lin = -1j * sigma * wk * a[(si,) + idx[tuple(k)]]
            acc = 0.0 + 0.0j
            if wk > 0.0 and lam != 0.0:
                for s1, sig1 in enumerate(signs):
                    for s2, sig2 in enumerate(signs):
                        for k1 in ks:
                            w1 = wbar[tuple(k1)]
                            if w1 == 0.0:
                                continue
                            for k2 in ks:
                                w2 = wbar[tuple(k2)]
                                if w2 == 0.0:
                                    continue
                                sel = delta_mod(
                                    grid, tuple(sig1 * k1 + sig2 * k2 - sigma * k)
                                )
                                if sel == 0.0:
                                    continue
                                weight = (
                                    grid.h ** (2 * grid.d) * sel / (8.0 * wk * w1 * w2)
                                )
                                acc += (
                                    weight
                                    * a[(s1,) + idx[tuple(k1)]]
                                    * a[(s2,) + idx[tuple(k2)]]
                                )
            out[(si,) + idx[tuple(k)]] = lin - 1j * sigma * lam * acc
    return out


def hamiltonian_direct(a: np.ndarray, grid: TorusGrid, lam: float) -> complex:
    """Energy from the defining sums, on the layout of :func:`doubled_shifted`:
    quadratic term plus ``lam / 3!`` times the sign-symmetric constrained
    triple sum with weight ``h^d M``.

    Enumerates all (sign0, k0, sign1, k1, sign2, k2) and keeps the words
    the modular delta over ``s0 k0 + s1 k1 + s2 k2`` selects.  Each word is
    met once per ordering of its three factors, 3! times; the ``1/3!``
    undoes that and gives the energy the flow conserves.  O(m^(3d)).
    """
    D = grid.m // 2
    ks = [np.array(k) for k in itertools.product(range(-D, D + 1), repeat=grid.d)]
    wbar = {tuple(k): dispersion_bar(grid, tuple(k)) for k in ks}
    idx = {tuple(k): tuple(k + D) for k in ks}
    h1 = 0.0
    for k in ks:
        h1 += 0.5 * wbar[tuple(k)] * abs(a[(0,) + idx[tuple(k)]]) ** 2
    h2 = 0.0 + 0.0j
    signs = (1.0, -1.0)
    live = [k for k in ks if wbar[tuple(k)] > 0.0]
    for s0, sig0 in enumerate(signs):
        for s1, sig1 in enumerate(signs):
            for s2, sig2 in enumerate(signs):
                for k0 in live:
                    for k1 in live:
                        for k2 in live:
                            if delta_mod(grid, tuple(sig0 * k0 + sig1 * k1 + sig2 * k2)) == 0.0:
                                continue
                            m = 1.0 / (8.0 * wbar[tuple(k0)] * wbar[tuple(k1)] * wbar[tuple(k2)])
                            h2 += (
                                m
                                * a[(s0,) + idx[tuple(k0)]]
                                * a[(s1,) + idx[tuple(k1)]]
                                * a[(s2,) + idx[tuple(k2)]]
                            )
    return h1 + lam * grid.h**grid.d * h2 / math.factorial(3)


def collision_direct(
    f: np.ndarray, grid: TorusGrid, rule: ResonanceRule
) -> np.ndarray:
    """Collision rate as the literal double quadrature over (k1, k2) nodes.

    Both momentum deltas are resolved by explicit node matching; the
    frequency delta uses the rule's broadened profile.  Weight per retained
    pair is the quadrature measure ``m^-d``.
    """
    m = grid.m
    omega = omega_grid(grid).reshape(-1)
    flat = np.asarray(f, dtype=np.float64).reshape(-1)
    jv = (nodes(grid).reshape(-1, grid.d) * m).round().astype(np.int64)
    n = flat.size
    live = omega >= rule.omega_floor

    def phi(u: float) -> float:
        if rule.profile == "gaussian":
            return float(
                np.exp(-0.5 * (u / rule.epsilon) ** 2)
                / (rule.epsilon * np.sqrt(2.0 * np.pi))
            )
        return float((rule.epsilon / np.pi) / (u * u + rule.epsilon**2))

    flat_of = {}
    for i in range(n):
        flat_of[tuple(jv[i] % m)] = i
    out = np.zeros(n)
    for ik in range(n):
        if not live[ik]:
            continue
        acc = 0.0
        for i1 in range(n):
            if not live[i1]:
                continue
            for i2 in range(n):
                if not live[i2]:
                    continue
                kern = 1.0 / (8.0 * omega[ik] * omega[i1] * omega[i2])
                if flat_of[tuple((jv[i1] + jv[i2]) % m)] == ik:
                    acc += (
                        kern
                        * phi(omega[ik] - omega[i1] - omega[i2])
                        * (
                            flat[i1] * flat[i2]
                            - flat[ik] * flat[i1]
                            - flat[ik] * flat[i2]
                        )
                    )
                if flat_of[tuple((jv[ik] + jv[i2]) % m)] == i1:
                    acc -= 2.0 * (
                        kern
                        * phi(omega[i1] - omega[ik] - omega[i2])
                        * (
                            flat[i2] * flat[ik]
                            - flat[ik] * flat[i1]
                            - flat[i1] * flat[i2]
                        )
                    )
        out[ik] = acc / m**grid.d
    return out.reshape(f.shape)


def chain_force_pairs(
    r: np.ndarray, geom: TorusGrid, fp: FractionalParams
) -> np.ndarray:
    """Acceleration from the literal pair sum with minimal-image distances.

    ``r`` is ``(..., n_nodes)``; each pair term is added for all leading
    (replica) entries at once.
    """
    x = nodes(geom).reshape(-1, geom.d).tolist()
    n = geom.n_nodes
    cols = np.moveaxis(np.asarray(r, dtype=np.float64), -1, 0)
    out = np.zeros(cols.shape)
    for i in range(n):
        acc = np.zeros(cols.shape[1:])
        for j in range(n):
            if i == j:
                continue
            # minimal image on the unit torus, per axis
            diff = [b - a - round(b - a) for a, b in zip(x[i], x[j])]
            dist = math.sqrt(sum(c * c for c in diff))
            acc += (cols[j] - cols[i]) / dist ** (geom.d + 2.0 * fp.alpha)
        out[i] = geom.h**geom.d * acc
    return np.moveaxis(out, 0, -1)


def verlet_pairs(
    r: np.ndarray,
    v: np.ndarray,
    geom: TorusGrid,
    fp: FractionalParams,
    dt: float,
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Velocity Verlet in real space, with :func:`chain_force_pairs` as the force."""
    r, v = np.asarray(r, dtype=np.float64), np.asarray(v, dtype=np.float64)
    f = chain_force_pairs(r, geom, fp)
    for _ in range(n_steps):
        v_half = v + 0.5 * dt * f
        r = r + dt * v_half
        f = chain_force_pairs(r, geom, fp)
        v = v_half + 0.5 * dt * f
    return r, v


def verlet_longdouble(
    r: np.ndarray,
    v: np.ndarray,
    geom: TorusGrid,
    fp: FractionalParams,
    dt: float,
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Velocity Verlet in real space with every operation in ``np.longdouble``.

    The force is the pair sum of :func:`chain_force_pairs` written as a
    matrix, its weights taken from the exact minimal-image offsets
    ``k / n`` per axis.  On x86-64 the loop's round-off is some 2000 times
    below float64's, so after a few hundred steps it still stands for the
    exact Verlet map at float64 precision.  Where ``longdouble`` is plain
    float64 it is the stepped loop again, with that loop's round-off.
    """
    ld = np.longdouble
    n, d = geom.m, geom.d
    sites = list(itertools.product(range(n), repeat=d))
    k = np.zeros((geom.n_nodes, geom.n_nodes), dtype=ld)
    for i, a in enumerate(sites):
        for j, b in enumerate(sites):
            if i != j:
                offsets = [min((q - p) % n, (p - q) % n) for p, q in zip(a, b)]
                dist2 = sum(ld(o) ** 2 for o in offsets) / ld(n) ** 2
                k[i, j] = dist2 ** (-(d + 2.0 * ld(fp.alpha)) / 2)
    k -= np.diag(k.sum(axis=1))
    k /= ld(n) ** d  # h^d
    r, v, dt = np.asarray(r, dtype=ld), np.asarray(v, dtype=ld), ld(dt)
    f = r @ k  # k is symmetric
    for _ in range(n_steps):
        v_half = v + dt / 2 * f
        r = r + dt * v_half
        f = r @ k
        v = v_half + dt / 2 * f
    return r, v


def chain_potential_pairs(
    r: np.ndarray, geom: TorusGrid, fp: FractionalParams
) -> float:
    """Potential from the literal pair sum, ``(h^d/4) sum (r_j - r_i)^2 w``."""
    x = nodes(geom).reshape(-1, geom.d)
    n = geom.n_nodes
    acc = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            diff = x[j] - x[i]
            diff = diff - np.round(diff)
            dist = float(np.sqrt(np.sum(diff * diff)))
            acc += (r[j] - r[i]) ** 2 / dist ** (geom.d + 2.0 * fp.alpha)
    return 0.25 * geom.h**geom.d * acc


def _frac_laplacian_matrix(mx: int, alpha: float) -> np.ndarray:
    """Real-space ``(-Dx)^a`` on ``mx`` periodic cells, entry by entry:
    ``M[j, l] = (1/mx) sum_k |2 pi k|^(2a) cos 2 pi k (x_j - x_l)`` over the
    ``mx`` wavenumbers ``-(mx // 2) <= k < (mx + 1) // 2``."""
    out = np.zeros((mx, mx))
    for j in range(mx):
        for l in range(mx):
            acc = 0.0
            for k in range(-(mx // 2), (mx + 1) // 2):
                mult = abs(2.0 * math.pi * k) ** (2.0 * alpha)
                acc += mult * math.cos(2.0 * math.pi * k * (j - l) / mx)
            out[j, l] = acc / mx
    return out


def sigma_field_unfactorized(
    g: np.ndarray, grid: PhaseGrid, fp: FractionalParams
) -> np.ndarray:
    """Force field with the operator applied inside the phase quadrature.

    For every (r-cell, v-cell) the x-profile ``(r - r_cell) g(., cell)`` is
    pushed through the real-space fractional Laplacian separately and the
    results are accumulated: no moment factorization and no FFT anywhere.
    """
    lap = _frac_laplacian_matrix(grid.mx, fp.alpha)
    rc = r_centers(grid)
    w = grid.dr * grid.dv
    out = np.zeros((grid.mx, grid.mr))
    for jr in range(grid.mr):
        for jv in range(grid.mv):
            column = g[:, jr, jv]  # x-profile of this phase cell
            for ir in range(grid.mr):
                out[:, ir] += w * (lap @ ((rc[ir] - rc[jr]) * column))
    return out


def shift_lines_loop(arr: np.ndarray, shifts: np.ndarray, axis: int) -> np.ndarray:
    """Semi-Lagrangian line shift, one grid line and one output cell at a time.

    Line ``l`` along ``axis`` moves by ``s = shifts[l]`` cells (``shifts``
    has length 1 on ``axis`` and broadcasts over the other axes).  Output
    cell p reads position ``q = p - s``, computed exactly as a fraction;
    cells outside the line read as zero.  The value weighs the two
    bracketing cells linearly, by the exact fractional part of q rounded
    once to a float.  Shifts must be finite.
    """
    arr = np.asarray(arr, dtype=np.float64)
    s_full = np.broadcast_to(shifts, arr.shape[:axis] + (1,) + arr.shape[axis + 1 :])
    n = arr.shape[axis]
    out = np.zeros(arr.shape)
    for line in np.ndindex(*(arr.shape[:axis] + arr.shape[axis + 1 :])):
        before, after = line[:axis], line[axis:]
        s = float(s_full[before + (0,) + after])

        def f(i):
            return float(arr[before + (i,) + after]) if 0 <= i < n else 0.0

        for p in range(n):
            q = Fraction(p) - Fraction(s)
            i0 = math.floor(q)
            th = float(q - i0)
            out[before + (p,) + after] = (1.0 - th) * f(i0) + th * f(i0 + 1)
    return out


def free_streaming_density(law, grid, t: float) -> np.ndarray:
    """Exact x-homogeneous transport solution ``g0(r - v t, v)`` on cell centers."""
    from .vlasov import v_centers, x_centers

    x = x_centers(grid).reshape(grid.mx, 1)
    r = r_centers(grid)[:, None]
    v = v_centers(grid)[None, :]
    return law.density(x, r - v * t, v)


def pcg64_outputs_loop(seed: int, replica: int):
    """numpy's ``default_rng(SeedSequence([seed, replica]))`` draws as 64-bit
    Python integers, one LCG step at a time, without end.

    SeedSequence hashes the entropy words of ``seed`` and ``replica`` (32
    bits each, least significant first) into a four-word pool, mixes it and
    hashes it out to four 64-bit seed words; PCG64 steps ``x -> M x + inc``
    modulo 2**128 and outputs the XSL-RR of each new state.
    """
    m32, m64, m128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1

    def words(v):
        out = [v & m32]
        while v > m32:
            v >>= 32
            out.append(v & m32)
        return out

    entropy = words(seed) + words(replica)
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & m32
        value = value * const & m32
        return value ^ (value >> 16)

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & m32
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    const, state32 = 0x8B51F9DD, []
    for k in range(8):
        value = pool[k % 4] ^ const
        const = const * 0x58F38DED & m32
        value = value * const & m32
        state32.append(value ^ (value >> 16))
    s = [state32[2 * k] | state32[2 * k + 1] << 32 for k in range(4)]

    mult = (2549297995355413924 << 64) + 4865540595714422341
    inc = ((s[2] << 64 | s[3]) << 1 | 1) & m128
    x = inc  # one step from the zero state
    x = ((x + (s[0] << 64 | s[1])) * mult + inc) & m128
    while True:
        x = (x * mult + inc) & m128
        xored, rot = (x >> 64) ^ (x & m64), x >> 122
        yield ((xored >> rot) | (xored << (64 - rot))) & m64


def pcg64_uniforms_loop(seed: int, replica: int, n: int) -> np.ndarray:
    """The first ``n`` of numpy's
    ``default_rng(SeedSequence([seed, replica])).random()`` draws: the top
    53 bits of each draw of :func:`pcg64_outputs_loop` times ``2**-53``."""
    draws = pcg64_outputs_loop(seed, replica)
    return np.array([(next(draws) >> 11) * 2.0**-53 for _ in range(n)])


def ziggurat_attempts_loop(seed: int, replica: int):
    """numpy's ``default_rng(SeedSequence([seed, replica])).standard_normal()``
    attempts, one at a time from :func:`pcg64_outputs_loop`, as numpy's C
    code makes them (``random_standard_normal``: the 256-layer ziggurat of
    Marsaglia & Tsang with numpy's tables), without end.

    Yields ``(path, x)``: the path ``"fast"``, ``"wedge"`` or ``"tail"`` of
    each normal ``x``, and ``("wedge-rejected", None)`` for an attempt that
    starts over.
    """
    from ._ziggurat import FI, INV_R, KI, R, WI

    draws = pcg64_outputs_loop(seed, replica)

    def next_double():
        return (next(draws) >> 11) * 2.0**-53

    ki, wi, fi = KI.tolist(), WI.tolist(), FI.tolist()
    while True:
        r = next(draws)
        idx = r & 0xFF
        r >>= 8
        sign = r & 0x1
        rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
        x = rabs * wi[idx]
        if sign & 0x1:
            x = -x
        if rabs < ki[idx]:
            yield "fast", x
        elif idx == 0:
            while True:
                xx = -INV_R * math.log1p(-next_double())
                yy = -math.log1p(-next_double())
                if yy + yy > xx * xx:
                    yield "tail", -(R + xx) if (rabs >> 8) & 0x1 else R + xx
                    break
        elif (fi[idx - 1] - fi[idx]) * next_double() + fi[idx] < math.exp(-0.5 * x * x):
            yield "wedge", x
        else:
            yield "wedge-rejected", None


def ziggurat_normals_loop(seed: int, replica: int, n: int) -> np.ndarray:
    """The first ``n`` normals of :func:`ziggurat_attempts_loop`."""
    normals = (x for _, x in ziggurat_attempts_loop(seed, replica) if x is not None)
    return np.array(list(itertools.islice(normals, n)))
