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

from .chain import ChainGeometry, FractionalParams, site_coordinates
from .kinetic import ResonanceRule, TorusGrid, nodes, omega_grid
from .lattice import LatticeSpec, delta_mod, dispersion_bar, wavenumbers
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
]


def _site_iter(spec: LatticeSpec):
    return itertools.product(range(spec.N), repeat=spec.d)


def dft_direct(spec: LatticeSpec, f: np.ndarray) -> np.ndarray:
    """Transform as the literal site sum ``h^d sum_x f(x) e^(-2 pi i k.x)``."""
    out = np.zeros(spec.shape, dtype=np.complex128)
    kmesh = wavenumbers(spec)
    for j in _site_iter(spec):
        x = np.array(j, dtype=np.float64) * spec.h
        phase = np.exp(-2j * np.pi * np.tensordot(kmesh, x, axes=(-1, 0)))
        out += f[j] * phase
    return spec.h**spec.d * out


def inverse_dft_direct(spec: LatticeSpec, fhat: np.ndarray) -> np.ndarray:
    """Inverse as the literal wavenumber sum ``sum_k fhat(k) e^(2 pi i k.x)``."""
    out = np.zeros(spec.shape, dtype=np.complex128)
    kmesh = wavenumbers(spec)
    for j in _site_iter(spec):
        x = np.array(j, dtype=np.float64) * spec.h
        phase = np.exp(2j * np.pi * np.tensordot(kmesh, x, axes=(-1, 0)))
        out[j] = np.sum(fhat * phase)
    return out


def doubled_shifted(b: np.ndarray, spec: LatticeSpec) -> np.ndarray:
    """The layout the wave oracles read, from ``a(+)`` in FFT order:
    ``batch + (2,) + (N,)*d``, the pair ``(a(+), conj a(+))`` in ascending
    wavenumber order, so ``a[..., 0, k + D] = a(+)(k)``."""
    plus = np.fft.fftshift(b, axes=tuple(range(b.ndim - spec.d, b.ndim)))
    return np.stack([plus, np.conj(plus)], axis=b.ndim - spec.d)


def wave_rhs_direct(a: np.ndarray, spec: LatticeSpec, lam: float) -> np.ndarray:
    """Amplitude derivative from the defining constrained triple sum, on the
    layout of :func:`doubled_shifted`.

    Enumerates every (sign1, k1, sign2, k2) combination with the quadrature
    weight ``h**(2d)``, keeps those the modular momentum delta selects, and
    applies the interaction weight ``[8 w(k) w(k1) w(k2)]^-1``; modes with
    vanishing dispersion neither couple nor move.  O(N^(2d)) per output
    mode — test sizes only.
    """
    ks = [np.array(k) for k in itertools.product(range(-spec.D, spec.D + 1), repeat=spec.d)]
    wbar = {tuple(k): dispersion_bar(spec, tuple(k)) for k in ks}
    idx = {tuple(k): tuple(k + spec.D) for k in ks}
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
                                    spec, tuple(sig1 * k1 + sig2 * k2 - sigma * k)
                                )
                                if sel == 0.0:
                                    continue
                                weight = (
                                    spec.h ** (2 * spec.d) * sel / (8.0 * wk * w1 * w2)
                                )
                                acc += (
                                    weight
                                    * a[(s1,) + idx[tuple(k1)]]
                                    * a[(s2,) + idx[tuple(k2)]]
                                )
            out[(si,) + idx[tuple(k)]] = lin - 1j * sigma * lam * acc
    return out


def hamiltonian_direct(a: np.ndarray, spec: LatticeSpec, lam: float) -> complex:
    """Energy from the defining sums, on the layout of :func:`doubled_shifted`:
    quadratic term plus ``lam / 3!`` times the sign-symmetric constrained
    triple sum with weight ``h^d M``.

    Enumerates all (sign0, k0, sign1, k1, sign2, k2) and keeps the words
    the modular delta over ``s0 k0 + s1 k1 + s2 k2`` selects.  Each word is
    met once per ordering of its three factors, 3! times; the ``1/3!``
    undoes that and gives the energy the flow conserves.  O(N^(3d)).
    """
    ks = [np.array(k) for k in itertools.product(range(-spec.D, spec.D + 1), repeat=spec.d)]
    wbar = {tuple(k): dispersion_bar(spec, tuple(k)) for k in ks}
    idx = {tuple(k): tuple(k + spec.D) for k in ks}
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
                            if delta_mod(spec, tuple(sig0 * k0 + sig1 * k1 + sig2 * k2)) == 0.0:
                                continue
                            m = 1.0 / (8.0 * wbar[tuple(k0)] * wbar[tuple(k1)] * wbar[tuple(k2)])
                            h2 += (
                                m
                                * a[(s0,) + idx[tuple(k0)]]
                                * a[(s1,) + idx[tuple(k1)]]
                                * a[(s2,) + idx[tuple(k2)]]
                            )
    return h1 + lam * spec.h**spec.d * h2 / math.factorial(3)


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
    r: np.ndarray, geom: ChainGeometry, fp: FractionalParams
) -> np.ndarray:
    """Acceleration from the literal pair sum with minimal-image distances.

    ``r`` is ``(..., n_sites)``; each pair term is added for all leading
    (replica) entries at once.
    """
    x = site_coordinates(geom).tolist()
    n = geom.n_sites
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
    geom: ChainGeometry,
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
    geom: ChainGeometry,
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
    n, d = geom.n, geom.d
    sites = list(itertools.product(range(n), repeat=d))
    k = np.zeros((geom.n_sites, geom.n_sites), dtype=ld)
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
    r: np.ndarray, geom: ChainGeometry, fp: FractionalParams
) -> float:
    """Potential from the literal pair sum, ``(h^d/4) sum (r_j - r_i)^2 w``."""
    x = site_coordinates(geom)
    n = geom.n_sites
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
