"""Hot numerical kernels, one vectorized numpy implementation each.

Three inner loops dominate every pipeline: the quadratic interaction sum of
the lattice wave system, the discrete collision operator of the three-wave
kinetic equation, and the all-pairs force of the long-range chain.  Each is
vectorized numpy (FFT convolution where the sum is one) and is held against
the literal-loop oracles of :mod:`kinlat._reference`.

Layout conventions: spectral arrays arrive in the shifted (ascending
wavenumber) order of :mod:`kinlat.lattice`; kernels flatten them C-style, so
the flat index of wavenumber ``k`` is ``sum_c (k_c + D) * N**(d-1-c)``.
Position-space chain arrays stay in natural site order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .lattice import LatticeSpec, inverse_omega_bar_grid

__all__ = [
    "wave_nonlinear",
    "collision_rate",
    "chain_force_flat",
    "chain_kernel_table",
]

TWO_PI = 2.0 * np.pi
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))

PROFILE_CODES = {"gaussian": 0, "lorentzian": 1}


# ---------------------------------------------------------------------------
# wave interaction sum
# ---------------------------------------------------------------------------


def wave_nonlinear(a: np.ndarray, spec: LatticeSpec, lam: float) -> np.ndarray:
    """Quadratic interaction term of the amplitude equations.

    ``a`` has shape ``batch + (2,) + (N,)*d`` (sigma axis before the grid
    axes, shifted wavenumber order).  Returns the same shape.  The pair sum
    over the momentum constraint carries the lattice measure ``h**d``, and
    the zero mode is excluded on input and output through the masked
    ``1/omega_bar`` table.
    """
    if lam == 0.0:
        return np.zeros_like(a)
    # The four sign-pair sums collapse into one cyclic self-convolution of
    # w = u(+) + flip(u(-)), with u(s) = a(., s) / omega_bar.
    d = spec.d
    s_ax = a.ndim - d - 1
    winv = inverse_omega_bar_grid(spec)
    up = np.take(a, 0, axis=s_ax) * winv
    um = np.take(a, 1, axis=s_ax) * winv
    gax = tuple(range(up.ndim - d, up.ndim))
    w = up + np.flip(um, axis=gax)
    W = np.fft.fftn(np.fft.ifftshift(w, axes=gax), axes=gax)
    S = np.fft.fftshift(np.fft.ifftn(W * W, axes=gax), axes=gax)
    coef = lam * spec.h**spec.d * 0.125 * winv
    nl_plus = -1j * coef * S
    nl_minus = 1j * coef * np.flip(S, axis=gax)
    return np.stack([nl_plus, nl_minus], axis=s_ax)


# ---------------------------------------------------------------------------
# three-wave collision operator
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _torus_tables(d: int, m: int):
    ax = np.arange(m, dtype=np.int64)
    mesh = np.meshgrid(*([ax] * d), indexing="ij")
    jvecs = np.stack(mesh, axis=-1).reshape(m**d, d)
    omega = np.sum(np.sin(TWO_PI * jvecs / m) ** 2, axis=-1)
    return jvecs, omega


def _flat_index(jvecs: np.ndarray, m: int) -> np.ndarray:
    d = jvecs.shape[-1]
    out = jvecs[..., 0] % m
    for c in range(1, d):
        out = out * m + jvecs[..., c] % m
    return out


def _profile_weight(du: np.ndarray, eps: float, code: int) -> np.ndarray:
    if code == 0:
        return np.exp(-0.5 * (du / eps) ** 2) / (eps * _SQRT_2PI)
    return (eps / np.pi) / (du * du + eps * eps)


@lru_cache(maxsize=16)
def _collision_plan(d: int, m: int, eps: float, code: int, floor: float):
    jvecs, omega = _torus_tables(d, m)
    kinv = np.where(omega >= floor, 1.0, 0.0) / np.where(omega >= floor, omega, 1.0)
    idx_a = _flat_index(jvecs[:, None, :] - jvecs[None, :, :], m)
    idx_b = _flat_index(jvecs[None, :, :] - jvecs[:, None, :], m)
    base = 0.125 * kinv[:, None] * kinv[None, :]
    w1 = base * kinv[idx_a] * _profile_weight(
        omega[:, None] - omega[None, :] - omega[idx_a], eps, code
    )
    w2 = base * kinv[idx_b] * _profile_weight(
        omega[None, :] - omega[:, None] - omega[idx_b], eps, code
    )
    return idx_a, idx_b, w1, w2


def collision_rate(
    f: np.ndarray, d: int, m: int, eps: float, profile: str, floor: float
) -> np.ndarray:
    """Collision operator on the uniform torus grid ``j/m``, flat C order.

    Momentum deltas are resolved exactly on the grid; the frequency delta is
    broadened to a unit-mass profile of width ``eps``.  Modes with dispersion
    below ``floor`` neither receive nor donate. Quadrature weight ``m**-d``.
    """
    flat = np.ascontiguousarray(f, dtype=np.float64).reshape(-1)
    idx_a, idx_b, w1, w2 = _collision_plan(
        d, m, float(eps), PROFILE_CODES[profile], float(floor)
    )
    f1 = flat[None, :]
    fk = flat[:, None]
    f2a = flat[idx_a]
    f2b = flat[idx_b]
    term1 = (w1 * (f1 * f2a - fk * f1 - fk * f2a)).sum(axis=1)
    term2 = (w2 * (f2b * fk - fk * f1 - f1 * f2b)).sum(axis=1)
    return ((term1 - 2.0 * term2) / m**d).reshape(f.shape)


# ---------------------------------------------------------------------------
# long-range chain force
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def chain_kernel_table(d: int, n: int, alpha: float):
    """Minimal-image coupling kernel ``|y-x|^-(d+2a)`` on the flat offset grid.

    Sites live at ``j/n`` per axis (any ``n >= 2``; even counts are fine, the
    half-way offset is its own mirror and the kernel is even).  Returns
    ``(w, wsum, wmat)``: the kernel over offsets in natural site order with
    ``w[0] = 0``, its total, and the full symmetric coupling matrix used by
    the direct path.
    """
    h = 1.0 / n
    half = n // 2
    ax = np.arange(n, dtype=np.int64)
    mesh = np.meshgrid(*([ax] * d), indexing="ij")
    offs = np.stack(mesh, axis=-1).reshape(n**d, d)
    mimg = (offs + half) % n - half
    dist = h * np.sqrt(np.sum(mimg.astype(np.float64) ** 2, axis=-1))
    w = np.zeros(n**d)
    w[1:] = dist[1:] ** (-(d + 2.0 * alpha))
    # w[0] stays 0: no self-coupling
    diff = _flat_index(offs[None, :, :] - offs[:, None, :], n)
    wmat = w[diff]
    return w, float(w.sum()), wmat


def _chain_force_circulant(r, w_grid, wsum, h_d, shape):
    rg = r.reshape(r.shape[:-1] + shape)
    gax = tuple(range(rg.ndim - len(shape), rg.ndim))
    wk = np.fft.fftn(w_grid)
    conv = np.real(np.fft.ifftn(np.fft.fftn(rg, axes=gax) * wk, axes=gax))
    return h_d * (conv.reshape(r.shape) - wsum * r)


def chain_force_flat(
    r: np.ndarray, d: int, n: int, alpha: float, method: str = "direct"
) -> np.ndarray:
    """Acceleration ``h^d sum_{y != x} (r_y - r_x)/|y-x|^(d+2a)``, flat sites.

    ``r`` is ``(batch, n**d)``.  ``method="direct"`` applies the dense
    coupling matrix; ``method="circulant"`` evaluates the same sum as an FFT
    convolution and agrees with it to 1e-12.
    """
    w, wsum, wmat = chain_kernel_table(d, n, float(alpha))
    h_d = (1.0 / n) ** d
    shape = (n,) * d
    if method == "circulant":
        return _chain_force_circulant(r, w.reshape(shape), wsum, h_d, shape)
    if method != "direct":
        raise ValueError(f"unknown force method {method!r}")
    return h_d * (r @ wmat - wsum * r)
