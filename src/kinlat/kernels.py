"""Hot numerical kernels, one vectorized numpy implementation each.

Three inner loops dominate every pipeline: the quadratic interaction sum of
the lattice wave system, the discrete collision operator of the three-wave
kinetic equation, and the all-pairs force of the long-range chain.  Each is
vectorized numpy (FFT convolution where the sum is one) and is held against
the literal-loop oracles of :mod:`kinlat._reference`.

The collision operator is one sum over resonant triads.  With ``c = a + b``
(mod ``m`` per axis) and the weight
``W(a, b) = kinv_a kinv_b kinv_c phi_eps(w_c - w_a - w_b) / 8``, each pair
contributes ``T = W [f_a f_b - f_c (f_a + f_b)]`` and the rate is
``(bincount(c, T) - 2 bincount(a, T)) / m**d`` over ordered pairs.  ``T`` is
symmetric in ``a`` and ``b``, so the plan lists each unordered pair of live
modes once, ``a <= b``, with its weight doubled off the diagonal, and the
rate is ``bincount(c, T) - bincount(a, T) - bincount(b, T)``.  Pairs whose
weight is at most ``PAIR_CUT`` (1e-16) times the largest are dropped, so the
list, its memory and the cost of an evaluation shrink with ``eps``.  The
list is built in blocks of rows and each block is pruned as it is made;
each thread keeps only the plan it used last.

Layout conventions: spectral arrays arrive in the shifted (ascending
wavenumber) order of :mod:`kinlat.lattice`; kernels flatten them C-style, so
the flat index of wavenumber ``k`` is ``sum_c (k_c + D) * N**(d-1-c)``.
The collision operator works on the torus grid ``j/m`` in flat C order.
Position-space chain arrays stay in natural site order.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
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


# a pair weight at or below this fraction of the largest one is dropped
PAIR_CUT = 1e-16
# pairs per block, in the build and in each evaluation: the block's
# temporaries stay in cache, and the build never holds more than one block
# of unpruned candidates
_BLOCK_PAIRS = 1 << 15


@dataclass(frozen=True)
class TriadPlan:
    """Unordered resonant pairs ``a <= b`` of live modes, with ``c = a + b``.

    ``w`` is the triad weight ``W(a, b)``, doubled when ``a != b`` so that
    each unordered pair stands for both of its orderings.  Pairs whose
    weight is at most ``PAIR_CUT`` times the largest are left out.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    w: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.a.nbytes + self.b.nbytes + self.c.nbytes + self.w.nbytes


def _collision_plan(d: int, m: int, eps: float, code: int, floor: float) -> TriadPlan:
    """Build the pruned pair list in blocks of rows ``a``.

    Each block is cut against the largest weight seen so far, which never
    exceeds the global one, so the final cut against the global maximum
    gives a list that does not depend on the block size.
    """
    jvecs, omega = _torus_tables(d, m)
    live = np.flatnonzero(omega >= floor)
    kinv = np.zeros(omega.size)
    kinv[live] = 1.0 / omega[live]
    jl = jvecs[live]
    n_live = live.size
    rows = max(1, _BLOCK_PAIRS // max(1, n_live))
    # a, b, c and w of the kept pairs, one array per block
    cols = tuple([np.empty(0, dtype)] for dtype in (np.intp, np.intp, np.intp, np.float64))
    top = 0.0
    for i0 in range(0, n_live, rows):
        i1 = min(n_live, i0 + rows)
        a, b = live[i0:i1, None], live[None, i0:]
        c = np.zeros((i1 - i0, n_live - i0), np.intp)
        for ax in range(d):  # flat index of a + b, wrapped per axis
            s = jl[i0:i1, None, ax] + jl[None, i0:, ax]
            s[s >= m] -= m
            c *= m
            c += s
        w = (0.125 * kinv[a] * kinv[b]) * kinv[c]
        w *= _profile_weight(omega[c] - omega[a] - omega[b], eps, code)
        # keep the upper triangle b >= a, doubled off the diagonal (exactly)
        w *= 2.0
        w[np.arange(i1 - i0)[:, None] > np.arange(n_live - i0)[None, :]] = 0.0
        w[np.arange(i1 - i0), np.arange(i1 - i0)] *= 0.5
        top = max(top, float(w.max()))
        kept = np.flatnonzero(w > PAIR_CUT * top)
        ia, ib = np.divmod(kept, w.shape[1])
        block = (live.take(i0 + ia), live.take(i0 + ib), c.take(kept), w.take(kept))
        for col, x in zip(cols, block):
            col.append(x)
    keep = [w > PAIR_CUT * top for w in cols[3]]
    merged = []
    for col in cols:
        merged.append(np.concatenate([x if k.all() else x[k] for x, k in zip(col, keep)]))
        col.clear()  # release this column's blocks before merging the next
    return TriadPlan(*merged)


_held = threading.local()


def _thread_plan(d: int, m: int, eps: float, code: int, floor: float) -> TriadPlan:
    """The plan for these arguments; each thread holds only its latest one.

    A sweep child runs on one thread and asks for one plan, so a serial
    sweep keeps one plan alive and a threaded one one per worker.
    """
    key = (d, m, eps, code, floor)
    if getattr(_held, "key", None) != key:
        _held.key = _held.plan = None  # free the old plan before building
        _held.plan = _collision_plan(*key)
        _held.key = key
    return _held.plan


def collision_rate(
    f: np.ndarray, d: int, m: int, eps: float, profile: str, floor: float
) -> np.ndarray:
    """Collision operator on the uniform torus grid ``j/m``, flat C order.

    Momentum deltas are resolved exactly on the grid; the frequency delta is
    broadened to a unit-mass profile of width ``eps``.  Modes with dispersion
    below ``floor`` neither receive nor donate. Quadrature weight ``m**-d``.
    """
    flat = np.ascontiguousarray(f, dtype=np.float64).reshape(-1)
    plan = _thread_plan(d, m, float(eps), PROFILE_CODES[profile], float(floor))
    n = flat.size
    rate = np.zeros(n)
    for s in range(0, plan.w.size, _BLOCK_PAIRS):
        blk = slice(s, s + _BLOCK_PAIRS)
        a, b, c = plan.a[blk], plan.b[blk], plan.c[blk]
        fa, fb = flat[a], flat[b]
        t = plan.w[blk] * (fa * fb - flat[c] * (fa + fb))
        rate += np.bincount(c, t, n) - np.bincount(a, t, n) - np.bincount(b, t, n)
    return (rate / m**d).reshape(f.shape)


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
