"""The uniform periodic grid and the discrete Fourier pair built on it.

:class:`TorusGrid` is the unit d-torus sampled at ``m`` points per axis,
``x = j*h`` with ``h = 1/m``: the wave lattice, the kinetic equation's
spectral grid and the oscillator chain's site mesh are all this one grid,
and :func:`nodes` is its one coordinate table.  The wave lattice takes an
odd ``m = 2D + 1``, so its dual grid keeps the symmetric integer
wavenumbers ``k in {-D, ..., D}^d`` and has no Nyquist mode;
:func:`wavenumbers`, the root of every wave table, refuses an even ``m``.
The transform pair is deliberately asymmetric,

    fhat(k) = h^d * sum_x f(x) exp(-2*pi*i k.x)
    f(x)    = sum_k fhat(k) exp(+2*pi*i k.x)

so Parseval reads ``h^d sum_x |f|^2 = sum_k |fhat|^2``.  Both directions are
the FFT itself: every spectral table and transform here is in the FFT's own
order, so no gather stands between them.  Ascending ``-D..D`` order (which
``fftshift`` realizes exactly because ``m`` is odd) is kept only where the
order is fixed from outside: the amplitude snapshot file of :mod:`kinlat.io`
and the order in which :func:`kinlat.waves.sample_initial` draws phases.

Array conventions used by the whole package:

* grid field: complex array of shape ``(m,)*d``, index ``j`` <-> site ``j*h``;
* spectral field: complex array of shape ``(m,)*d`` in FFT order, index ``i``
  <-> wavenumber ``k = i`` for ``i <= D`` and ``k = i - m`` above it along
  every axis (zero mode first, as ``np.fft.fftfreq(m, 1/m)``).

Index arithmetic happens on integers only; ``h`` enters at evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SizeMismatchError

__all__ = [
    "TorusGrid",
    "nodes",
    "dft",
    "inverse_dft",
    "delta_mod",
    "dispersion",
    "dispersion_bar",
    "DEFAULT_OMEGA_FLOOR",
    "RESONANCE_PROFILES",
    "weighted_inner",
    "wavenumbers",
    "omega_bar_grid",
    "inverse_omega_bar_grid",
]


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid ``{j/m : 0 <= j < m}^d`` on the unit d-torus, spacing ``h = 1/m``."""

    d: int
    m: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.m < 2:
            raise ValueError(f"need at least 2 nodes per axis, got {self.m}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.m,) * self.d

    @property
    def n_nodes(self) -> int:
        return self.m**self.d

    @property
    def h(self) -> float:
        return 1.0 / self.m

    @property
    def cell_measure(self) -> float:
        return float(self.m) ** (-self.d)


@lru_cache(maxsize=64)
def nodes(grid: TorusGrid) -> np.ndarray:
    """Node coordinates ``j/m``, shape ``(m,)*d + (d,)``; read-only."""
    ax = np.arange(grid.m) / grid.m
    mesh = np.meshgrid(*([ax] * grid.d), indexing="ij")
    out = np.stack(mesh, axis=-1)
    out.setflags(write=False)
    return out


def _check_field(grid: TorusGrid, f: np.ndarray, name: str) -> np.ndarray:
    f = np.asarray(f)
    if f.shape[-grid.d :] != grid.shape or f.ndim < grid.d:
        raise SizeMismatchError(
            f"{name} has shape {f.shape}, expected trailing axes {grid.shape}"
        )
    return f


def dft(grid: TorusGrid, f: np.ndarray) -> np.ndarray:
    """Forward transform, ``fhat(k) = h^d sum_x f(x) e^{-2 pi i k.x}``.

    Accepts leading batch axes; the trailing ``d`` axes must match the
    lattice.  Output is in FFT order along each axis (see :func:`wavenumbers`).
    """
    f = _check_field(grid, f, "grid field")
    axes = tuple(range(f.ndim - grid.d, f.ndim))
    return grid.h**grid.d * np.fft.fftn(f, axes=axes)


def inverse_dft(grid: TorusGrid, fhat: np.ndarray) -> np.ndarray:
    """Inverse transform, ``f(x) = sum_k fhat(k) e^{+2 pi i k.x}`` (no 1/m^d),
    of a spectral field in FFT order."""
    fhat = _check_field(grid, fhat, "spectral field")
    axes = tuple(range(fhat.ndim - grid.d, fhat.ndim))
    return grid.n_nodes * np.fft.ifftn(fhat, axes=axes)


def delta_mod(grid: TorusGrid, k) -> np.ndarray | float:
    """Periodic Kronecker delta: ``m^d`` when ``k = 0 mod m`` per axis, else 0.

    ``k`` is an integer vector (last axis of length ``d``) and may lie far
    outside the fundamental window; only its residue matters.
    """
    k = np.asarray(k, dtype=np.int64)
    if grid.d == 1 and (k.ndim == 0 or k.shape[-1] != 1):
        k = k[..., np.newaxis]
    if k.shape[-1] != grid.d:
        raise SizeMismatchError(f"wavenumber has last axis {k.shape[-1]}, expected {grid.d}")
    hit = np.all(k % grid.m == 0, axis=-1)
    out = np.where(hit, float(grid.n_nodes), 0.0)
    return float(out) if out.ndim == 0 else out


# the kinetic interaction kernel blows up like 1/omega: modes below this
# dispersion level are frozen (ten half-precision-ish digits of headroom)
DEFAULT_OMEGA_FLOOR = 10.0 * float(np.sqrt(np.finfo(np.float64).eps))

# unit-mass shapes that broaden the kinetic frequency delta
RESONANCE_PROFILES = ("gaussian", "lorentzian")


def dispersion(kappa) -> np.ndarray | float:
    """Continuum dispersion on the torus, ``omega(kappa) = sum_j sin^2(2 pi kappa_j)``.

    ``kappa`` holds torus coordinates; a trailing axis indexes components.
    Scalars count as one-dimensional.
    """
    kappa = np.asarray(kappa, dtype=np.float64)
    if kappa.ndim == 0:
        return float(np.sin(2.0 * np.pi * kappa) ** 2)
    return np.sum(np.sin(2.0 * np.pi * kappa) ** 2, axis=-1)


def dispersion_bar(grid: TorusGrid, k) -> np.ndarray | float:
    """Lattice dispersion ``omega_bar(k) = sum_j sin^2(2 pi h k_j)``, integer ``k``.

    Equals :func:`dispersion` evaluated at the rescaled point ``h*k``; vanishes
    only at ``k = 0`` on a wave lattice, whose ``m`` is odd.
    """
    k = np.asarray(k, dtype=np.float64)
    if grid.d == 1 and (k.ndim == 0 or k.shape[-1] != 1):
        out = np.sin(2.0 * np.pi * grid.h * k) ** 2
        return float(out) if out.ndim == 0 else out
    if k.shape[-1] != grid.d:
        raise SizeMismatchError(f"wavenumber has last axis {k.shape[-1]}, expected {grid.d}")
    return np.sum(np.sin(2.0 * np.pi * grid.h * k) ** 2, axis=-1)


def weighted_inner(grid: TorusGrid, f: np.ndarray, g: np.ndarray) -> complex:
    """Grid inner product ``h^d sum_x conj(f) g``, the one Parseval refers to."""
    f = _check_field(grid, f, "grid field f")
    g = _check_field(grid, g, "grid field g")
    if f.shape != g.shape:
        raise SizeMismatchError(f"mismatched operands {f.shape} vs {g.shape}")
    return complex(grid.h**grid.d * np.sum(np.conj(f) * g))


@lru_cache(maxsize=64)
def wavenumbers(grid: TorusGrid) -> np.ndarray:
    """Integer wavenumber mesh, shape ``(m,)*d + (d,)``, in FFT order per axis:
    ``0, 1, ..., D, -D, ..., -1``, the values of ``np.fft.fftfreq(m, 1/m)``.

    Every wave table starts here, so the wave lattice's rule lives here too:
    an even ``m`` has a Nyquist mode with no partner ``-k``, and is refused.
    """
    if grid.m % 2 == 0:
        raise ValueError(f"a wave lattice needs an odd node count m = 2D + 1, got {grid.m}")
    # fftfreq's spacing 1/(m * 1/m) is not exactly 1 for every m (49 is the
    # first), so its values are rounded to the integers they stand for
    axis = np.rint(np.fft.fftfreq(grid.m, 1.0 / grid.m)).astype(np.int64)
    out = np.stack(np.meshgrid(*([axis] * grid.d), indexing="ij"), axis=-1)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def omega_bar_grid(grid: TorusGrid) -> np.ndarray:
    """Table of :func:`dispersion_bar` over the spectral grid, shape ``(m,)*d``."""
    out = dispersion_bar(grid, wavenumbers(grid))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def inverse_omega_bar_grid(grid: TorusGrid) -> np.ndarray:
    """``1/omega_bar`` with the singular zero mode replaced by 0.

    The zero mode never participates in the interaction sums, so storing a
    literal zero there keeps every kernel expression finite without branches.
    """
    w = omega_bar_grid(grid).copy()
    zero = (0,) * grid.d
    w[zero] = 1.0
    out = 1.0 / w
    out[zero] = 0.0
    out.setflags(write=False)
    return out
