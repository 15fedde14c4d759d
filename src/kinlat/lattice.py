"""Periodic lattice geometry and the discrete Fourier pair built on it.

The spatial grid is the unit torus sampled at ``N = 2D + 1`` points per axis,
``x = j*h`` with ``h = 1/N``, and the dual grid keeps the symmetric integer
wavenumbers ``k in {-D, ..., D}^d``.  The transform pair is deliberately
asymmetric,

    fhat(k) = h^d * sum_x f(x) exp(-2*pi*i k.x)
    f(x)    = sum_k fhat(k) exp(+2*pi*i k.x)

so Parseval reads ``h^d sum_x |f|^2 = sum_k |fhat|^2``.  Both directions are
the FFT itself: every spectral table and transform here is in the FFT's own
order, so no gather stands between them.  Ascending ``-D..D`` order (which
``fftshift`` realizes exactly because ``N`` is odd) is kept only where the
order is fixed from outside: the amplitude snapshot file of :mod:`kinlat.io`
and the order in which :func:`kinlat.waves.sample_initial` draws phases.

Array conventions used by the whole package:

* grid field: complex array of shape ``(N,)*d``, index ``j`` <-> site ``j*h``;
* spectral field: complex array of shape ``(N,)*d`` in FFT order, index ``i``
  <-> wavenumber ``k = i`` for ``i <= D`` and ``k = i - N`` above it along
  every axis (zero mode first, as ``np.fft.fftfreq(N, 1/N)``).

Index arithmetic happens on integers only; ``h`` enters at evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SizeMismatchError

__all__ = [
    "LatticeSpec",
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
class LatticeSpec:
    """Shape of the periodic lattice: ``d`` dimensions, bandwidth ``D``.

    ``N = 2D + 1`` sites per axis keeps the dual grid symmetric and makes the
    Nyquist ambiguity of even grids impossible.
    """

    d: int
    D: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.D < 1:
            raise ValueError(f"bandwidth must be >= 1, got {self.D}")

    @property
    def N(self) -> int:
        return 2 * self.D + 1

    @property
    def h(self) -> float:
        return 1.0 / self.N

    @property
    def n_sites(self) -> int:
        return self.N**self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.d


def _check_field(spec: LatticeSpec, f: np.ndarray, name: str) -> np.ndarray:
    f = np.asarray(f)
    if f.shape[-spec.d :] != spec.shape or f.ndim < spec.d:
        raise SizeMismatchError(
            f"{name} has shape {f.shape}, expected trailing axes {spec.shape}"
        )
    return f


def dft(spec: LatticeSpec, f: np.ndarray) -> np.ndarray:
    """Forward transform, ``fhat(k) = h^d sum_x f(x) e^{-2 pi i k.x}``.

    Accepts leading batch axes; the trailing ``d`` axes must match the
    lattice.  Output is in FFT order along each axis (see :func:`wavenumbers`).
    """
    f = _check_field(spec, f, "grid field")
    axes = tuple(range(f.ndim - spec.d, f.ndim))
    return spec.h**spec.d * np.fft.fftn(f, axes=axes)


def inverse_dft(spec: LatticeSpec, fhat: np.ndarray) -> np.ndarray:
    """Inverse transform, ``f(x) = sum_k fhat(k) e^{+2 pi i k.x}`` (no 1/N),
    of a spectral field in FFT order."""
    fhat = _check_field(spec, fhat, "spectral field")
    axes = tuple(range(fhat.ndim - spec.d, fhat.ndim))
    return spec.n_sites * np.fft.ifftn(fhat, axes=axes)


def delta_mod(spec: LatticeSpec, k) -> np.ndarray | float:
    """Periodic Kronecker delta: ``N^d`` when ``k = 0 mod N`` per axis, else 0.

    ``k`` is an integer vector (last axis of length ``d``) and may lie far
    outside the fundamental window; only its residue matters.
    """
    k = np.asarray(k, dtype=np.int64)
    if spec.d == 1 and (k.ndim == 0 or k.shape[-1] != 1):
        k = k[..., np.newaxis]
    if k.shape[-1] != spec.d:
        raise SizeMismatchError(f"wavenumber has last axis {k.shape[-1]}, expected {spec.d}")
    hit = np.all(k % spec.N == 0, axis=-1)
    out = np.where(hit, float(spec.n_sites), 0.0)
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


def dispersion_bar(spec: LatticeSpec, k) -> np.ndarray | float:
    """Lattice dispersion ``omega_bar(k) = sum_j sin^2(2 pi h k_j)``, integer ``k``.

    Equals :func:`dispersion` evaluated at the rescaled point ``h*k``; vanishes
    only at ``k = 0`` because ``N`` is odd.
    """
    k = np.asarray(k, dtype=np.float64)
    if spec.d == 1 and (k.ndim == 0 or k.shape[-1] != 1):
        out = np.sin(2.0 * np.pi * spec.h * k) ** 2
        return float(out) if out.ndim == 0 else out
    if k.shape[-1] != spec.d:
        raise SizeMismatchError(f"wavenumber has last axis {k.shape[-1]}, expected {spec.d}")
    return np.sum(np.sin(2.0 * np.pi * spec.h * k) ** 2, axis=-1)


def weighted_inner(spec: LatticeSpec, f: np.ndarray, g: np.ndarray) -> complex:
    """Grid inner product ``h^d sum_x conj(f) g``, the one Parseval refers to."""
    f = _check_field(spec, f, "grid field f")
    g = _check_field(spec, g, "grid field g")
    if f.shape != g.shape:
        raise SizeMismatchError(f"mismatched operands {f.shape} vs {g.shape}")
    return complex(spec.h**spec.d * np.sum(np.conj(f) * g))


@lru_cache(maxsize=64)
def wavenumbers(spec: LatticeSpec) -> np.ndarray:
    """Integer wavenumber mesh, shape ``(N,)*d + (d,)``, in FFT order per axis:
    ``0, 1, ..., D, -D, ..., -1``, the values of ``np.fft.fftfreq(N, 1/N)``."""
    # fftfreq's spacing 1/(N * 1/N) is not exactly 1 for every N (49 is the
    # first), so its values are rounded to the integers they stand for
    axis = np.rint(np.fft.fftfreq(spec.N, 1.0 / spec.N)).astype(np.int64)
    out = np.stack(np.meshgrid(*([axis] * spec.d), indexing="ij"), axis=-1)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def omega_bar_grid(spec: LatticeSpec) -> np.ndarray:
    """Table of :func:`dispersion_bar` over the spectral grid, shape ``(N,)*d``."""
    out = dispersion_bar(spec, wavenumbers(spec))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def inverse_omega_bar_grid(spec: LatticeSpec) -> np.ndarray:
    """``1/omega_bar`` with the singular zero mode replaced by 0.

    The zero mode never participates in the interaction sums, so storing a
    literal zero there keeps every kernel expression finite without branches.
    """
    w = omega_bar_grid(spec).copy()
    zero = (0,) * spec.d
    w[zero] = 1.0
    out = 1.0 / w
    out[zero] = 0.0
    out.setflags(write=False)
    return out
