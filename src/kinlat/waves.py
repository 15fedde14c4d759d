"""Weakly nonlinear lattice waves in amplitude form.

The second-order lattice dynamics is rewritten in the complex amplitude
``a(+)(k) = wbar(k) q(k) + i p(k)/wbar(k)``; with ``a(-) = conj a(+)`` it obeys

    d/dt a(+)(k) = -i wbar(k) a(+)(k)
                   - i lam sum_{s1 s2} sum_{k1 + k2 window} M a(s1)(k1) a(s2)(k2)

with ``M = [8 wbar(k) wbar(k1) wbar(k2)]^-1`` and the wavenumber constraint
``s1 k1 + s2 k2 = k (mod m)`` (umklapp wraps included).  The interaction
sum carries unit weight after the constraint collapses it, which is the
normalization the position-space equation of motion induces.

The zero mode has vanishing dispersion and is masked throughout: it is
dropped from the transformation, excluded from the interaction sum, and its
amplitude stays pinned at zero.

The state is ``a(+)`` alone in natural FFT order (zero mode first), shape
``batch + (m,)*d``, from sampling through the stepper, the energy and the
empirical spectrum; only the snapshot writer of :mod:`kinlat.io` lays it
out in shifted order with its conjugate.  ``w(k) = u(k) + conj u(-k)`` with
``u = a(+)/wbar`` is Hermitian, so the position field ``V = 2 Re ifft(u)``
is real and the interaction is an inverse transform to ``V`` and a forward
transform of ``V**2`` (:func:`wave_nonlinear`).  At d = 1 up to
``TABLE_MAX_N`` sites the two transforms are real GEMMs against cached DFT
tables, otherwise the FFT pair; in both, a replica's bytes do not depend
on the batch it is stepped in.

Ensembles are initialized with deterministic random phases on a prescribed
modulus profile; averaging ``|a(+)(k)|^2`` over replicas gives the empirical
spectrum reported on the rescaled wavenumbers ``h k``, which is the object
the kinetic description predicts at times of order ``lam^-2``.  The phases
come from :mod:`kinlat.rng`, whose stream ``[seed, replica]`` is numpy's
seeded PCG64 ``random()`` computed in kinlat: the wave lane never imports
numpy's random module (nor the OpenSSL binding it loads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NumericalBlowupError, SizeMismatchError, check_step
from .lattice import (
    TorusGrid,
    _check_field,
    inverse_omega_bar_grid,
    omega_bar_grid,
    wavenumbers,
)
from .rng import uniform_blocks

__all__ = [
    "ModelParams",
    "EnsembleSpec",
    "to_amplitudes",
    "from_amplitudes",
    "rhs",
    "wave_nonlinear",
    "hamiltonian",
    "hamiltonian_terms",
    "integrate",
    "sample_initial",
    "n0_table",
    "empirical_spectrum",
]

BLOWUP_BOUND = 1e8
# steps between amplitude-bound checks; the last step is always checked
CHECK_EVERY = 50
# largest chain length at which wave_nonlinear transforms by cached DFT tables
# (real GEMMs) rather than by the FFT, at d = 1 (see _uses_tables).  A
# conservative pick from noisy per-call timings on the harness's replica
# blocks (benchmarks/bench_kernels.py, 2 cores, OpenBLAS): the tables won at
# every length measured up to 61, and above it won at some lengths and lost
# at others, 8x at m = 513, as they grow as m**2.  Only m = 33 is timed end
# to end; no benchmark workload runs the FFT side of this switch, whose bytes
# benchmarks/bytes_identical.py checks at m = 65 (run wt-sim-fft-d1)
TABLE_MAX_N = 61
# rows of every table product.  OpenBLAS rounds a row by its place in
# the product (edge tiles, small-matrix kernels and thread splits all depend
# on the row count), so the rows are zero-padded to whole blocks of this many
# and every product has one shape: a row's bits do not depend on its batch
GEMM_ROWS = 16


@dataclass(frozen=True)
class ModelParams:
    """Lattice geometry plus interaction strength ``lam >= 0``."""

    grid: TorusGrid
    lam: float

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError(f"coupling must be nonnegative, got {self.lam}")


def _as_field(grid: TorusGrid, b) -> np.ndarray:
    """``b`` as a complex ``a(+)`` array, checked to end in the grid axes."""
    return _check_field(grid, np.asarray(b, dtype=np.complex128), "amplitude field")


def to_amplitudes(q: np.ndarray, p: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Map the Fourier components ``(q, p)`` of a displacement/velocity pair
    to ``a(+) = wbar q + i p / wbar``, all in FFT order.

    The pair descends from real fields iff both arrays are conjugate-even,
    ``q(-k) = conj(q(k))``.  The zero mode carries no oscillation and is
    dropped (set to zero); its content is not representable in these
    variables.
    """
    q = np.asarray(q, dtype=np.complex128)
    p = np.asarray(p, dtype=np.complex128)
    if q.shape != grid.shape or p.shape != grid.shape:
        raise SizeMismatchError(
            f"phase pair shapes {q.shape}/{p.shape}, expected {grid.shape}"
        )
    a_plus = omega_bar_grid(grid) * q + 1j * inverse_omega_bar_grid(grid) * p
    a_plus[(0,) * grid.d] = 0.0
    return a_plus


def from_amplitudes(b: np.ndarray, grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
    """Inverse map, ``q = [a(k) + a*(-k)]/(2 wbar)``, ``p = i wbar [a*(-k) - a(k)]/2``.

    ``b`` is one ``a(+)`` and ``(q, p)`` come back, all in FFT order.  Exact
    inverse of :func:`to_amplitudes` on the retained modes; the masked zero
    mode returns as zero.
    """
    b = np.asarray(b, dtype=np.complex128)
    if b.shape != grid.shape:
        raise SizeMismatchError(f"amplitude field shape {b.shape}, expected {grid.shape}")
    a_conj_neg = np.conj(_at_minus_k(b, grid.d))
    q = 0.5 * inverse_omega_bar_grid(grid) * (b + a_conj_neg)
    p = 0.5j * omega_bar_grid(grid) * (a_conj_neg - b)
    return q, p


def _at_minus_k(b: np.ndarray, d: int) -> np.ndarray:
    """``b(-k)`` of a field in FFT order over its trailing ``d`` axes: the
    flip puts entry ``i`` at ``m - 1 - i``, and the roll by one at ``-i mod m``."""
    gax = tuple(range(-d, 0))
    return np.roll(np.flip(b, gax), 1, gax)


def rhs(b: np.ndarray, params: ModelParams) -> np.ndarray:
    """Time derivative of ``a(+)`` in FFT order (same shape as ``b``)."""
    grid = params.grid
    b = _as_field(grid, b)
    return _linear_table(grid) * b + wave_nonlinear(b, grid, params.lam)


def wave_nonlinear(b: np.ndarray, grid: TorusGrid, lam: float) -> np.ndarray:
    """Quadratic interaction term of the amplitude equation of ``a(+)``.

    ``b`` is the half field ``a(+)`` in natural FFT order, shape
    ``batch + (m,)*d``; the result has the same shape.  The pair sum over
    the momentum constraint carries the lattice measure ``h**d``, and the
    zero mode is excluded on input and output through the masked
    ``1/omega_bar`` table.

    The four sign-pair sums collapse into one cyclic self-convolution of the
    Hermitian ``w(k) = u(k) + conj u(-k)``, ``u = a(+) / omega_bar``, which is
    ``m^d fft(V**2)`` of the real position field ``V = ifft(w) = 2 Re ifft(u)``.
    At d = 1 up to ``TABLE_MAX_N`` sites both transforms are real GEMMs
    against cached DFT tables (:func:`_table_nonlinear`); otherwise they are
    the FFT pair.  Either way each row of the result depends on its own row
    of ``b`` alone, bit for bit.
    """
    if lam == 0.0:
        return np.zeros(b.shape, dtype=np.complex128)
    if _uses_tables(grid):
        return _table_nonlinear(b, grid, lam)
    return _fft_nonlinear(b, grid, lam)


def _uses_tables(grid: TorusGrid) -> bool:
    """Whether :func:`wave_nonlinear` runs by DFT tables on this lattice."""
    return grid.d == 1 and grid.m <= TABLE_MAX_N


def _fft_nonlinear(b: np.ndarray, grid: TorusGrid, lam: float) -> np.ndarray:
    """:func:`wave_nonlinear` by the FFT pair, for any ``m`` and ``d``."""
    winv, coef = _kernel_tables(grid, lam)
    axes = tuple(range(-grid.d, 0))
    v = np.fft.ifftn(b * winv, axes=axes).real
    return coef * np.fft.fftn(v**2, axes=axes)


@lru_cache(maxsize=64)
def _kernel_tables(grid: TorusGrid, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """``1/omega_bar`` and the output coefficient of :func:`wave_nonlinear`, in
    FFT order, built once per lattice and coupling.

    The coefficient ``-i lam h^d winv / 8`` meets ``m^d fft(V^2)`` with
    ``V^2 = 4 (Re ifft(u))^2``: ``h^d m^d = 1``, and the 4 is folded in.
    """
    winv = inverse_omega_bar_grid(grid)
    coef = -0.5j * lam * winv
    coef.setflags(write=False)
    return winv, coef


def _table_nonlinear(b: np.ndarray, grid: TorusGrid, lam: float) -> np.ndarray:
    """:func:`wave_nonlinear` at d = 1 by real GEMMs against :func:`_dft_tables`.

    Complex fields are read and written as their interleaved ``(re, im)``
    float64 view, and ``V`` is squared and scaled by ``lam`` in place.  The
    rows of ``b`` are zero-padded to blocks of ``GEMM_ROWS`` (inert: the term
    vanishes on zero rows), and ``1/omega_bar`` and the output coefficient
    sit in the two tables.
    """
    n = grid.m
    inv, fwd = _dft_tables(grid)
    rows = b.size // n
    x = np.zeros((-(-rows // GEMM_ROWS) * GEMM_ROWS, n), dtype=np.complex128)
    x[:rows] = b.reshape(rows, n)
    v = np.matmul(x.view(np.float64).reshape(-1, GEMM_ROWS, 2 * n), inv)
    v *= v
    v *= lam
    out = np.matmul(v, fwd).reshape(-1, 2 * n)[:rows]
    return out.view(np.complex128).reshape(b.shape)


@lru_cache(maxsize=8)
def _dft_tables(grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
    """Real DFT tables of :func:`_table_nonlinear`, built once per chain.

    ``lam`` only scales ``V**2``, so every coupling shares them.  The phases
    ``2 pi (k x mod m) / m`` are reduced before the cosine, so every argument
    lies in ``[0, 2 pi)`` and each entry is good to about an ulp.  The first
    table, ``(2m, m)``, maps the interleaved ``u`` to ``V`` with ``2/m`` and
    ``1/omega_bar`` folded in; the second, ``(m, 2m)``, maps ``V**2`` to the
    interleaved term with its coefficient ``-i h winv / 8`` (``h m = 1``).
    """
    n = grid.m
    theta = (2.0 * np.pi / n) * (np.outer(np.arange(n), np.arange(n)) % n)
    c, s = np.cos(theta), np.sin(theta)  # symmetric in (k, x)
    winv = inverse_omega_bar_grid(grid)
    # rows (k, re/im), columns x: Re of (re + i im) e^{+i theta}
    inv = (2.0 / n) * np.repeat(winv, 2)[:, None] * np.stack([c, -s], axis=1).reshape(2 * n, n)
    out = (inv, (-0.125j * winv * (c - 1j * s)).view(np.float64))
    for table in out:
        table.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _linear_table(grid: TorusGrid) -> np.ndarray:
    """``-i omega_bar`` in FFT order, the linear part of the ``a(+)`` equation."""
    out = -1j * omega_bar_grid(grid)
    out.setflags(write=False)
    return out


def hamiltonian_terms(
    b: np.ndarray, params: ModelParams
) -> tuple[float | np.ndarray, complex | np.ndarray]:
    """Quadratic and cubic energy terms ``(H1, H2)`` of ``a(+)`` in FFT order,
    per replica for a stack.

    ``H1 = sum_k wbar |a(+)_k|^2 / 2``.  ``H2`` is the sign-symmetric triple
    sum over ``s0 k0 + s1 k1 + s2 k2 = 0 (mod m)`` with the interaction
    kernel ``M`` and one lattice measure ``h**d``, matching the measure of
    the quadratic term in the equations of motion.  All eight sign words
    collapse into a cube of the single field
    ``V = fft((a(+)(k) + conj a(+)(-k)) / wbar)``, so the value costs one
    FFT.  ``V`` is real and so is ``H2``; the complex return keeps
    round-off imaginary parts visible.  A field of shape
    ``batch + (m,)*d`` gives arrays of shape ``batch``.
    """
    grid = params.grid
    b = _as_field(grid, b)
    gax = tuple(range(-grid.d, 0))
    h1 = 0.5 * np.sum(omega_bar_grid(grid) * np.abs(b) ** 2, axis=gax)
    w = (b + np.conj(_at_minus_k(b, grid.d))) * inverse_omega_bar_grid(grid)
    v = np.fft.fftn(w, axes=gax)
    return h1, grid.h ** (2 * grid.d) * 0.125 * np.sum(v**3, axis=gax)


def hamiltonian(b: np.ndarray, params: ModelParams) -> float | np.ndarray:
    """Energy the flow conserves, ``H1 + lam * Re H2 / 3!``.

    The sign-symmetric sum ``H2`` meets each interaction word once per
    ordering of its three factors, 3! times, so the conserved cubic term
    carries it with weight ``1/6`` (see :func:`hamiltonian_terms`).  A
    stack of replicas gives one value per replica.
    """
    h1, h2 = hamiltonian_terms(b, params)
    return h1 + params.lam * h2.real / 6.0


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


def _phase_factors(grid: TorusGrid, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Half-step and full-step linear phases of ``a(+)``, in FFT order."""
    e_half = np.exp(-0.5j * dt * omega_bar_grid(grid))
    return e_half, e_half * e_half


def _integrate_array(
    b: np.ndarray,
    params: ModelParams,
    dt: float,
    n_steps: int,
    scheme: str = "exponential",
    step0: int = 0,
) -> np.ndarray:
    """Batched core: steps ``a(+)`` in FFT order, shape ``batch + (m,)*d``,
    into a new array; ``b`` itself is not written.  ``step0`` is the run's
    step at the start, which a blowup's step and time count from.  Each
    stage calls :func:`wave_nonlinear` once.
    """
    check_step("dt", dt)
    grid, lam = params.grid, params.lam
    if scheme == "exponential":
        e2, e1 = _phase_factors(grid, dt)
        dt_e2, two_e2 = dt * e2, 2.0 * e2  # the products the step would rebuild

        def step(b):
            k1 = wave_nonlinear(b, grid, lam)
            k2 = wave_nonlinear(e2 * (b + 0.5 * dt * k1), grid, lam)
            k3 = wave_nonlinear(e2 * b + 0.5 * dt * k2, grid, lam)
            eb = e1 * b
            k4 = wave_nonlinear(eb + dt_e2 * k3, grid, lam)
            return eb + dt / 6.0 * (e1 * k1 + two_e2 * (k2 + k3) + k4)

    elif scheme == "rk4":
        lin = _linear_table(grid)

        def f(x):
            return lin * x + wave_nonlinear(x, grid, lam)

        def step(b):
            k1 = f(b)
            k2 = f(b + 0.5 * dt * k1)
            k3 = f(b + 0.5 * dt * k2)
            k4 = f(b + dt * k3)
            return b + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    if n_steps == 0:  # each step makes a new array, so zero steps copy
        return b.copy()
    # overflow and NaN on the way up are the blowup that _maybe_check
    # reports with its step and time; numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            b = step(b)
            _maybe_check(b, i, n_steps, step0, dt)
    return b


def _maybe_check(a: np.ndarray, i: int, n_steps: int, step0: int, dt: float) -> None:
    if i % CHECK_EVERY == CHECK_EVERY - 1 or i == n_steps - 1:
        peak = np.max(np.abs(a))
        if not np.isfinite(peak) or peak > BLOWUP_BOUND:
            t = (step0 + i + 1) * dt
            raise NumericalBlowupError(f"amplitude peak {peak:.3e} at t {t:.6g}", step=step0 + i)


def integrate(
    b: np.ndarray,
    params: ModelParams,
    dt: float,
    n_steps: int,
    scheme: str = "exponential",
) -> np.ndarray:
    """Advance ``a(+)`` (FFT order, any leading replica axes) by ``n_steps``
    steps of size ``dt``.

    ``scheme="exponential"`` propagates the linear phase exactly and applies
    a fourth-order rule in the rotating frame, so at ``lam = 0`` every
    modulus is preserved to round-off.  ``scheme="rk4"`` is the plain
    classical rule on the full right-hand side.
    """
    return _integrate_array(_as_field(params.grid, b), params, dt, n_steps, scheme)


# ---------------------------------------------------------------------------
# ensembles and the empirical spectrum
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """Random-phase ensemble: ``m`` replicas on modulus profile ``n0``.

    ``n0`` is either a table over the spectral grid (FFT order) or a callable
    evaluated on the rescaled wavenumbers ``h k`` (array of shape
    ``(m,)*d + (d,)``); values must be nonnegative.
    """

    m: int
    seed: int
    n0: np.ndarray | Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"ensemble needs at least one replica, got {self.m}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def n0_table(ens: EnsembleSpec, grid: TorusGrid) -> np.ndarray:
    """Materialize the profile on the spectral grid, zero mode masked."""
    if callable(ens.n0):
        kappa = grid.h * wavenumbers(grid).astype(np.float64)
        table = np.asarray(ens.n0(kappa), dtype=np.float64)
    else:
        table = np.asarray(ens.n0, dtype=np.float64)
    if table.shape != grid.shape:
        raise SizeMismatchError(f"profile shape {table.shape}, expected {grid.shape}")
    if not np.all(np.isfinite(table)) or np.any(table < 0.0):
        raise ValueError("modulus profile must be finite and nonnegative")
    table = table.copy()
    table[(0,) * grid.d] = 0.0
    return table


def sample_initial(ens: EnsembleSpec, grid: TorusGrid) -> np.ndarray:
    """Draw the random-phase ensemble at ``t = 0``, deterministically in the
    seed: ``a(+)`` in FFT order, shape ``(ens.m,) + (m,)*d``.

    Replica ``i``'s phases are ``2 pi`` times one draw of its own stream
    ``[seed, i]`` (:func:`kinlat.rng.uniforms`) over the grid in ascending
    ``k``, the order that fixes the sampled bytes; ``ifftshift`` puts the
    draw in FFT order.  A replica is identical however many replicas are
    drawn.  Replicas are drawn in blocks of at most ``rng.BLOCK`` draws (or
    one replica), so the result is the only array that grows with the
    ensemble.
    """
    root = np.sqrt(n0_table(ens, grid))
    out = np.empty((ens.m,) + grid.shape, dtype=np.complex128)
    gax = tuple(range(1, 1 + grid.d))
    for rows, u in uniform_blocks(ens.seed, np.arange(ens.m), grid.shape):
        out[rows] = root * np.exp(1j * (2.0 * np.pi * np.fft.ifftshift(u, axes=gax)))
    return out


def empirical_spectrum(b: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Replica average of ``conj a(+) a(+)`` on the rescaled grid ``h k``.

    ``b`` is a replica stack of ``a(+)`` in FFT order.  The real part is
    taken and round-off negatives are floored at zero.  The result is an
    array on the torus grid with ``m`` nodes per axis (``h k`` mod 1
    enumerates exactly the nodes ``j/m``, in FFT order); its time, and the
    rescaling to kinetic time, are the caller's.
    """
    b = _as_field(grid, b)
    if b.ndim != 1 + grid.d:  # replica, then the grid axes
        raise SizeMismatchError("expected one leading replica axis")
    return np.maximum(np.mean(np.conj(b) * b, axis=0).real, 0.0)
