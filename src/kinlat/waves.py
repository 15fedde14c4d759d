"""Weakly nonlinear lattice waves in amplitude form.

The second-order lattice dynamics is rewritten in the complex amplitude
``a(+)(k) = wbar(k) q(k) + i p(k)/wbar(k)``; with ``a(-) = conj a(+)`` it obeys

    d/dt a(+)(k) = -i wbar(k) a(+)(k)
                   - i lam sum_{s1 s2} sum_{k1 + k2 window} M a(s1)(k1) a(s2)(k2)

with ``M = [8 wbar(k) wbar(k1) wbar(k2)]^-1`` and the wavenumber constraint
``s1 k1 + s2 k2 = k (mod N)`` (umklapp wraps included).  The interaction
sum carries unit weight after the constraint collapses it, which is the
normalization the position-space equation of motion induces.

The zero mode has vanishing dispersion and is masked throughout: it is
dropped from the transformation, excluded from the interaction sum, and its
amplitude stays pinned at zero.

The state is ``a(+)`` alone in natural FFT order (zero mode first), shape
``batch + (N,)*d``, from sampling through the stepper, the energy and the
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
the kinetic description predicts at times of order ``lam^-2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NumericalBlowupError, SizeMismatchError, check_step
from .kinetic import Spectrum, TorusGrid
from .lattice import (
    LatticeSpec,
    _check_field,
    center_index,
    inverse_omega_bar_grid,
    omega_bar_grid,
    wavenumbers,
)

__all__ = [
    "ModelParams",
    "PhasePair",
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
# at others, 8x at N = 513, as they grow as N**2.  Only N = 33 is checked end
# to end; no benchmark workload runs the FFT side of this switch
TABLE_MAX_N = 61
# rows of every table product.  OpenBLAS rounds a row by its place in
# the product (edge tiles, small-matrix kernels and thread splits all depend
# on the row count), so the rows are zero-padded to whole blocks of this many
# and every product has one shape: a row's bits do not depend on its batch
GEMM_ROWS = 16


@dataclass(frozen=True)
class ModelParams:
    """Lattice geometry plus interaction strength ``lam >= 0``."""

    spec: LatticeSpec
    lam: float

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError(f"coupling must be nonnegative, got {self.lam}")


@dataclass
class PhasePair:
    """Fourier components of a displacement/velocity pair on the lattice.

    Shifted spectral layout; descends from real fields iff both arrays are
    conjugate-even, ``q(-k) = conj(q(k))``.
    """

    q: np.ndarray
    p: np.ndarray


def _as_field(spec: LatticeSpec, b) -> np.ndarray:
    """``b`` as a complex ``a(+)`` array, checked to end in the grid axes."""
    return _check_field(spec, np.asarray(b, dtype=np.complex128), "amplitude field")


def to_amplitudes(pair: PhasePair, spec: LatticeSpec) -> np.ndarray:
    """Map ``(q, p)`` to ``a(+) = wbar q + i p / wbar``, in FFT order.

    The zero mode carries no oscillation and is dropped (set to zero); its
    content is not representable in these variables.
    """
    q = np.asarray(pair.q, dtype=np.complex128)
    p = np.asarray(pair.p, dtype=np.complex128)
    if q.shape != spec.shape or p.shape != spec.shape:
        raise SizeMismatchError(
            f"phase pair shapes {q.shape}/{p.shape}, expected {spec.shape}"
        )
    wbar = omega_bar_grid(spec)
    winv = inverse_omega_bar_grid(spec)
    a_plus = wbar * q + 1j * winv * p
    a_plus[center_index(spec)] = 0.0
    return np.fft.ifftshift(a_plus)


def from_amplitudes(b: np.ndarray, spec: LatticeSpec) -> PhasePair:
    """Inverse map, ``q = [a(k) + a*(-k)]/(2 wbar)``, ``p = i wbar [a*(-k) - a(k)]/2``.

    ``b`` is one ``a(+)`` in FFT order; ``(q, p)`` come back in shifted
    order, where reversing the grid axes maps ``k`` to ``-k``.  Exact
    inverse of :func:`to_amplitudes` on the retained modes; the masked zero
    mode returns as zero.
    """
    b = np.asarray(b, dtype=np.complex128)
    if b.shape != spec.shape:
        raise SizeMismatchError(f"amplitude field shape {b.shape}, expected {spec.shape}")
    a_plus = np.fft.fftshift(b)
    a_conj_neg = np.conj(np.flip(a_plus))
    winv = inverse_omega_bar_grid(spec)
    wbar = omega_bar_grid(spec)
    q = 0.5 * winv * (a_plus + a_conj_neg)
    p = 0.5j * wbar * (a_conj_neg - a_plus)
    return PhasePair(q, p)


def rhs(b: np.ndarray, params: ModelParams) -> np.ndarray:
    """Time derivative of ``a(+)`` in FFT order (same shape as ``b``)."""
    spec = params.spec
    b = _as_field(spec, b)
    return _linear_table(spec) * b + wave_nonlinear(b, spec, params.lam)


def wave_nonlinear(b: np.ndarray, spec: LatticeSpec, lam: float) -> np.ndarray:
    """Quadratic interaction term of the amplitude equation of ``a(+)``.

    ``b`` is the half field ``a(+)`` in natural FFT order, shape
    ``batch + (N,)*d``; the result has the same shape.  The pair sum over
    the momentum constraint carries the lattice measure ``h**d``, and the
    zero mode is excluded on input and output through the masked
    ``1/omega_bar`` table.

    The four sign-pair sums collapse into one cyclic self-convolution of the
    Hermitian ``w(k) = u(k) + conj u(-k)``, ``u = a(+) / omega_bar``, which is
    ``N^d fft(V**2)`` of the real position field ``V = ifft(w) = 2 Re ifft(u)``.
    At d = 1 up to ``TABLE_MAX_N`` sites both transforms are real GEMMs
    against cached DFT tables (:func:`_table_nonlinear`); otherwise they are
    the FFT pair.  Either way each row of the result depends on its own row
    of ``b`` alone, bit for bit.
    """
    if lam == 0.0:
        return np.zeros(b.shape, dtype=np.complex128)
    if _uses_tables(spec):
        return _table_nonlinear(b, spec, lam)
    return _fft_nonlinear(b, spec, lam)


def _uses_tables(spec: LatticeSpec) -> bool:
    """Whether :func:`wave_nonlinear` runs by DFT tables on this lattice."""
    return spec.d == 1 and spec.N <= TABLE_MAX_N


def _fft_nonlinear(b: np.ndarray, spec: LatticeSpec, lam: float) -> np.ndarray:
    """:func:`wave_nonlinear` by the FFT pair, for any ``N`` and ``d``."""
    winv, coef = _kernel_tables(spec, lam)
    if spec.d == 1:
        v = np.fft.ifft(b * winv).real
        return coef * np.fft.fft(v**2)
    axes = tuple(range(-spec.d, 0))
    v = np.fft.ifftn(b * winv, axes=axes).real
    return coef * np.fft.fftn(v**2, axes=axes)


@lru_cache(maxsize=64)
def _kernel_tables(spec: LatticeSpec, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """``1/omega_bar`` and the output coefficient of :func:`wave_nonlinear`, in
    FFT order, built once per lattice and coupling.

    The coefficient ``-i lam h^d winv / 8`` meets ``N^d fft(V^2)`` with
    ``V^2 = 4 (Re ifft(u))^2``: ``h^d N^d = 1``, and the 4 is folded in.
    """
    winv = np.fft.ifftshift(inverse_omega_bar_grid(spec))
    out = (winv, -0.5j * lam * winv)
    for table in out:
        table.setflags(write=False)
    return out


def _table_nonlinear(b: np.ndarray, spec: LatticeSpec, lam: float) -> np.ndarray:
    """:func:`wave_nonlinear` at d = 1 by real GEMMs against :func:`_dft_tables`.

    Complex fields are read and written as their interleaved ``(re, im)``
    float64 view, and ``V`` is squared and scaled by ``lam`` in place.  The
    rows of ``b`` are zero-padded to blocks of ``GEMM_ROWS`` (inert: the term
    vanishes on zero rows), and ``1/omega_bar`` and the output coefficient
    sit in the two tables.
    """
    n = spec.N
    inv, fwd = _dft_tables(spec)
    rows = b.size // n
    x = np.zeros((-(-rows // GEMM_ROWS) * GEMM_ROWS, n), dtype=np.complex128)
    x[:rows] = b.reshape(rows, n)
    v = np.matmul(x.view(np.float64).reshape(-1, GEMM_ROWS, 2 * n), inv)
    v *= v
    v *= lam
    out = np.matmul(v, fwd).reshape(-1, 2 * n)[:rows]
    return out.view(np.complex128).reshape(b.shape)


@lru_cache(maxsize=8)
def _dft_tables(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Real DFT tables of :func:`_table_nonlinear`, built once per chain.

    ``lam`` only scales ``V**2``, so every coupling shares them.  The phases
    ``2 pi (k x mod N) / N`` are reduced before the cosine, so every argument
    lies in ``[0, 2 pi)`` and each entry is good to about an ulp.  The first
    table, ``(2N, N)``, maps the interleaved ``u`` to ``V`` with ``2/N`` and
    ``1/omega_bar`` folded in; the second, ``(N, 2N)``, maps ``V**2`` to the
    interleaved term with its coefficient ``-i h winv / 8`` (``h N = 1``).
    """
    n = spec.N
    theta = (2.0 * np.pi / n) * (np.outer(np.arange(n), np.arange(n)) % n)
    c, s = np.cos(theta), np.sin(theta)  # symmetric in (k, x)
    winv = np.fft.ifftshift(inverse_omega_bar_grid(spec))
    # rows (k, re/im), columns x: Re of (re + i im) e^{+i theta}
    inv = (2.0 / n) * np.repeat(winv, 2)[:, None] * np.stack([c, -s], axis=1).reshape(2 * n, n)
    out = (inv, (-0.125j * winv * (c - 1j * s)).view(np.float64))
    for table in out:
        table.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _linear_table(spec: LatticeSpec) -> np.ndarray:
    """``-i omega_bar`` in FFT order, the linear part of the ``a(+)`` equation."""
    out = -1j * np.fft.ifftshift(omega_bar_grid(spec))
    out.setflags(write=False)
    return out


def hamiltonian_terms(
    b: np.ndarray, params: ModelParams
) -> tuple[float | np.ndarray, complex | np.ndarray]:
    """Quadratic and cubic energy terms ``(H1, H2)`` of ``a(+)`` in FFT order,
    per replica for a stack.

    ``H1 = sum_k wbar |a(+)_k|^2 / 2``.  ``H2`` is the sign-symmetric triple
    sum over ``s0 k0 + s1 k1 + s2 k2 = 0 (mod N)`` with the interaction
    kernel ``M`` and one lattice measure ``h**d``, matching the measure of
    the quadratic term in the equations of motion.  All eight sign words
    collapse into a cube of the single field
    ``V = fft((a(+)(k) + conj a(+)(-k)) / wbar)``, so the value costs one
    FFT.  ``V`` is real and so is ``H2``; the complex return keeps
    round-off imaginary parts visible.  A field of shape
    ``batch + (N,)*d`` gives arrays of shape ``batch``.
    """
    spec = params.spec
    b = _as_field(spec, b)
    gax = tuple(range(-spec.d, 0))
    h1 = 0.5 * np.sum(np.fft.ifftshift(omega_bar_grid(spec)) * np.abs(b) ** 2, axis=gax)
    b_neg = np.roll(np.flip(b, gax), 1, gax)  # a(+)(-k) in FFT order
    w = (b + np.conj(b_neg)) * np.fft.ifftshift(inverse_omega_bar_grid(spec))
    v = np.fft.fftn(w, axes=gax)
    return h1, spec.h ** (2 * spec.d) * 0.125 * np.sum(v**3, axis=gax)


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


def _phase_factors(spec: LatticeSpec, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Half-step and full-step linear phases of ``a(+)``, in FFT order."""
    e_half = np.exp(-0.5j * dt * np.fft.ifftshift(omega_bar_grid(spec)))
    return e_half, e_half * e_half


def _integrate_array(
    b: np.ndarray,
    params: ModelParams,
    dt: float,
    n_steps: int,
    scheme: str = "exponential",
    step0: int = 0,
    t0: float = 0.0,
) -> np.ndarray:
    """Batched core: steps ``a(+)`` in FFT order, shape ``batch + (N,)*d``,
    into a new array; ``b`` itself is not written.  ``step0`` and ``t0``
    are the run's clock at the start, which a blowup reports in.  Each
    stage calls :func:`wave_nonlinear` once.
    """
    check_step("dt", dt)
    spec, lam = params.spec, params.lam
    if scheme == "exponential":
        e2, e1 = _phase_factors(spec, dt)
        dt_e2, two_e2 = dt * e2, 2.0 * e2  # the products the step would rebuild

        def step(b):
            k1 = wave_nonlinear(b, spec, lam)
            k2 = wave_nonlinear(e2 * (b + 0.5 * dt * k1), spec, lam)
            k3 = wave_nonlinear(e2 * b + 0.5 * dt * k2, spec, lam)
            eb = e1 * b
            k4 = wave_nonlinear(eb + dt_e2 * k3, spec, lam)
            return eb + dt / 6.0 * (e1 * k1 + two_e2 * (k2 + k3) + k4)

    elif scheme == "rk4":
        lin = _linear_table(spec)

        def f(x):
            return lin * x + wave_nonlinear(x, spec, lam)

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
            _maybe_check(b, i, n_steps, step0, t0 + (i + 1) * dt)
    return b


def _maybe_check(a: np.ndarray, i: int, n_steps: int, step0: int, t: float) -> None:
    if i % CHECK_EVERY == CHECK_EVERY - 1 or i == n_steps - 1:
        peak = np.max(np.abs(a))
        if not np.isfinite(peak) or peak > BLOWUP_BOUND:
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
    return _integrate_array(_as_field(params.spec, b), params, dt, n_steps, scheme)


# ---------------------------------------------------------------------------
# ensembles and the empirical spectrum
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """Random-phase ensemble: ``m`` replicas on modulus profile ``n0``.

    ``n0`` is either a table over the shifted spectral grid or a callable
    evaluated on the rescaled wavenumbers ``h k`` (array of shape
    ``(N,)*d + (d,)``); values must be nonnegative.
    """

    m: int
    seed: int
    n0: np.ndarray | Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"ensemble needs at least one replica, got {self.m}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def n0_table(ens: EnsembleSpec, spec: LatticeSpec) -> np.ndarray:
    """Materialize the profile on the spectral grid, zero mode masked."""
    if callable(ens.n0):
        kappa = spec.h * wavenumbers(spec).astype(np.float64)
        table = np.asarray(ens.n0(kappa), dtype=np.float64)
    else:
        table = np.asarray(ens.n0, dtype=np.float64)
    if table.shape != spec.shape:
        raise SizeMismatchError(f"profile shape {table.shape}, expected {spec.shape}")
    if not np.all(np.isfinite(table)) or np.any(table < 0.0):
        raise ValueError("modulus profile must be finite and nonnegative")
    table = table.copy()
    table[center_index(spec)] = 0.0
    return table


def sample_initial(ens: EnsembleSpec, spec: LatticeSpec) -> np.ndarray:
    """Draw the random-phase ensemble at ``t = 0``, deterministically in the
    seed: ``a(+)`` in FFT order, shape ``(m,) + (N,)*d``."""
    root = np.sqrt(n0_table(ens, spec))
    out = np.empty((ens.m,) + spec.shape, dtype=np.complex128)
    for i in range(ens.m):
        # per-replica generator: replica i is identical no matter how many
        # replicas are drawn.  Phases are drawn in shifted order
        rng = np.random.default_rng(np.random.SeedSequence([ens.seed, i]))
        theta = 2.0 * np.pi * rng.random(spec.shape)
        out[i] = np.fft.ifftshift(root * np.exp(1j * theta))
    return out


def empirical_spectrum(b: np.ndarray, spec: LatticeSpec, t: float) -> Spectrum:
    """Replica average of ``conj a(+) a(+)`` on the rescaled grid ``h k``.

    ``b`` is a replica stack of ``a(+)`` in FFT order at time ``t``.  The
    real part is taken and round-off negatives are floored at zero.  The
    result lives on the torus grid with ``N`` nodes per axis (``h k`` mod 1
    enumerates exactly the nodes ``j/N``, in FFT order).  ``tau`` carries
    the microscopic time; rescaling to kinetic time is the caller's
    business.
    """
    b = _as_field(spec, b)
    if b.ndim != 1 + spec.d:  # replica, then the grid axes
        raise SizeMismatchError("expected one leading replica axis")
    f = np.maximum(np.mean(np.conj(b) * b, axis=0).real, 0.0)
    return Spectrum(TorusGrid(spec.d, spec.N), f, float(t))
