"""Weakly nonlinear lattice waves in amplitude form.

The second-order lattice dynamics is rewritten in complex amplitudes
``a(k) = wbar(k) q(k) + i p(k)/wbar(k)`` and doubled over a sign index so
that every mode carries the pair ``(a_k, conj(a_k))``:

    d/dt ah(k, s) = -i s wbar(k) ah(k, s)
                    - i s lam sum_{s1 s2} sum_{k1 + k2 window} M ah(k1,s1) ah(k2,s2)

with ``M = [8 wbar(k) wbar(k1) wbar(k2)]^-1`` and the wavenumber constraint
``s1 k1 + s2 k2 = s k (mod N)`` (umklapp wraps included).  The interaction
sum carries unit weight after the constraint collapses it, which is the
normalization the position-space equation of motion induces.  The sign pair
is stored explicitly; the physical manifold ``ah(k,-1) = conj(ah(k,+1))`` is
the one the flow is computed on, and it holds exactly along the flow.

The zero mode has vanishing dispersion and is masked throughout: it is
dropped from the transformation, excluded from the interaction sum, and its
amplitude stays pinned at zero.

Spectral arrays are held in the shifted (ascending wavenumber) order of
:mod:`kinlat.lattice`, with the sign axis before the grid axes: the state,
the snapshots, the energy and the empirical spectrum all read that doubled
layout.  The flow itself runs on the half field ``a(+)`` alone, in natural
FFT order (zero mode first), shape ``batch + (N,)*d``.  On the physical
manifold ``w(k) = u(k) + conj u(-k)`` with ``u = a(+)/wbar`` is Hermitian,
so the position field ``V = 2 Re ifft(u)`` is real and the interaction is
an inverse transform to ``V`` and a forward transform of ``V**2``
(:func:`wave_nonlinear`).  At d = 1 up to ``TABLE_MAX_N`` sites the two
transforms are real GEMMs against cached DFT tables, otherwise the FFT
pair; in both, a replica's bytes do not depend on the batch it is stepped
in.  The stepper checks that its doubled input is an exact
conjugate pair, gathers ``a(+)`` to FFT order once, steps it, and re-doubles
the result exactly, so ``a(-) = conj a(+)`` holds to the bit.

Ensembles are initialized with deterministic random phases on a prescribed
modulus profile; averaging ``|ah(k,+1)|^2`` over replicas gives the empirical
spectrum reported on the rescaled wavenumbers ``h k``, which is the object
the kinetic description predicts at times of order ``lam^-2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalBlowupError, SizeMismatchError, check_step
from .kinetic import Spectrum, TorusGrid
from .lattice import (
    LatticeSpec,
    center_index,
    fft_order,
    inverse_omega_bar_grid,
    omega_bar_grid,
    wavenumbers,
)

__all__ = [
    "ModelParams",
    "PhasePair",
    "AmplitudeState",
    "EnsembleSpec",
    "to_amplitudes",
    "from_amplitudes",
    "rhs",
    "wave_nonlinear",
    "hamiltonian",
    "hamiltonian_terms",
    "integrate",
    "sample_initial",
    "stack_ensemble",
    "n0_table",
    "empirical_spectrum",
    "reality_defect",
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


@dataclass
class AmplitudeState:
    """Doubled amplitude field ``a[s, k]`` with ``s = 0 <-> +1, 1 <-> -1``."""

    a: np.ndarray
    t: float = 0.0


def _check_state(spec: LatticeSpec, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    want = (2,) + spec.shape
    if a.shape[-len(want) :] != want:
        raise SizeMismatchError(f"amplitude array shape {a.shape}, expected trailing {want}")
    return a


def _grid_axes(spec: LatticeSpec, arr: np.ndarray) -> tuple[int, ...]:
    return tuple(range(arr.ndim - spec.d, arr.ndim))


def _flat_signs(spec: LatticeSpec, a: np.ndarray) -> np.ndarray:
    """``a`` reshaped to ``batch + (2, n_sites)``: sign axis, then the flat grid."""
    return a.reshape(a.shape[: a.ndim - spec.d] + (spec.n_sites,))


def to_amplitudes(pair: PhasePair, spec: LatticeSpec) -> AmplitudeState:
    """Map ``(q, p)`` to amplitudes, ``a = wbar q + i p / wbar``.

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
    return AmplitudeState(np.stack([a_plus, np.conj(a_plus)]), 0.0)


def from_amplitudes(state: AmplitudeState, spec: LatticeSpec) -> PhasePair:
    """Inverse map, ``q = [a(k) + a*(-k)]/(2 wbar)``, ``p = i wbar [a*(-k) - a(k)]/2``.

    Uses the stored sign pair literally: ``a*(-k)`` is read off the ``s = -1``
    component at ``-k``.  Exact inverse of :func:`to_amplitudes` on the
    retained modes; the masked zero mode returns as zero.
    """
    a = _check_state(spec, state.a)
    gax = _grid_axes(spec, a[0])
    a_plus = a[0]
    a_conj_neg = np.flip(a[1], axis=gax)  # value of conj-component at -k
    winv = inverse_omega_bar_grid(spec)
    wbar = omega_bar_grid(spec)
    q = 0.5 * winv * (a_plus + a_conj_neg)
    p = 0.5j * wbar * (a_conj_neg - a_plus)
    return PhasePair(q, p)


def reality_defect(state: AmplitudeState, spec: LatticeSpec) -> float:
    """Max deviation from the conjugate-pair constraint ``a(-) = conj(a(+))``.

    The sign axis is the one before the grid axes, so a replica stack of
    shape ``batch + (2,) + (N,)*d`` gives the worst defect over replicas.
    """
    a = _flat_signs(spec, _check_state(spec, state.a))
    return float(np.max(np.abs(a[..., 1, :] - np.conj(a[..., 0, :]))))


def rhs(state: AmplitudeState, params: ModelParams) -> np.ndarray:
    """Time derivative of the amplitude array (same shape as ``state.a``).

    ``state.a`` must be an exact conjugate pair; the derivative is computed
    on ``a(+)`` and doubled, so its ``-1`` half is the conjugate of its ``+1``.
    """
    spec = params.spec
    b = _half(_check_state(spec, state.a), spec)
    return _doubled(_linear_table(spec) * b + wave_nonlinear(b, spec, params.lam), spec)


def _half(a: np.ndarray, spec: LatticeSpec) -> np.ndarray:
    """``a(+)`` of a doubled stack, gathered to FFT order: a new array of shape
    ``batch + (N,)*d``.  Raises ``ValueError`` unless ``a(-) = conj a(+)`` exactly."""
    flat = _flat_signs(spec, a)
    plus, conj_plus = flat[..., 0, :], np.conj(flat[..., 0, :])
    if not np.array_equal(flat[..., 1, :], conj_plus):
        defect = np.max(np.abs(flat[..., 1, :] - conj_plus))
        raise ValueError(
            f"amplitudes are not an exact conjugate pair: |a(-) - conj a(+)| reaches {defect:.3e}"
        )
    return np.take(plus, fft_order(spec)[0], axis=-1).reshape(flat.shape[:-2] + spec.shape)


def _doubled(b: np.ndarray, spec: LatticeSpec) -> np.ndarray:
    """Inverse of :func:`_half`: the exact pair ``(a(+), conj a(+))`` in shifted order."""
    lead = b.shape[: b.ndim - spec.d]
    plus = np.take(b.reshape(lead + (spec.n_sites,)), fft_order(spec)[1], axis=-1)
    return np.stack([plus, np.conj(plus)], axis=-2).reshape(lead + (2,) + spec.shape)


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
    state: AmplitudeState, params: ModelParams
) -> tuple[float | np.ndarray, complex | np.ndarray]:
    """Quadratic and cubic energy terms ``(H1, H2)``, per replica for a stack.

    ``H1 = sum_k wbar |a_k|^2 / 2`` over the sign ``+1`` component.  ``H2``
    is the sign-symmetric triple sum over ``s0 k0 + s1 k1 + s2 k2 = 0
    (mod N)`` with the interaction kernel ``M`` and one lattice measure
    ``h**d``, matching the measure of the quadratic term in the equations
    of motion.  All eight sign words collapse into a cube of the single
    field ``V = fft((a(+) + flip(a(-))) / wbar)``, so the value costs one
    FFT.  On states obeying the reality constraint ``V`` is real and so is
    ``H2``; the complex return keeps round-off imaginary parts visible.
    A state of shape ``batch + (2,) + (N,)*d`` gives arrays of shape ``batch``.
    """
    spec = params.spec
    a = _check_state(spec, state.a)
    flat = _flat_signs(spec, a)
    grid = flat.shape[:-2] + spec.shape
    gax = tuple(range(-spec.d, 0))
    a_plus = flat[..., 0, :].reshape(grid)
    h1 = 0.5 * np.sum(omega_bar_grid(spec) * np.abs(a_plus) ** 2, axis=gax)
    b = (flat[..., 0, :] + flat[..., 1, ::-1]) * inverse_omega_bar_grid(spec).ravel()
    v = np.fft.fftn(np.take(b, fft_order(spec)[0], axis=-1).reshape(grid), axes=gax)
    return h1, spec.h ** (2 * spec.d) * 0.125 * np.sum(v**3, axis=gax)


def hamiltonian(state: AmplitudeState, params: ModelParams) -> float | np.ndarray:
    """Energy the flow conserves, ``H1 + lam * Re H2 / 3!``.

    The sign-symmetric sum ``H2`` meets each interaction word once per
    ordering of its three factors, 3! times, so the conserved cubic term
    carries it with weight ``1/6`` (see :func:`hamiltonian_terms`).  A
    stacked state gives one value per replica.
    """
    h1, h2 = hamiltonian_terms(state, params)
    return h1 + params.lam * h2.real / 6.0


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


def _phase_factors(spec: LatticeSpec, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Half-step and full-step linear phases of ``a(+)``, in FFT order."""
    e_half = np.exp(-0.5j * dt * np.fft.ifftshift(omega_bar_grid(spec)))
    return e_half, e_half * e_half


def _integrate_array(
    a: np.ndarray,
    params: ModelParams,
    dt: float,
    n_steps: int,
    scheme: str = "exponential",
    step0: int = 0,
    t0: float = 0.0,
) -> np.ndarray:
    """Batched core; ``a`` may carry leading replica axes and must be an exact
    conjugate pair.  Returns a new doubled array.  ``step0`` and ``t0`` are
    the run's clock at the start, which a blowup reports in.

    ``a(+)`` is stepped alone in FFT order; each stage calls
    :func:`wave_nonlinear` once.
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
    b = _half(a, spec)
    # overflow and NaN on the way up are the blowup that _maybe_check
    # reports with its step and time; numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            b = step(b)
            _maybe_check(b, i, n_steps, step0, t0 + (i + 1) * dt)
    return _doubled(b, spec)


def _maybe_check(a: np.ndarray, i: int, n_steps: int, step0: int, t: float) -> None:
    if i % CHECK_EVERY == CHECK_EVERY - 1 or i == n_steps - 1:
        peak = np.max(np.abs(a))
        if not np.isfinite(peak) or peak > BLOWUP_BOUND:
            raise NumericalBlowupError(f"amplitude peak {peak:.3e} at t {t:.6g}", step=step0 + i)


def integrate(
    state: AmplitudeState,
    params: ModelParams,
    dt: float,
    n_steps: int,
    scheme: str = "exponential",
) -> AmplitudeState:
    """Advance the amplitude flow by ``n_steps`` steps of size ``dt``.

    ``scheme="exponential"`` propagates the linear phase exactly and applies
    a fourth-order rule in the rotating frame, so at ``lam = 0`` every
    modulus is preserved to round-off.  ``scheme="rk4"`` is the plain
    classical rule on the full right-hand side.
    """
    a = _check_state(params.spec, state.a)
    out = _integrate_array(a, params, dt, n_steps, scheme, t0=state.t)
    return AmplitudeState(out, state.t + dt * n_steps)


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


def _sample_array(ens: EnsembleSpec, spec: LatticeSpec) -> np.ndarray:
    root = np.sqrt(n0_table(ens, spec))
    out = np.empty((ens.m, 2) + spec.shape, dtype=np.complex128)
    for i in range(ens.m):
        # per-replica generator: replica i is identical no matter how many
        # replicas are drawn
        rng = np.random.default_rng(np.random.SeedSequence([ens.seed, i]))
        theta = 2.0 * np.pi * rng.random(spec.shape)
        a_plus = root * np.exp(1j * theta)
        out[i, 0] = a_plus
        out[i, 1] = np.conj(a_plus)
    return out


def sample_initial(ens: EnsembleSpec, spec: LatticeSpec) -> list[AmplitudeState]:
    """Draw the random-phase ensemble at ``t = 0``, deterministically in the seed."""
    return [AmplitudeState(a, 0.0) for a in _sample_array(ens, spec)]


def stack_ensemble(states: Sequence[AmplitudeState]) -> tuple[np.ndarray, float]:
    """Stack replicas into one ``(m, 2) + grid`` array; all must share ``t``."""
    if len(states) == 0:
        raise ValueError("empty ensemble")
    t = states[0].t
    if any(abs(s.t - t) > 1e-12 for s in states):
        raise ValueError("replicas are at different times")
    return np.stack([s.a for s in states]), t


def empirical_spectrum(
    states: Sequence[AmplitudeState] | np.ndarray, spec: LatticeSpec, t: float | None = None
) -> Spectrum:
    """Replica average of ``ah(k,-1) ah(k,+1)`` on the rescaled grid ``h k``.

    On the physical manifold the product is ``|ah(k,+1)|^2``; the real part
    is taken and round-off negatives are floored at zero.  The result lives
    on the torus grid with ``N`` nodes per axis (``h k`` mod 1 enumerates
    exactly the nodes ``j/N``), reported in natural node order.  ``tau``
    carries the microscopic time; rescaling to kinetic time is the caller's
    business.
    """
    if isinstance(states, np.ndarray):
        a = states
        if t is None:
            raise ValueError("stacked-array input needs an explicit time")
    else:
        a, t = stack_ensemble(states)
    a = _check_state(spec, a)
    if a.ndim != 2 + spec.d:  # replica, sign, then the grid axes
        raise SizeMismatchError("expected one leading replica axis")
    prod = np.mean(a[:, 1] * a[:, 0], axis=0).real
    f = np.maximum(np.take(prod.ravel(), fft_order(spec)[0]).reshape(spec.shape), 0.0)
    return Spectrum(TorusGrid(spec.d, spec.N), f, float(t))
