"""Amplitude flow: change of variables, right-hand side, invariants, schemes."""

import warnings

import numpy as np
import pytest

from kinlat import _reference as ref
from kinlat import waves
from kinlat.errors import NumericalBlowupError, SizeMismatchError
from kinlat.lattice import (
    LatticeSpec,
    center_index,
    dft,
    inverse_omega_bar_grid,
    omega_bar_grid,
    wavenumbers,
)
from kinlat.profiles import make_profile
from kinlat.waves import (
    EnsembleSpec,
    ModelParams,
    PhasePair,
    empirical_spectrum,
    from_amplitudes,
    hamiltonian,
    hamiltonian_terms,
    integrate,
    n0_table,
    rhs,
    sample_initial,
    to_amplitudes,
    wave_nonlinear,
)


def _real_pair(rng, spec):
    # spectra of real-valued grid fields are conjugate-even by construction
    q = dft(spec, rng.normal(size=spec.shape))
    p = dft(spec, rng.normal(size=spec.shape))
    return PhasePair(q, p)


def _field(rng, spec, batch=(), scale=1.0):
    # a random a(+); FFT order is immaterial to random data
    shape = batch + spec.shape
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def _fft_wavenumbers(spec):
    # the integer k of each FFT-order index of a d = 1 lattice
    return np.fft.ifftshift(wavenumbers(spec)[:, 0])


# ---------------------------------------------------------------------------
# change of variables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,D", [(1, 3), (2, 2)])
def test_variable_change_roundtrip(rng, d, D):
    spec = LatticeSpec(d, D)
    pair = _real_pair(rng, spec)
    b = to_amplitudes(pair, spec)
    assert b[(0,) * d] == 0.0  # FFT order: the dropped zero mode comes first
    back = from_amplitudes(b, spec)
    mask = np.ones(spec.shape, dtype=bool)
    mask[center_index(spec)] = False  # the zero mode is dropped by design
    assert np.max(np.abs((back.q - pair.q)[mask])) < 1e-12
    assert np.max(np.abs((back.p - pair.p)[mask])) < 1e-12
    assert back.q[center_index(spec)] == 0.0


# ---------------------------------------------------------------------------
# right-hand side against the literal interaction sum
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,D,lam", [(1, 2, 0.7), (1, 3, 1.3), (2, 2, 0.4), (3, 1, 1.0)])
def test_rhs_matches_quadruple_loop(rng, d, D, lam):
    spec = LatticeSpec(d, D)
    b = _field(rng, spec)
    got = ref.doubled_shifted(rhs(b, ModelParams(spec, lam)), spec)
    want = ref.wave_rhs_direct(ref.doubled_shifted(b, spec), spec, lam)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, scale)


def _shifted_order_nonlinear(a, spec, lam):
    # the interaction term of the doubled layout as first written: sign
    # components by np.take, fftshift/ifftshift around the convolution of
    # w(k) = u(k, +) + u(-k, -), both halves stacked
    if lam == 0.0:
        return np.zeros_like(a)
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


def _shifted_order_half(ap, spec, lam):
    # the a(+) kernel written on the shifted layout: ifftshift/fftshift
    # around the real-square transform pair, every product in the kernel's
    # operand order, so that only the FFT-order bookkeeping differs
    if lam == 0.0:
        return np.zeros_like(ap)
    gax = tuple(range(ap.ndim - spec.d, ap.ndim))
    winv = inverse_omega_bar_grid(spec)
    x = np.fft.ifftn(np.fft.ifftshift(ap * winv, axes=gax), axes=gax)
    S = np.fft.fftshift(np.fft.fftn(x.real**2, axes=gax), axes=gax)
    return -0.5j * lam * winv * S


def _rel_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


# an unbatched state and the replica block the harness steps at N = 33, then
# both sides of the d = 1 table crossover, N = 61 | 513 on the harness's
# blocks, and d = 2 at N = 17 and 61
@pytest.mark.parametrize(
    "d,D,batch",
    [
        (1, 16, ()),
        (1, 16, (124,)),
        (2, 6, ()),
        (2, 6, (124,)),
        (1, 256, (7,)),
        (2, 8, (14,)),
        (2, 30, (2,)),
        (1, 30, (67,)),
    ],
)
@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_kernel_is_bitwise_the_shifted_order_formula(rng, d, D, batch, lam):
    # the kernel reads a(+) in FFT order.  It is the + half of the doubled
    # formula to round-off; where it runs by the FFT it is bit for bit its own
    # algebra on the shifted layout, and on either path each row's bytes are
    # its own: the batch equals its sub-blocks of 1, 2, 3, 7 and the rest
    # rows, and an unbatched state its row in a block of 17
    spec = LatticeSpec(d, D)
    b = _field(rng, spec, batch)
    a = ref.doubled_shifted(b, spec)
    gax = tuple(range(len(batch), len(batch) + d))
    ap = np.fft.fftshift(b, axes=gax)
    got = np.fft.fftshift(wave_nonlinear(b, spec, lam), axes=gax)
    want = np.take(_shifted_order_nonlinear(a, spec, lam), 0, axis=len(batch))
    assert got.shape == want.shape and got.dtype == want.dtype
    if not waves._uses_tables(spec):
        assert np.array_equal(got, _shifted_order_half(ap, spec, lam))
    if lam == 0.0:
        assert not np.any(want) and not np.any(got)
    else:
        assert _rel_gap(got, want) <= 1e-14
    rows = b.reshape((-1,) + spec.shape)
    if not batch:
        rows = np.concatenate([rows, _field(rng, spec, (16,))])
    whole = wave_nonlinear(rows, spec, lam)
    if not batch:
        assert np.array_equal(whole[0], wave_nonlinear(b, spec, lam))
    cuts = [c for c in (0, 1, 3, 6, 13) if c < len(rows)] + [len(rows)]
    blocks = [wave_nonlinear(rows[i:j], spec, lam) for i, j in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate(blocks), whole)


def _classical_step(a, nl, wbar, dt, scheme):
    # one step of either scheme as first written, for the interaction nl and
    # the signed dispersion wbar
    if scheme == "exponential":
        e2 = np.exp(-0.5j * dt * wbar)
        e1 = e2 * e2
        k1 = nl(a)
        k2 = nl(e2 * (a + 0.5 * dt * k1))
        k3 = nl(e2 * a + 0.5 * dt * k2)
        ea = e1 * a
        k4 = nl(ea + dt * e2 * k3)
        return ea + dt / 6.0 * (e1 * k1 + 2.0 * e2 * (k2 + k3) + k4)

    def f(x):
        return -1j * wbar * x + nl(x)

    k1 = f(a)
    k2 = f(a + 0.5 * dt * k1)
    k3 = f(a + 0.5 * dt * k2)
    k4 = f(a + dt * k3)
    return a + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("scheme", ["exponential", "rk4"])
@pytest.mark.parametrize("d,D", [(1, 16), (2, 6)])
def test_integrate_step_is_bitwise_the_shifted_order_formula(rng, scheme, d, D):
    # one step is the classical formula on a(+) in FFT order bit for bit,
    # with the kernel as its interaction, and the doubled layout's step to
    # round-off
    spec = LatticeSpec(d, D)
    b = _field(rng, spec, (124,), scale=0.1)
    got = integrate(b, ModelParams(spec, 0.3), 0.05, 1, scheme=scheme)
    half = _classical_step(
        b,
        lambda x: wave_nonlinear(x, spec, 0.3),
        np.fft.ifftshift(omega_bar_grid(spec)),
        0.05,
        scheme,
    )
    assert np.array_equal(got, half)
    # the doubled layout: both sign halves stepped, with _shifted_order_nonlinear
    sgn = np.array([1.0, -1.0]).reshape((2,) + (1,) * d)
    doubled = lambda x: _shifted_order_nonlinear(x, spec, 0.3)  # noqa: E731
    a = ref.doubled_shifted(b, spec)
    want = _classical_step(a, doubled, sgn * omega_bar_grid(spec), 0.05, scheme)
    assert _rel_gap(ref.doubled_shifted(got, spec), want) <= 1e-14


def test_interaction_support_is_modular(rng):
    # populate |k| = 3 on N = 7; pair sums {0, +-6} reach {0, +-1} after wrapping
    spec = LatticeSpec(1, 3)
    params = ModelParams(spec, 1.0)
    k = _fft_wavenumbers(spec)
    b = np.where(np.abs(k) == 3, 0.3 + 0.1j, 0.0)
    nl = rhs(b, params) - -1j * np.fft.ifftshift(omega_bar_grid(spec)) * b
    hit = np.abs(nl) > 1e-14
    # k = 0 stays silent: its interaction weight vanishes with 1/wbar(0) = 0
    assert sorted(int(kk) for kk in k[hit]) == [-1, 1]


def test_rhs_shape_validation():
    spec = LatticeSpec(1, 2)
    with pytest.raises(SizeMismatchError):
        rhs(np.zeros((2, 4), dtype=complex), ModelParams(spec, 0.1))
    with pytest.raises(ValueError):
        ModelParams(spec, -0.1)


# ---------------------------------------------------------------------------
# energy bookkeeping
# ---------------------------------------------------------------------------


def test_hamiltonian_matches_triple_loop(rng):
    spec = LatticeSpec(1, 2)
    b = _field(rng, spec)
    params = ModelParams(spec, 0.3)
    got = hamiltonian(b, params)
    h1, h2 = hamiltonian_terms(b, params)
    want = ref.hamiltonian_direct(ref.doubled_shifted(b, spec), spec, 0.3)
    assert abs((h1 + 0.3 * h2.real / 6.0) - got) < 1e-12
    assert abs(got - want.real) < 1e-12 * max(1.0, abs(want.real))
    # the cubic term of a(+) and its conjugate is real
    assert abs(h2.imag) < 1e-12 * max(1.0, abs(h2.real))


def test_quadratic_term_is_conserved_at_lam_zero(rng):
    spec = LatticeSpec(1, 4)
    params = ModelParams(spec, 0.0)
    b = _field(rng, spec)
    h0 = hamiltonian(b, params)
    out = integrate(b, params, 1e-2, 500)
    assert abs(hamiltonian(out, params) - h0) < 1e-12 * abs(h0)


def test_flow_conserves_symmetrized_cubic_invariant(rng):
    # the sign-symmetrized cubic sum counts every interaction word 3! times,
    # so the energy conserved by the flow, hamiltonian(), carries it with
    # weight 1/6; three replicas stepped as one stack give one value each
    spec = LatticeSpec(1, 4)
    params = ModelParams(spec, 0.1)
    prof = make_profile("omega-bump", amplitude=0.05, center=1.0, width=0.5)
    a = sample_initial(EnsembleSpec(3, 3, prof), spec)
    h0 = hamiltonian(a, params)
    h1, h2 = hamiltonian_terms(a[0], params)
    assert h0[0] == pytest.approx(h1 + params.lam * h2.real / 6.0, rel=1e-14)
    out = integrate(a, params, 1e-2, 2000)
    h = hamiltonian(out, params)
    assert h.shape == (3,)
    assert np.max(np.abs(h - h0) / np.abs(h0)) < 1e-10


# ---------------------------------------------------------------------------
# integration schemes
# ---------------------------------------------------------------------------


def test_linear_flow_preserves_moduli_exactly():
    # the phase factor is a fixed unit-modulus complex number reused every
    # step, so the only drift is its ~1 ulp modulus error accumulating
    # linearly; 50 steps on unit data stays below 1e-14 deterministically
    spec = LatticeSpec(1, 6)
    params = ModelParams(spec, 0.0)
    ens = EnsembleSpec(1, 5, make_profile("constant", level=1.0))
    b = sample_initial(ens, spec)[0]
    mod0 = np.abs(b)
    out = integrate(b, params, 1e-2, 50, scheme="exponential")
    assert np.max(np.abs(np.abs(out) - mod0)) < 1e-14
    # the result is a new array, after no steps too
    out = integrate(b, params, 1e-2, 0)
    assert out is not b and np.array_equal(out, b)


def test_linear_flow_single_mode_phase():
    spec = LatticeSpec(1, 5)
    params = ModelParams(spec, 0.0)
    k = _fft_wavenumbers(spec)
    b = np.where(k == 2, 1.0 + 0.0j, 0.0)
    out = integrate(b, params, 1e-3, 700)
    wbar = np.fft.ifftshift(omega_bar_grid(spec))[k == 2][0]
    expect = np.exp(-1j * wbar * 0.7)
    assert abs(out[k == 2][0] - expect) < 1e-12


def test_rk4_linear_amplitude_drift_budget(rng):
    spec = LatticeSpec(1, 4)
    params = ModelParams(spec, 0.0)
    b = _field(rng, spec)
    mod0 = np.abs(b)
    out = integrate(b, params, 1e-3, 10000, scheme="rk4")
    assert np.max(np.abs(np.abs(out) - mod0)) < 1e-10


def test_schemes_agree_on_smooth_nonlinear_data(rng):
    spec = LatticeSpec(1, 3)
    params = ModelParams(spec, 0.2)
    b = _field(rng, spec, scale=0.05)
    a_exp = integrate(b, params, 1e-3, 500, scheme="exponential")
    a_rk4 = integrate(b, params, 1e-3, 500, scheme="rk4")
    assert np.max(np.abs(a_exp - a_rk4)) < 1e-9


def test_unknown_scheme_rejected(rng):
    spec = LatticeSpec(1, 2)
    with pytest.raises(ValueError):
        integrate(_field(rng, spec), ModelParams(spec, 0.0), 1e-3, 1, scheme="leapfrog")


def test_blowup_is_reported_with_step(rng):
    # the band-edge interaction weight makes large data explode in finite time
    spec = LatticeSpec(1, 16)
    params = ModelParams(spec, 1.0)
    prof = make_profile("omega-bump", amplitude=40.0, center=1.0, width=0.5)
    b = sample_initial(EnsembleSpec(1, 0, prof), spec)[0]
    with pytest.raises(NumericalBlowupError) as err:
        integrate(b, params, 0.05, 4000)
    assert err.value.step is not None


def test_blowup_raises_with_no_warnings():
    # overflow on the way to the blowup is the error's business alone
    spec = LatticeSpec(1, 16)
    params = ModelParams(spec, 1.0)
    prof = make_profile("omega-bump", amplitude=40.0, center=1.0, width=0.5)
    b = sample_initial(EnsembleSpec(1, 0, prof), spec)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalBlowupError) as err:
            integrate(b, params, 0.05, 4000)
    step = err.value.step
    assert step is not None and step < 4000
    assert str(err.value).startswith(f"step {step}: ")
    assert f"at t {(step + 1) * 0.05:.6g}" in str(err.value)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def test_sampling_is_seed_deterministic():
    spec = LatticeSpec(1, 4)
    prof = make_profile("constant", level=0.5)
    ens = EnsembleSpec(3, 42, prof)
    a1 = sample_initial(ens, spec)
    assert np.array_equal(a1, sample_initial(ens, spec))
    assert not np.array_equal(a1, sample_initial(EnsembleSpec(3, 43, prof), spec))


def test_sampling_draws_phases_in_shifted_order():
    # replica i's phases are one draw of its own stream over the shifted
    # grid, gathered to FFT order with the moduli, so a replica's bytes are
    # those of the doubled shifted layout's a(+)
    spec = LatticeSpec(2, 2)
    ens = EnsembleSpec(3, 11, make_profile("constant", level=0.5))
    a = sample_initial(ens, spec)
    assert a.shape == (3,) + spec.shape
    root = np.sqrt(n0_table(ens, spec))
    for i in range(3):
        rng = np.random.default_rng(np.random.SeedSequence([11, i]))
        theta = 2.0 * np.pi * rng.random(spec.shape)
        assert np.array_equal(a[i], np.fft.ifftshift(root * np.exp(1j * theta)))


def test_replicas_differ_but_share_modulus_profile():
    spec = LatticeSpec(1, 4)
    ens = EnsembleSpec(4, 7, make_profile("constant", level=0.25))
    a = sample_initial(ens, spec)
    assert not np.array_equal(a[0], a[1])
    n0 = np.fft.ifftshift(n0_table(ens, spec))
    assert np.allclose(np.abs(a) ** 2, n0, atol=1e-12)


def test_empirical_spectrum_recovers_profile():
    spec = LatticeSpec(1, 6)
    level = 0.3
    ens = EnsembleSpec(64, 9, make_profile("constant", level=level))
    sp = empirical_spectrum(sample_initial(ens, spec), spec, 0.0)
    # random phases leave the modulus profile exact replica by replica;
    # the zero mode is dropped by the amplitude variables and reads zero
    assert sp.f[0] == 0.0
    assert np.allclose(sp.f[1:], level, atol=1e-12)
    assert sp.grid.m == spec.N and sp.tau == 0.0
