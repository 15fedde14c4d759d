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
    AmplitudeState,
    EnsembleSpec,
    ModelParams,
    PhasePair,
    empirical_spectrum,
    from_amplitudes,
    hamiltonian,
    hamiltonian_terms,
    integrate,
    n0_table,
    reality_defect,
    rhs,
    sample_initial,
    stack_ensemble,
    to_amplitudes,
    wave_nonlinear,
)


def _real_pair(rng, spec):
    # spectra of real-valued grid fields are conjugate-even by construction
    q = dft(spec, rng.normal(size=spec.shape))
    p = dft(spec, rng.normal(size=spec.shape))
    return PhasePair(q, p)


def _conjugate_state(rng, spec, scale=1.0):
    ap = scale * (rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape))
    return AmplitudeState(np.stack([ap, np.conj(ap)]), 0.0)


# ---------------------------------------------------------------------------
# change of variables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,D", [(1, 3), (2, 2)])
def test_variable_change_roundtrip(rng, d, D):
    spec = LatticeSpec(d, D)
    pair = _real_pair(rng, spec)
    state = to_amplitudes(pair, spec)
    back = from_amplitudes(state, spec)
    mask = np.ones(spec.shape, dtype=bool)
    mask[center_index(spec)] = False  # the zero mode is dropped by design
    assert np.max(np.abs((back.q - pair.q)[mask])) < 1e-12
    assert np.max(np.abs((back.p - pair.p)[mask])) < 1e-12
    assert back.q[center_index(spec)] == 0.0


def test_real_data_gives_conjugate_amplitudes(rng):
    spec = LatticeSpec(1, 4)
    state = to_amplitudes(_real_pair(rng, spec), spec)
    assert reality_defect(state, spec) < 1e-13


def test_reality_defect_detects_breakage(rng):
    spec = LatticeSpec(1, 2)
    state = _conjugate_state(rng, spec)
    state.a[1, 0] += 0.5
    assert reality_defect(state, spec) > 0.4


def test_reality_defect_reads_the_sign_axis_of_a_stack():
    spec = LatticeSpec(1, 4)
    ens = EnsembleSpec(3, 1, make_profile("constant", level=1.0))
    a, t = stack_ensemble(sample_initial(ens, spec))
    assert reality_defect(AmplitudeState(a, t), spec) == 0.0  # exact pairs
    a[2, 1, 3] += 0.5  # break one mode of the last replica only
    assert reality_defect(AmplitudeState(a, t), spec) == pytest.approx(0.5, rel=1e-12)


def test_reality_is_preserved_by_the_flow(rng):
    spec = LatticeSpec(1, 3)
    params = ModelParams(spec, 0.2)
    state = _conjugate_state(rng, spec, scale=0.05)
    out = integrate(state, params, 1e-2, 200)
    # the flow steps a(+) alone and re-doubles it, so the pair is exact
    assert reality_defect(out, spec) == 0.0


def test_integrate_and_rhs_reject_a_broken_pair(rng):
    spec = LatticeSpec(1, 3)
    params = ModelParams(spec, 0.2)
    state = _conjugate_state(rng, spec)
    state.a[1, 2] += 1e-3
    for call in (lambda: integrate(state, params, 1e-2, 1), lambda: rhs(state, params)):
        with pytest.raises(ValueError, match=r"not an exact conjugate pair: .* reaches 1\.000e-03"):
            call()
    # exact means to the bit: one ulp off is a broken pair too
    state = _conjugate_state(rng, spec)
    state.a[1, 2] = np.nextafter(state.a[1, 2].real, np.inf) + 1j * state.a[1, 2].imag
    for call in (lambda: integrate(state, params, 1e-2, 1), lambda: rhs(state, params)):
        with pytest.raises(ValueError, match="not an exact conjugate pair"):
            call()


# ---------------------------------------------------------------------------
# right-hand side against the literal interaction sum
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,D,lam", [(1, 2, 0.7), (1, 3, 1.3), (2, 2, 0.4), (3, 1, 1.0)])
def test_rhs_matches_quadruple_loop(rng, d, D, lam):
    spec = LatticeSpec(d, D)
    a = _conjugate_state(rng, spec).a
    got = rhs(AmplitudeState(a, 0.0), ModelParams(spec, lam))
    want = ref.wave_rhs_direct(a, spec, lam)
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


def _exact_pairs(rng, spec, batch, scale=1.0):
    shape = batch + spec.shape
    ap = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return np.stack([ap, np.conj(ap)], axis=len(batch))


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
    a = _exact_pairs(rng, spec, batch)
    gax = tuple(range(len(batch), len(batch) + d))
    ap = np.take(a, 0, axis=len(batch))
    b = np.fft.ifftshift(ap, axes=gax)
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
        rows = np.concatenate([rows, _exact_pairs(rng, spec, (16,))[:, 0]])
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
    a = _exact_pairs(rng, spec, (124,), scale=0.1)
    got = integrate(AmplitudeState(a, 0.0), ModelParams(spec, 0.3), 0.05, 1, scheme=scheme)
    gax = tuple(range(1, 1 + d))
    half = _classical_step(
        np.fft.ifftshift(a[:, 0], axes=gax),
        lambda x: wave_nonlinear(x, spec, 0.3),
        np.fft.ifftshift(omega_bar_grid(spec)),
        0.05,
        scheme,
    )
    half = np.fft.fftshift(half, axes=gax)
    assert np.array_equal(got.a[:, 0], half)
    assert np.array_equal(got.a[:, 1], np.conj(half))
    # the doubled layout: both sign halves stepped, with _shifted_order_nonlinear
    sgn = np.array([1.0, -1.0]).reshape((2,) + (1,) * d)
    doubled = lambda x: _shifted_order_nonlinear(x, spec, 0.3)  # noqa: E731
    want = _classical_step(a, doubled, sgn * omega_bar_grid(spec), 0.05, scheme)
    assert got.a.shape == want.shape
    assert _rel_gap(got.a, want) <= 1e-14


def test_interaction_support_is_modular(rng):
    # populate |k| = 3 on N = 7; pair sums {0, +-6} reach {0, +-1} after wrapping
    spec = LatticeSpec(1, 3)
    params = ModelParams(spec, 1.0)
    a = np.zeros((2, 7), dtype=np.complex128)
    k = wavenumbers(spec)[..., 0]
    for mode in (-3, 3):
        a[0, k == mode] = 0.3 + 0.1j
    a[1] = np.conj(a[0])
    lin = -1j * np.array([1.0, -1.0])[:, None] * omega_bar_grid(spec) * a
    nl = rhs(AmplitudeState(a, 0.0), params) - lin
    hit = np.max(np.abs(nl), axis=0) > 1e-14
    # k = 0 stays silent: its interaction weight vanishes with 1/wbar(0) = 0
    assert sorted(int(kk) for kk in k[hit]) == [-1, 1]


def test_rhs_shape_validation():
    spec = LatticeSpec(1, 2)
    with pytest.raises(SizeMismatchError):
        rhs(AmplitudeState(np.zeros((2, 4), dtype=complex), 0.0), ModelParams(spec, 0.1))
    with pytest.raises(ValueError):
        ModelParams(spec, -0.1)


# ---------------------------------------------------------------------------
# energy bookkeeping
# ---------------------------------------------------------------------------


def test_hamiltonian_matches_triple_loop(rng):
    spec = LatticeSpec(1, 2)
    state = _conjugate_state(rng, spec)
    params = ModelParams(spec, 0.3)
    got = hamiltonian(state, params)
    h1, h2 = hamiltonian_terms(state, params)
    want = ref.hamiltonian_direct(state.a, spec, 0.3)
    assert abs((h1 + 0.3 * h2.real / 6.0) - got) < 1e-12
    assert abs(got - want.real) < 1e-12 * max(1.0, abs(want.real))
    # cubic term is real on the conjugate-pair manifold
    assert abs(h2.imag) < 1e-12 * max(1.0, abs(h2.real))


def test_quadratic_term_is_conserved_at_lam_zero(rng):
    spec = LatticeSpec(1, 4)
    params = ModelParams(spec, 0.0)
    state = _conjugate_state(rng, spec)
    h0 = hamiltonian(state, params)
    out = integrate(state, params, 1e-2, 500)
    assert abs(hamiltonian(out, params) - h0) < 1e-12 * abs(h0)


def test_flow_conserves_symmetrized_cubic_invariant(rng):
    # the sign-symmetrized cubic sum counts every interaction word 3! times,
    # so the energy conserved by the flow, hamiltonian(), carries it with
    # weight 1/6; three replicas stepped as one stack give one value each
    spec = LatticeSpec(1, 4)
    params = ModelParams(spec, 0.1)
    prof = make_profile("omega-bump", amplitude=0.05, center=1.0, width=0.5)
    a, _ = stack_ensemble(sample_initial(EnsembleSpec(3, 3, prof), spec))
    h0 = hamiltonian(AmplitudeState(a, 0.0), params)
    h1, h2 = hamiltonian_terms(AmplitudeState(a[0], 0.0), params)
    assert h0[0] == pytest.approx(h1 + params.lam * h2.real / 6.0, rel=1e-14)
    out = integrate(AmplitudeState(a, 0.0), params, 1e-2, 2000)
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
    a, _ = stack_ensemble(sample_initial(ens, spec))
    state = AmplitudeState(a[0], 0.0)
    mod0 = np.abs(state.a)
    out = integrate(state, params, 1e-2, 50, scheme="exponential")
    assert np.max(np.abs(np.abs(out.a) - mod0)) < 1e-14


def test_linear_flow_single_mode_phase():
    spec = LatticeSpec(1, 5)
    params = ModelParams(spec, 0.0)
    a = np.zeros((2, 11), dtype=np.complex128)
    k = wavenumbers(spec)[..., 0]
    a[0, k == 2] = 1.0
    a[1] = np.conj(a[0])
    t = 0.7
    out = integrate(AmplitudeState(a, 0.0), params, 1e-3, 700)
    wbar = omega_bar_grid(spec)[k == 2][0]
    expect = np.exp(-1j * wbar * t)
    assert abs(out.a[0, (k == 2).argmax()] - expect) < 1e-12
    assert out.t == pytest.approx(t)


def test_rk4_linear_amplitude_drift_budget(rng):
    spec = LatticeSpec(1, 4)
    params = ModelParams(spec, 0.0)
    state = _conjugate_state(rng, spec)
    mod0 = np.abs(state.a)
    out = integrate(state, params, 1e-3, 10000, scheme="rk4")
    assert np.max(np.abs(np.abs(out.a) - mod0)) < 1e-10


def test_schemes_agree_on_smooth_nonlinear_data(rng):
    spec = LatticeSpec(1, 3)
    params = ModelParams(spec, 0.2)
    state = _conjugate_state(rng, spec, scale=0.05)
    a_exp = integrate(state, params, 1e-3, 500, scheme="exponential")
    a_rk4 = integrate(state, params, 1e-3, 500, scheme="rk4")
    assert np.max(np.abs(a_exp.a - a_rk4.a)) < 1e-9


def test_unknown_scheme_rejected(rng):
    spec = LatticeSpec(1, 2)
    with pytest.raises(ValueError):
        integrate(_conjugate_state(rng, spec), ModelParams(spec, 0.0), 1e-3, 1, scheme="leapfrog")


def test_blowup_is_reported_with_step(rng):
    # the band-edge interaction weight makes large data explode in finite time
    spec = LatticeSpec(1, 16)
    params = ModelParams(spec, 1.0)
    prof = make_profile("omega-bump", amplitude=40.0, center=1.0, width=0.5)
    a, _ = stack_ensemble(sample_initial(EnsembleSpec(1, 0, prof), spec))
    with pytest.raises(NumericalBlowupError) as err:
        integrate(AmplitudeState(a[0], 0.0), params, 0.05, 4000)
    assert err.value.step is not None


def test_blowup_raises_with_no_warnings():
    # overflow on the way to the blowup is the error's business alone
    spec = LatticeSpec(1, 16)
    params = ModelParams(spec, 1.0)
    prof = make_profile("omega-bump", amplitude=40.0, center=1.0, width=0.5)
    a, _ = stack_ensemble(sample_initial(EnsembleSpec(1, 0, prof), spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalBlowupError) as err:
            integrate(AmplitudeState(a[0], 0.0), params, 0.05, 4000)
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
    a1, _ = stack_ensemble(sample_initial(ens, spec))
    a2, _ = stack_ensemble(sample_initial(ens, spec))
    assert np.array_equal(a1, a2)
    b, _ = stack_ensemble(sample_initial(EnsembleSpec(3, 43, prof), spec))
    assert not np.array_equal(a1, b)


def test_replicas_differ_but_share_modulus_profile():
    spec = LatticeSpec(1, 4)
    ens = EnsembleSpec(4, 7, make_profile("constant", level=0.25))
    a, _ = stack_ensemble(sample_initial(ens, spec))
    assert not np.array_equal(a[0], a[1])
    n0 = n0_table(ens, spec)
    assert np.allclose(np.abs(a[:, 0]) ** 2, n0, atol=1e-12)


def test_empirical_spectrum_recovers_profile():
    spec = LatticeSpec(1, 6)
    level = 0.3
    ens = EnsembleSpec(64, 9, make_profile("constant", level=level))
    states = sample_initial(ens, spec)
    sp = empirical_spectrum(states, spec)
    # random phases leave the modulus profile exact replica by replica;
    # the zero mode is dropped by the amplitude variables and reads zero
    assert sp.f[0] == 0.0
    assert np.allclose(sp.f[1:], level, atol=1e-12)
    assert sp.grid.m == spec.N and sp.tau == 0.0


def test_stack_unstack_roundtrip(rng):
    spec = LatticeSpec(1, 2)
    states = [
        _conjugate_state(rng, spec),
        _conjugate_state(rng, spec),
    ]
    a, t = stack_ensemble(states)
    assert len(a) == 2 and t == 0.0
    assert np.array_equal(a[1], states[1].a)
