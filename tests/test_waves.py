"""Amplitude flow: change of variables, right-hand side, invariants, schemes."""

import numpy as np
import pytest

from kinlat import _reference as ref
from kinlat.errors import NumericalBlowupError, SizeMismatchError
from kinlat.lattice import (
    LatticeSpec,
    center_index,
    dft,
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
    assert reality_defect(out, spec) < 1e-10


# ---------------------------------------------------------------------------
# right-hand side against the literal interaction sum
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,D,lam", [(1, 2, 0.7), (1, 3, 1.3), (2, 2, 0.4), (3, 1, 1.0)])
def test_rhs_matches_quadruple_loop(rng, d, D, lam):
    spec = LatticeSpec(d, D)
    a = rng.normal(size=(2,) + spec.shape) + 1j * rng.normal(size=(2,) + spec.shape)
    got = rhs(AmplitudeState(a, 0.0), ModelParams(spec, lam))
    want = ref.wave_rhs_direct(a, spec, lam)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, scale)


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
