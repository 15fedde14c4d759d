"""Fourier pair, dual-grid bookkeeping, and dispersion tables."""

import math

import numpy as np
import pytest

from kinlat import _reference as ref
from kinlat.errors import SizeMismatchError
from kinlat.lattice import (
    LatticeSpec,
    center_index,
    delta_mod,
    dft,
    dispersion,
    dispersion_bar,
    fft_order,
    inverse_dft,
    inverse_omega_bar_grid,
    omega_bar_grid,
    wavenumbers,
    weighted_inner,
)


def _random_field(rng, spec, batch=()):
    shape = batch + spec.shape
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("d,D", [(1, 2), (1, 8), (2, 3), (3, 2)])
def test_roundtrip(rng, d, D):
    spec = LatticeSpec(d, D)
    f = _random_field(rng, spec)
    back = inverse_dft(spec, dft(spec, f))
    assert np.max(np.abs(back - f)) < 1e-12


def test_roundtrip_batched(rng):
    spec = LatticeSpec(2, 2)
    f = _random_field(rng, spec, batch=(4, 3))
    back = inverse_dft(spec, dft(spec, f))
    assert back.shape == f.shape
    assert np.max(np.abs(back - f)) < 1e-12


@pytest.mark.parametrize("d,D", [(1, 4), (2, 3)])
def test_transform_matches_direct_sum(rng, d, D):
    spec = LatticeSpec(d, D)
    f = _random_field(rng, spec)
    assert np.max(np.abs(dft(spec, f) - ref.dft_direct(spec, f))) < 1e-12
    fh = _random_field(rng, spec)
    assert np.max(np.abs(inverse_dft(spec, fh) - ref.inverse_dft_direct(spec, fh))) < 1e-12


@pytest.mark.parametrize("d,D", [(1, 8), (2, 4)])
def test_parseval(rng, d, D):
    spec = LatticeSpec(d, D)
    f = _random_field(rng, spec)
    fh = dft(spec, f)
    lhs = weighted_inner(spec, f, f).real
    rhs = float(np.sum(np.abs(fh) ** 2))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_weighted_inner_is_sesquilinear(rng):
    spec = LatticeSpec(1, 3)
    f, g = _random_field(rng, spec), _random_field(rng, spec)
    assert weighted_inner(spec, f, g) == pytest.approx(
        np.conj(weighted_inner(spec, g, f))
    )


def test_delta_mod_values():
    spec = LatticeSpec(1, 3)  # N = 7
    assert delta_mod(spec, 0) == 7.0
    assert delta_mod(spec, 7) == 7.0
    assert delta_mod(spec, -21) == 7.0
    assert delta_mod(spec, 3) == 0.0
    spec2 = LatticeSpec(2, 1)  # N = 3
    assert delta_mod(spec2, [0, 0]) == 9.0
    assert delta_mod(spec2, [3, -6]) == 9.0
    assert delta_mod(spec2, [3, 1]) == 0.0
    got = delta_mod(spec2, np.array([[0, 0], [1, 0], [-3, 3]]))
    assert got.tolist() == [9.0, 0.0, 9.0]


def test_delta_mod_rejects_wrong_axis():
    with pytest.raises(SizeMismatchError):
        delta_mod(LatticeSpec(2, 1), np.zeros((4, 3)))


def test_dispersion_closed_values():
    assert dispersion(0.0) == 0.0
    assert dispersion(0.25) == pytest.approx(1.0, abs=1e-15)
    assert dispersion(0.5) == pytest.approx(0.0, abs=1e-15)
    # d=2 point: sin^2(pi/2) + sin^2(pi/3)
    got = dispersion(np.array([0.25, 1.0 / 6.0]))
    assert got == pytest.approx(1.0 + math.sin(math.pi / 3.0) ** 2, abs=1e-15)


def test_dispersion_bar_matches_rescaled_dispersion(rng):
    spec = LatticeSpec(2, 5)
    k = wavenumbers(spec).reshape(-1, 2)
    assert np.allclose(dispersion_bar(spec, k), dispersion(spec.h * k), atol=1e-15)


def test_dispersion_bar_zero_only_at_origin():
    spec = LatticeSpec(1, 16)
    k = np.arange(-16, 17)
    w = dispersion_bar(spec, k)
    assert w[16] == 0.0
    assert np.all(w[np.arange(33) != 16] > 0.0)
    # the band edge is soft but not resonant-zero: 1/w stays finite there
    assert w[0] == pytest.approx(math.sin(2.0 * math.pi * 16.0 / 33.0) ** 2, rel=1e-14)


def test_omega_tables_symmetry_and_center():
    spec = LatticeSpec(2, 3)
    w = omega_bar_grid(spec)
    winv = inverse_omega_bar_grid(spec)
    assert np.array_equal(w, np.flip(w))  # even in k
    c = center_index(spec)
    assert w[c] == 0.0 and winv[c] == 0.0
    mask = np.ones(spec.shape, dtype=bool)
    mask[c] = False
    assert np.allclose((w * winv)[mask], 1.0, atol=1e-15)


@pytest.mark.parametrize("d,D", [(1, 3), (2, 2), (3, 1)])
def test_fft_order_is_the_shift_pair(rng, d, D):
    spec = LatticeSpec(d, D)
    to_fft, to_shifted = fft_order(spec)
    f = _random_field(rng, spec, batch=(2,))
    flat = f.reshape(2, spec.n_sites)
    assert np.array_equal(flat[:, to_fft], np.fft.ifftshift(f, axes=range(1, d + 1)).reshape(2, -1))
    assert np.array_equal(flat[:, to_shifted], np.fft.fftshift(f, axes=range(1, d + 1)).reshape(2, -1))
    assert np.array_equal(to_fft[to_shifted], np.arange(spec.n_sites))
    # reversing the flat shifted layout is k -> -k
    k = wavenumbers(spec).reshape(spec.n_sites, d)
    assert np.array_equal(k[::-1], -k)


def test_tables_are_write_protected():
    spec = LatticeSpec(1, 2)
    tables = (wavenumbers(spec), omega_bar_grid(spec), inverse_omega_bar_grid(spec)) + fft_order(spec)
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 1


def test_shape_validation():
    spec = LatticeSpec(2, 2)
    with pytest.raises(SizeMismatchError):
        dft(spec, np.zeros((5, 4)))
    with pytest.raises(SizeMismatchError):
        weighted_inner(spec, np.zeros(spec.shape), np.zeros((4, 5)))
    with pytest.raises(ValueError):
        LatticeSpec(0, 3)
    with pytest.raises(ValueError):
        LatticeSpec(1, 0)
