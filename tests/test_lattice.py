"""Fourier pair, dual-grid bookkeeping, and dispersion tables."""

import math
import warnings

import numpy as np
import pytest

from kinlat import _reference as ref
from kinlat import waves
from kinlat.errors import SizeMismatchError
from kinlat.lattice import (
    TorusGrid,
    delta_mod,
    dft,
    dispersion,
    dispersion_bar,
    inverse_dft,
    inverse_omega_bar_grid,
    nodes,
    omega_bar_grid,
    wavenumbers,
    weighted_inner,
)


def _random_field(rng, spec, batch=()):
    shape = batch + spec.shape
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("d,D", [(1, 2), (1, 8), (2, 3), (3, 2)])
def test_roundtrip(rng, d, D):
    spec = TorusGrid(d, 2 * D + 1)
    f = _random_field(rng, spec)
    back = inverse_dft(spec, dft(spec, f))
    assert np.max(np.abs(back - f)) < 1e-12


def test_roundtrip_batched(rng):
    spec = TorusGrid(2, 5)
    f = _random_field(rng, spec, batch=(4, 3))
    back = inverse_dft(spec, dft(spec, f))
    assert back.shape == f.shape
    assert np.max(np.abs(back - f)) < 1e-12


@pytest.mark.parametrize("d,D", [(1, 4), (2, 3)])
def test_transform_matches_direct_sum(rng, d, D):
    spec = TorusGrid(d, 2 * D + 1)
    f = _random_field(rng, spec)
    assert np.max(np.abs(dft(spec, f) - ref.dft_direct(spec, f))) < 1e-12
    fh = _random_field(rng, spec)
    assert np.max(np.abs(inverse_dft(spec, fh) - ref.inverse_dft_direct(spec, fh))) < 1e-12


@pytest.mark.parametrize("d,D", [(1, 8), (2, 4)])
def test_parseval(rng, d, D):
    spec = TorusGrid(d, 2 * D + 1)
    f = _random_field(rng, spec)
    fh = dft(spec, f)
    lhs = weighted_inner(spec, f, f).real
    rhs = float(np.sum(np.abs(fh) ** 2))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_weighted_inner_is_sesquilinear(rng):
    spec = TorusGrid(1, 7)
    f, g = _random_field(rng, spec), _random_field(rng, spec)
    assert weighted_inner(spec, f, g) == pytest.approx(
        np.conj(weighted_inner(spec, g, f))
    )


def test_delta_mod_values():
    spec = TorusGrid(1, 7)  # N = 7
    assert delta_mod(spec, 0) == 7.0
    assert delta_mod(spec, 7) == 7.0
    assert delta_mod(spec, -21) == 7.0
    assert delta_mod(spec, 3) == 0.0
    spec2 = TorusGrid(2, 3)  # N = 3
    assert delta_mod(spec2, [0, 0]) == 9.0
    assert delta_mod(spec2, [3, -6]) == 9.0
    assert delta_mod(spec2, [3, 1]) == 0.0
    got = delta_mod(spec2, np.array([[0, 0], [1, 0], [-3, 3]]))
    assert got.tolist() == [9.0, 0.0, 9.0]


def test_delta_mod_rejects_wrong_axis():
    with pytest.raises(SizeMismatchError):
        delta_mod(TorusGrid(2, 3), np.zeros((4, 3)))


def test_dispersion_closed_values():
    assert dispersion(0.0) == 0.0
    assert dispersion(0.25) == pytest.approx(1.0, abs=1e-15)
    assert dispersion(0.5) == pytest.approx(0.0, abs=1e-15)
    # d=2 point: sin^2(pi/2) + sin^2(pi/3)
    got = dispersion(np.array([0.25, 1.0 / 6.0]))
    assert got == pytest.approx(1.0 + math.sin(math.pi / 3.0) ** 2, abs=1e-15)


def test_dispersion_bar_matches_rescaled_dispersion(rng):
    spec = TorusGrid(2, 11)
    k = wavenumbers(spec).reshape(-1, 2)
    assert np.allclose(dispersion_bar(spec, k), dispersion(spec.h * k), atol=1e-15)


def test_dispersion_bar_zero_only_at_origin():
    spec = TorusGrid(1, 33)
    k = np.arange(-16, 17)
    w = dispersion_bar(spec, k)
    assert w[16] == 0.0
    assert np.all(w[np.arange(33) != 16] > 0.0)
    # the band edge is soft but not resonant-zero: 1/w stays finite there
    assert w[0] == pytest.approx(math.sin(2.0 * math.pi * 16.0 / 33.0) ** 2, rel=1e-14)


def test_omega_tables_symmetry_and_center():
    spec = TorusGrid(2, 7)
    w = omega_bar_grid(spec)
    winv = inverse_omega_bar_grid(spec)
    # even in k: in FFT order -k sits at the flipped index rolled by one
    assert np.array_equal(w, np.roll(np.flip(w), 1, axis=(0, 1)))
    assert w[0, 0] == 0.0 and winv[0, 0] == 0.0
    mask = np.ones(spec.shape, dtype=bool)
    mask[0, 0] = False
    assert np.allclose((w * winv)[mask], 1.0, atol=1e-15)


# N = 49 is the first odd length whose fftfreq(N, 1/N) is not exactly integral
@pytest.mark.parametrize("d,D", [(1, 3), (2, 2), (3, 1), (1, 24)])
def test_tables_are_in_fft_order(d, D):
    spec = TorusGrid(d, 2 * D + 1)
    k = wavenumbers(spec)
    assert k.dtype == np.int64 and k.shape == spec.shape + (d,)
    freq = np.fft.fftfreq(spec.m, 1.0 / spec.m)
    for c in range(d):
        # component c runs along grid axis c and is constant along the others
        line = np.moveaxis(k[..., c], c, -1).reshape(-1, spec.m)
        assert np.allclose(line, freq, rtol=0.0, atol=1e-9)
    zero = (0,) * d
    w, winv = omega_bar_grid(spec), inverse_omega_bar_grid(spec)
    assert w[zero] == 0.0 and np.all(np.delete(w.ravel(), 0) > 0.0)
    assert winv[zero] == 0.0 and np.all(np.delete(winv.ravel(), 0) > 0.0)
    # the wave lane reads the tables as they are, with no reordering
    assert np.array_equal(waves._linear_table(spec), -1j * w)


def test_tables_are_write_protected():
    spec = TorusGrid(1, 5)
    tables = (wavenumbers(spec), omega_bar_grid(spec), inverse_omega_bar_grid(spec))
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 1


@pytest.mark.parametrize("table", [wavenumbers, omega_bar_grid, inverse_omega_bar_grid])
@pytest.mark.parametrize("d", [1, 2])
def test_wave_tables_refuse_an_even_lattice(table, d):
    # an even m has a Nyquist mode with no partner -k: refused at the root
    # table, before 1/omega_bar is formed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="odd node count m = 2D \\+ 1, got 8"):
            table(TorusGrid(d, 8))


def test_nodes_are_j_over_m():
    for grid in (TorusGrid(1, 48), TorusGrid(2, 6), TorusGrid(3, 5)):
        x = nodes(grid)
        assert x.shape == grid.shape + (grid.d,) and not x.flags.writeable
        axis = np.arange(grid.m) / grid.m
        for c in range(grid.d):
            line = np.moveaxis(x[..., c], c, -1).reshape(-1, grid.m)
            assert np.array_equal(line, np.broadcast_to(axis, line.shape))
    assert nodes(TorusGrid(1, 48)) is nodes(TorusGrid(1, 48))


def test_shape_validation():
    spec = TorusGrid(2, 5)
    with pytest.raises(SizeMismatchError):
        dft(spec, np.zeros((5, 4)))
    with pytest.raises(SizeMismatchError):
        weighted_inner(spec, np.zeros(spec.shape), np.zeros((4, 5)))
    with pytest.raises(ValueError):
        TorusGrid(0, 7)
    with pytest.raises(ValueError):
        TorusGrid(1, 1)
