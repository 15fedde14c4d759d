"""Transport solver: conservation, free streaming, force assembly, moments."""

import tracemalloc
import warnings

import numpy as np
import pytest

from kinlat import _reference as ref
from kinlat import vlasov
from kinlat.chain import ChainGeometry, FractionalParams, GaussianLaw, PointLaw, sample_ensemble
from kinlat.compare import cell_moments_of_ensemble, meanfield_distance
from kinlat.config import parse_config
from kinlat.errors import ConfigError, SizeMismatchError
from kinlat.vlasov import (
    PhaseGrid,
    acceleration,
    boundary_mass,
    cell_moments_of_density,
    check_density,
    density_from_law,
    moments,
    r_centers,
    sigma_field,
    _LineShift,
    _shift_lines,
    _Strang,
    v_centers,
    vlasov_evolve,
    x_centers,
)

FP = FractionalParams(0.5)


def _gaussian_density(grid, sigma_r=0.12, sigma_v=0.12, x_weight=None):
    rr = r_centers(grid)[None, :, None]
    vv = v_centers(grid)[None, None, :]
    base = np.exp(-0.5 * (rr / sigma_r) ** 2 - 0.5 * (vv / sigma_v) ** 2)
    if x_weight is not None:
        base = base * x_weight(x_centers(grid))[:, None, None]
    else:
        base = np.broadcast_to(base, grid.shape).copy()
    return base


# ---------------------------------------------------------------------------
# grids and densities
# ---------------------------------------------------------------------------


def test_grid_geometry():
    grid = PhaseGrid(4, 8, 10, 2.0, 1.5)
    assert grid.dx == 0.25
    assert grid.dr == pytest.approx(0.5)
    assert grid.dv == pytest.approx(0.3)
    assert grid.cell_volume == pytest.approx(0.25 * 0.5 * 0.3)
    assert x_centers(grid)[0] == pytest.approx(1.0 / 8.0)
    assert r_centers(grid)[0] == pytest.approx(-2.0 + 0.25)
    with pytest.raises(ValueError):
        PhaseGrid(0, 8, 8, 1.0, 1.0)
    with pytest.raises(ValueError):
        PhaseGrid(4, 8, 8, -1.0, 1.0)


def test_density_validation():
    grid = PhaseGrid(2, 4, 4, 1.0, 1.0)
    with pytest.raises(SizeMismatchError):
        check_density(np.zeros((2, 4, 5)), grid)
    with pytest.raises(ValueError):
        check_density(np.full(grid.shape, -1.0), grid)
    g = check_density(np.full(grid.shape, 2.0), grid)
    mass = vlasov_evolve(g, grid, FP, 0.01, 0)[1].mass_initial
    assert mass == pytest.approx(2.0 * 2.0 * 2.0)  # 2 * volume of [0,1]x[-1,1]^2


def test_density_validation_names_the_fault_whatever_slab_holds_it():
    grid = PhaseGrid(9, 128, 128, 1.0, 1.0)  # slabs of 2 planes, a short last one
    assert len(vlasov._slabs(grid)) == 5
    for bad, message in ((np.nan, "finite"), (np.inf, "finite"), (-1.0, "nonnegative")):
        for x in (0, 4, 8):
            g = np.ones(grid.shape)
            g[x, 3, 5] = bad
            with pytest.raises(ValueError, match=message):
                check_density(g, grid)
    # a non-finite cell is reported before a negative one in an earlier slab
    g = np.ones(grid.shape)
    g[0, 0, 0], g[8, 0, 0] = -1.0, np.nan
    with pytest.raises(ValueError, match="must be finite"):
        check_density(g, grid)


def test_moments_of_offset_gaussian():
    grid = PhaseGrid(2, 128, 64, 1.5, 1.0)
    r0 = 0.37
    rr = r_centers(grid)[None, :, None]
    vv = v_centers(grid)[None, None, :]
    vals = np.exp(-0.5 * ((rr - r0) / 0.15) ** 2 - 0.5 * (vv / 0.2) ** 2)
    rho, m = moments(np.broadcast_to(vals, grid.shape), grid)
    assert rho.shape == (2,) and m.shape == (2,)
    assert np.allclose(m / rho, r0, atol=1e-6)
    rho, m = moments(np.zeros(grid.shape), grid)
    assert np.all(rho == 0.0) and np.all(m == 0.0)
    with pytest.raises(SizeMismatchError):
        moments(np.zeros((2, 128, 63)), grid)


# ---------------------------------------------------------------------------
# fractional derivative and force field
# ---------------------------------------------------------------------------


def _apply_pde_symbol(u, alpha):
    return np.fft.ifft(FractionalParams(alpha).pde_symbol(u.size) * np.fft.fft(u)).real


def test_frac_laplacian_plane_wave_eigenvalue():
    m, k, alpha = 64, 3, 0.5
    x = np.arange(m) / m
    u = np.cos(2.0 * np.pi * k * x)
    got = _apply_pde_symbol(u, alpha)
    want = (2.0 * np.pi * k) ** (2.0 * alpha) * u
    assert np.max(np.abs(got - want)) < 1e-10
    assert np.max(np.abs(_apply_pde_symbol(np.full(m, 3.7), alpha))) < 1e-12
    assert FractionalParams(alpha).pde_symbol(m)[0] == 0.0


def test_frac_laplacian_alpha_one_is_minus_laplacian():
    # alpha -> 1 multiplier (2 pi k)^2 equals the continuum -u''
    m = 32
    x = np.arange(m) / m
    u = np.sin(2.0 * np.pi * x)
    got = _apply_pde_symbol(u, 0.999999)
    assert np.allclose(got, (2.0 * np.pi) ** 2 * u, rtol=1e-4)


def test_sigma_field_vanishes_without_x_structure():
    grid = PhaseGrid(8, 16, 12, 1.0, 1.0)
    g = _gaussian_density(grid)
    assert np.max(np.abs(sigma_field(g, grid, FP))) < 1e-12


def test_sigma_field_matches_unfactorized(rng):
    grid = PhaseGrid(8, 32, 24, 1.0, 1.2)
    g = _gaussian_density(
        grid, sigma_r=0.3, sigma_v=0.3,
        x_weight=lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x) + 0.2 * np.sin(4 * np.pi * x),
    )
    got = sigma_field(g, grid, FP)
    want = ref.sigma_field_unfactorized(g, grid, FP)
    assert np.max(np.abs(got - want)) < 1e-12
    assert acceleration(g, grid, FP) == pytest.approx(got / FP.c_alpha)


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


def test_step_conserves_mass_and_positivity():
    grid = PhaseGrid(4, 64, 64, 1.0, 1.0)
    g = _gaussian_density(grid, x_weight=lambda x: 1.0 + 0.3 * np.cos(2 * np.pi * x))
    m0 = g.sum()
    g, _ = vlasov_evolve(g, grid, FP, 2e-3, 20)
    assert abs(g.sum() - m0) / m0 < 1e-12
    assert np.all(g >= 0.0)


def test_free_streaming_matches_characteristics():
    grid = PhaseGrid(2, 96, 96, 1.0, 1.0)
    law = GaussianLaw(0.0, 0.0, 0.12, 0.12)
    g = density_from_law(law, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # interior support must stay advisory-free
        g, diag = vlasov_evolve(g, grid, FP, 2e-3, 100)
    assert diag.notes == []
    exact = ref.free_streaming_density(law, grid, 100 * 2e-3)
    err = np.max(np.abs(g - exact)) / np.max(exact)
    assert err < 2e-2
    assert diag.escaped_mass == pytest.approx(0.0, abs=1e-12)


def test_strang_self_convergence_second_order():
    grid = PhaseGrid(8, 48, 48, 1.0, 1.0)
    g0 = _gaussian_density(grid, x_weight=lambda x: 1.0 + 0.4 * np.cos(2 * np.pi * x))

    def run(dt, n):
        return vlasov_evolve(g0, grid, FP, dt, n)[0]

    ref_fine = run(2.5e-3, 16)
    err1 = np.max(np.abs(run(1e-2, 4) - ref_fine))
    err2 = np.max(np.abs(run(5e-3, 8) - ref_fine))
    assert err2 < 0.45 * err1


def test_max_density_does_not_grow():
    # incompressible characteristics: the sup can only shrink numerically
    grid = PhaseGrid(4, 64, 64, 1.0, 1.0)
    g = _gaussian_density(grid, x_weight=lambda x: 1.0 + 0.3 * np.sin(2 * np.pi * x))
    peak0 = g.max()
    g, _ = vlasov_evolve(g, grid, FP, 2e-3, 50)
    assert g.max() <= peak0 * (1.0 + 1e-9)


def test_boundary_advisory_fires_for_wide_support():
    grid = PhaseGrid(2, 24, 24, 0.3, 0.3)  # window much narrower than the data
    g = _gaussian_density(grid, sigma_r=0.3, sigma_v=0.3)
    assert boundary_mass(g, grid) > 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # advisories are notes, not warnings
        _, diag = vlasov_evolve(g, grid, FP, 5e-3, 10)
    assert len(diag.notes) == 1
    assert diag.notes[0].startswith("support reached the (r, v) truncation boundary")
    assert f"peak edge mass {diag.boundary_mass_max:.3e}" in diag.notes[0]


def test_interp_mode_validated():
    # linear is the one interpolant, and configs that name it stay valid
    doc = {"pipeline": "vlasov", "seed": 0, "vlasov": {"interp": "linear"}}
    assert parse_config(doc).vlasov.interp == "linear"
    grid = PhaseGrid(2, 16, 16, 1.0, 1.0)
    g = _gaussian_density(grid)
    for dt in (-1e-3, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dt"):
            vlasov_evolve(g, grid, FP, dt, 1)
    # checked before any work, so zero steps do not let bad arguments through
    with pytest.raises(ValueError, match="dt"):
        vlasov_evolve(g, grid, FP, float("nan"), 0)


# shifts per line: fractional, exact integers, negative, and |s| >= n (the line empties)
_EDGE_SHIFTS = [0.3, -0.7, 2.0, -3.0, 0.0, 9.0, -9.0, 12.5, -30.25]

# on lines of 130 cells: -s in (-1, 0) whose weight rounds to 1.0 or to just
# below it, a tiny weight, reads just inside either end, reads that start
# past an end, |s| >= n, and one far beyond the offset clamp
_ROUNDING_SHIFTS = [1e-20, -1e-20, -2.5e-17, 3e-16, -3e-16, 127.99999999999999,
                    -127.99999999999999, 2.5, -2.5, 129.5, -129.5, 130.0, -130.0,
                    130.5, -1e6, 1e300]


def _runs(sweep):
    """Runs of v-lines a sweep blends together, each named by its first line."""
    return len({idx[:1] + (idx[1].start,) for idx in sweep.zeros + [t[0] for t in sweep.terms]})


def _assert_loop(arr, shifts, axis):
    got = _shift_lines(arr, shifts, axis)
    want = ref.shift_lines_loop(arr, shifts, axis)
    assert np.array_equal(got, want), (axis, float(np.max(np.abs(got - want))))
    return got


def test_line_shift_matches_loop(rng):
    base = rng.random((4, 9, 18))
    arr = base[:, :, ::2]  # a non-contiguous view, shape (4, 9, 9)
    # axis 1: one shift per v column, broadcast over x
    s_r = np.array(_EDGE_SHIFTS).reshape(1, 1, 9)
    # axis 2: one shift per (x, r) line
    s_v = np.concatenate([_EDGE_SHIFTS, 5.0 * rng.standard_normal(27)]).reshape(4, 9, 1)
    _assert_loop(arr, s_v, 2)
    emptied = _assert_loop(arr, s_r, 1)
    assert np.all(emptied[:, :, 5:7] == 0.0)  # |s| = 9 = n moves every value out
    assert np.array_equal(emptied[:, :, 4], arr[:, :, 4])  # s = 0 is the identity
    # rounding edges on lines of 130 cells, along either axis
    shifts = np.array(_ROUNDING_SHIFTS)
    _assert_loop(rng.random((2, 130, 16)), shifts.reshape(1, 1, 16), 1)
    _assert_loop(rng.random((2, 8, 130)), shifts.reshape(2, 8, 1), 2)
    # every v-line its own run
    s_v = rng.uniform(-6.0, 6.0, size=(3, 11, 1))
    s_v[:, 1::2] += 20.0
    _assert_loop(arr := rng.random((3, 11, 24)), s_v, 2)
    sweep = _LineShift(2, arr.shape[2], vlasov._scratch(arr.shape)).set_shifts(s_v)
    assert _runs(sweep) == 33


def test_line_shift_of_an_x_inhomogeneous_density():
    # rho varies with x, so L rho != 0 and the v-shift changes its integer part along r
    grid = PhaseGrid(4, 32, 32, 1.0, 1.2)
    g = _gaussian_density(
        grid, sigma_r=0.3, sigma_v=0.25, x_weight=lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x)
    )
    dt = 0.05
    s_v = (acceleration(g, grid, FP) * dt / grid.dv)[:, :, None]
    sweep = _LineShift(2, grid.mv, vlasov._scratch(grid.shape)).set_shifts(s_v)
    # several runs in a plane, of several lines each
    assert 2 * grid.mx < _runs(sweep) < grid.mx * grid.mr // 2
    _assert_loop(g, s_v, 2)
    s_r = (v_centers(grid) * (0.5 * dt) / grid.dr).reshape(1, 1, grid.mv)
    _assert_loop(g, s_r, 1)


def test_non_finite_shifts_give_non_finite_lines(rng):
    arr = rng.random((2, 6, 7))
    for bad in (np.nan, np.inf, -np.inf):
        # pyproject turns any RuntimeWarning, such as a NaN cast, into an error
        for axis, shape, line in ((2, (2, 6, 1), (1, 2, 0)), (1, (1, 1, 7), (0, 0, 3))):
            shifts = rng.uniform(-2.0, 2.0, size=shape)
            shifts[line] = bad
            got = _shift_lines(arr, shifts, axis)
            sel = (1, 2, slice(None)) if axis == 2 else (slice(None), slice(None), 3)
            assert not np.isfinite(got[sel]).any(), (bad, axis)
            shifts[line] = 0.0
            want = ref.shift_lines_loop(arr, shifts, axis)
            keep = np.ones(arr.shape, dtype=bool)
            keep[sel] = False
            assert np.array_equal(got[keep], want[keep]), (bad, axis)


def test_steps_leave_caller_arrays_alone():
    grid = PhaseGrid(4, 24, 20, 1.0, 1.0)
    g0 = _gaussian_density(grid, x_weight=lambda x: 1.0 + 0.3 * np.cos(2 * np.pi * x))
    before = g0.copy()
    g1, _ = vlasov_evolve(g0, grid, FP, 5e-3, 1)
    assert np.array_equal(g0, before)
    after_one = g1.copy()
    g, _ = vlasov_evolve(g1, grid, FP, 5e-3, 6)
    assert np.array_equal(g0, before) and np.array_equal(g1, after_one)
    assert g is not g1 and not np.array_equal(g, after_one)


def test_cfl_v_is_the_applied_field():
    grid = PhaseGrid(8, 32, 32, 1.0, 1.2)
    # a mean velocity that varies with x makes the half r-sweep move the r-moment
    x = x_centers(grid)[:, None, None]
    rr = r_centers(grid)[None, :, None]
    vv = v_centers(grid)[None, None, :]
    drift = 0.2 * np.cos(2 * np.pi * x)
    g0 = np.exp(-0.5 * (rr / 0.1) ** 2 - 0.5 * ((vv - drift) / 0.1) ** 2)
    dt = 0.05
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, diag = vlasov_evolve(g0, grid, FP, dt, 1)
    assert diag.notes == []
    assert diag.cfl_r == grid.v_max * dt / grid.dr
    s_r = (v_centers(grid) * (0.5 * dt) / grid.dr).reshape(1, 1, grid.mv)
    mid = ref.shift_lines_loop(g0, s_r, 1)
    want = float(np.max(np.abs(acceleration(mid, grid, FP)))) * dt / grid.dv
    assert diag.cfl_v == pytest.approx(want, rel=1e-12)
    # the field before the half sweep is measurably different
    before = float(np.max(np.abs(acceleration(g0, grid, FP)))) * dt / grid.dv
    assert abs(before - want) > 1e-3 * want


def test_boundary_mass_reads_the_edge_shells(rng):
    for shape in ((1, 2, 2), (3, 2, 7), (4, 9, 2), (5, 16, 12), (2, 128, 128)):
        grid = PhaseGrid(*shape, 1.0, 1.2)
        g = rng.random(shape)
        edge = np.zeros(shape, dtype=bool)
        edge[:, 0, :] = edge[:, -1, :] = True
        edge[:, :, 0] = edge[:, :, -1] = True
        assert boundary_mass(g, grid) == float(g[edge].sum() * grid.cell_volume)


def _unblocked_step(g, grid, dt):
    """One Strang step as whole-array sweeps: the composition the slabs must reproduce."""
    s_r = (v_centers(grid) * (0.5 * dt) / grid.dr).reshape(1, 1, grid.mv)
    half = _shift_lines(g, s_r, 1)
    accel = acceleration(half, grid, FP)
    mid = _shift_lines(half, (accel * dt / grid.dv)[:, :, None], 2)
    return _shift_lines(mid, s_r, 1), accel


def test_strang_step_is_the_unblocked_composition(monkeypatch):
    mr, mv = 64, 48
    planes = vlasov.SLAB_BYTES // (mr * mv * 8)
    assert planes > 3
    calls = []

    def counted(*args):
        calls.append(1)
        return acceleration(*args)

    monkeypatch.setattr(vlasov, "acceleration", counted)
    # one plane, fewer planes than a slab, one full slab, a short last slab
    for mx in (1, planes - 2, planes, 2 * planes + 3):
        grid = PhaseGrid(mx, mr, mv, 1.0, 1.2)
        g = _gaussian_density(
            grid, sigma_r=0.3, sigma_v=0.25,
            x_weight=lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x) + 0.2 * np.sin(4 * np.pi * x),
        )
        strang, want, h = _Strang(grid, 0.05), g, g.copy()
        short = [mx % planes] if mx % planes else []
        assert [x.stop - x.start for x in strang.slabs] == [planes] * (mx // planes) + short
        calls.clear()
        for n in range(1, 4):
            g, accel = strang.step(g, FP)
            want, want_accel = _unblocked_step(want, grid, 0.05)
            assert np.array_equal(g, want) and np.array_equal(accel, want_accel), (mx, n)
            # in place, as vlasov_evolve steps its working array
            h_out, h_accel = strang.step(h, FP, out=h)
            assert h_out is h, (mx, n)
            assert np.array_equal(h, want) and np.array_equal(h_accel, want_accel), (mx, n)
            assert len(calls) == 2 * n  # one field per step
        assert mx == 1 or np.any(accel != 0.0)  # one plane has no x structure


def _held_arrays(strang):
    """Every array a ``_Strang`` keeps, its sweeps' included, views too."""
    found = []

    def walk(v):
        if isinstance(v, np.ndarray):
            found.append(v)
        elif isinstance(v, (list, tuple)):
            for item in v:
                walk(item)
        elif isinstance(v, _LineShift):
            walk(list(vars(v).values()))

    walk(list(vars(strang).values()))
    return found


def _held_bytes(strang):
    """Bytes of every array a ``_Strang`` keeps, each memory block counted once."""
    blocks = {}
    for v in _held_arrays(strang):
        while isinstance(v.base, np.ndarray):
            v = v.base
        blocks[id(v)] = v.nbytes
    return sum(blocks.values())


def test_strang_workspace_does_not_grow_with_mx():
    held = []
    for mx in (64, 32):
        grid = PhaseGrid(mx, 128, 128, 1.0, 1.2)
        g = _gaussian_density(grid, x_weight=lambda x: 1.0 + 0.3 * np.cos(2 * np.pi * x))
        strang = _Strang(grid, 0.01)
        strang.step(g, FP)  # fill the v-sweep's tables too
        held.append(_held_bytes(strang))
    assert held[0] == held[1]
    assert held[0] <= 1_725_440  # what the per-cell offset tables held
    assert held[0] < 32 * 128 * 128 * 8 // 2  # under half of one density array
    # offsets are per line: no integer table has more entries than a sweep has lines
    ints = [v.size for v in _held_arrays(strang) if v.dtype.kind != "f"]
    assert all(size <= 32 * 128 for size in ints), ints


def _traced_peak(call) -> int:
    """Peak bytes traced while ``call()`` runs, above what was held before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_vlasov_lane_holds_one_working_density():
    # the meanfield benchmark grid, with an x-dependent law
    grid = PhaseGrid(32, 128, 128, 1.0, 1.2)
    law = GaussianLaw(lambda x: 0.2 * np.cos(2 * np.pi * x[..., 0]), 0.0, 0.1, 0.1)
    g0 = density_from_law(law, grid)
    density = g0.nbytes
    workspace = _held_bytes(_Strang(grid, 0.01))
    # fill the per-grid caches (centers, edge cells) before anything is traced
    vlasov_evolve(g0, grid, FP, 0.01, 1)
    peaks = {
        "evolve": _traced_peak(lambda: vlasov_evolve(g0, grid, FP, 0.01, 3)),
        "fill": _traced_peak(lambda: density_from_law(law, grid)),
        "moments": _traced_peak(lambda: cell_moments_of_density(g0, grid)),
    }
    budgets = {
        "evolve": density + workspace + density // 4,
        "fill": density + density // 4,
        "moments": density // 4,
    }
    assert all(peaks[k] <= budgets[k] for k in peaks), (peaks, budgets)


def test_vlasov_evolve_steps_a_handed_over_array_in_place():
    grid = PhaseGrid(32, 128, 128, 1.0, 1.2)
    law = GaussianLaw(lambda x: 0.2 * np.cos(2 * np.pi * x[..., 0]), 0.0, 0.1, 0.1)
    g0 = density_from_law(law, grid)
    # the default call on a copy also fills the per-grid caches before tracing
    want, want_diag = vlasov_evolve(g0.copy(), grid, FP, 0.01, 3)
    density = g0.nbytes
    workspace = _held_bytes(_Strang(grid, 0.01))
    arr, got = g0, {}

    def evolve_in_place():
        got["g"], got["diag"] = vlasov_evolve(g0, grid, FP, 0.01, 3, out=g0)

    peak = _traced_peak(evolve_in_place)
    assert got["g"] is arr
    assert np.array_equal(got["g"], want)
    assert got["diag"] == want_diag
    # the workspace and per-step temporaries, and no second density
    assert peak <= workspace + density // 4, (peak, workspace, density)
    with pytest.raises(SizeMismatchError):
        vlasov_evolve(g0, grid, FP, 0.01, 1, out=np.empty((32, 128, 127)))


# ---------------------------------------------------------------------------
# chain comparison plumbing
# ---------------------------------------------------------------------------


def test_density_from_law_needs_a_density():
    grid = PhaseGrid(4, 16, 16, 1.0, 1.0)
    with pytest.raises(ValueError):
        density_from_law(GaussianLaw(0.0, 0.0, 0.0, 0.1), grid)


def test_cell_moments_agree_for_matched_data():
    grid = PhaseGrid(8, 64, 64, 1.0, 1.0)
    law = GaussianLaw(0.2, -0.1, 0.15, 0.15)
    g = density_from_law(law, grid)
    mg = cell_moments_of_density(g, grid)
    geom = ChainGeometry(1, 64)
    ens = sample_ensemble(law, geom, 400, 17)
    me = cell_moments_of_ensemble(*ens, geom, grid)
    # x-independent law: every cell estimates the same five moments
    assert abs(np.mean(me["r"]) - np.mean(mg["r"])) < 5e-3
    assert abs(np.mean(me["v"]) - np.mean(mg["v"])) < 5e-3
    assert abs(np.mean(me["rv"]) - np.mean(mg["rv"])) < 5e-3


def test_cell_moments_reject_empty_cells():
    grid = PhaseGrid(32, 8, 8, 1.0, 1.0)
    geom = ChainGeometry(1, 16)  # fewer sites than x cells
    ens = sample_ensemble(GaussianLaw(0.0, 0.0, 0.1, 0.1), geom, 2, 0)
    with pytest.raises(ValueError):
        cell_moments_of_ensemble(*ens, geom, grid)


def test_fewer_sites_than_x_cells_is_the_empty_cell_condition():
    # mf-compare rejects chain.n < vlasov.mx at parse time: exactly the
    # grids on which the moment binning finds an x cell without sites
    for n in range(2, 65):
        geom = ChainGeometry(1, n)
        ens = sample_ensemble(PointLaw(), geom, 1, 0)
        for mx in range(1, 49):
            doc = {"pipeline": "mf-compare", "seed": 1, "compare": {}}
            doc |= {"chain": {"n": n}, "vlasov": {"mx": mx}}
            grid = PhaseGrid(mx, 2, 2, 1.0, 1.0)
            if n < mx:
                with pytest.raises(ConfigError, match="x cells without chain sites"):
                    parse_config(doc)
                with pytest.raises(ValueError, match="empty cells"):
                    cell_moments_of_ensemble(*ens, geom, grid)
            else:
                parse_config(doc)
                cell_moments_of_ensemble(*ens, geom, grid)


def test_meanfield_distance_time_guard():
    grid = PhaseGrid(4, 32, 32, 1.0, 1.0)
    law = GaussianLaw(0.0, 0.0, 0.15, 0.15)
    g = density_from_law(law, grid)
    geom = ChainGeometry(1, 16)
    ens = sample_ensemble(law, geom, 10, 3)
    with pytest.raises(ValueError):
        meanfield_distance(cell_moments_of_density(g, grid), grid, 1.0, *ens, geom, 0.0)
    assert meanfield_distance(cell_moments_of_density(g, grid), grid, 1.0, *ens, geom, 1.0 + 1e-10).t == 1.0


def test_meanfield_distance_within_monte_carlo_band():
    grid = PhaseGrid(4, 64, 64, 1.0, 1.0)
    law = GaussianLaw(0.0, 0.0, 0.15, 0.15)
    g = density_from_law(law, grid)
    geom = ChainGeometry(1, 64)
    ens = sample_ensemble(law, geom, 100, 23)
    d = meanfield_distance(cell_moments_of_density(g, grid), grid, 0.0, *ens, geom, 0.0)
    scale = 1.0 / np.sqrt(100 * 64)
    assert 0.05 * scale < d.total_l2 < 20.0 * scale
    assert set(d.sup) == {"r", "v", "r2", "v2", "rv"}
    assert d.total_sup >= max(d.l2.values())


def test_meanfield_distance_keeps_the_moments_it_compared():
    grid = PhaseGrid(4, 32, 32, 1.0, 1.0)
    law = GaussianLaw(0.0, 0.0, 0.15, 0.15)
    g = density_from_law(law, grid)
    geom = ChainGeometry(1, 16)
    ens = sample_ensemble(law, geom, 10, 3)
    d = meanfield_distance(cell_moments_of_density(g, grid), grid, 0.0, *ens, geom, 0.0)
    pairs = (
        (d.theirs, cell_moments_of_density(g, grid)),
        (d.ours, cell_moments_of_ensemble(*ens, geom, grid)),
    )
    for kept, fresh in pairs:
        assert kept.keys() == fresh.keys()
        assert all(np.array_equal(kept[k], fresh[k]) for k in fresh)
    assert set(d.to_dict()) == {"t", "total_l2", "total_sup", "sup", "l2"}
