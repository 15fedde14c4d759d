"""Transport solver: conservation, free streaming, force assembly, moments."""

import tracemalloc
import warnings

import numpy as np
import pytest

from kinlat import _reference as ref
from kinlat import vlasov
from kinlat.chain import ChainGeometry, FractionalParams, GaussianLaw, sample_ensemble
from kinlat.config import parse_config
from kinlat.errors import SizeMismatchError
from kinlat.vlasov import (
    PhaseDensity,
    PhaseGrid,
    acceleration,
    boundary_mass,
    cell_moments_of_density,
    cell_moments_of_ensemble,
    density_from_law,
    frac_laplacian_torus,
    meanfield_distance,
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

FP = FractionalParams(0.5, 1)


def _gaussian_density(grid, sigma_r=0.12, sigma_v=0.12, x_weight=None):
    rr = r_centers(grid)[None, :, None]
    vv = v_centers(grid)[None, None, :]
    base = np.exp(-0.5 * (rr / sigma_r) ** 2 - 0.5 * (vv / sigma_v) ** 2)
    if x_weight is not None:
        base = base * x_weight(x_centers(grid))[:, None, None]
    else:
        base = np.broadcast_to(base, grid.shape).copy()
    return PhaseDensity(grid, base)


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
        PhaseDensity(grid, np.zeros((2, 4, 5)))
    with pytest.raises(ValueError):
        PhaseDensity(grid, np.full(grid.shape, -1.0))
    g = PhaseDensity(grid, np.full(grid.shape, 2.0))
    assert g.mass() == pytest.approx(2.0 * 2.0 * 2.0)  # 2 * volume of [0,1]x[-1,1]^2


def test_density_validation_names_the_fault_whatever_slab_holds_it():
    grid = PhaseGrid(9, 128, 128, 1.0, 1.0)  # slabs of 2 planes, a short last one
    assert len(vlasov._slabs(grid)) == 5
    for bad, message in ((np.nan, "finite"), (np.inf, "finite"), (-1.0, "nonnegative")):
        for x in (0, 4, 8):
            g = np.ones(grid.shape)
            g[x, 3, 5] = bad
            with pytest.raises(ValueError, match=message):
                PhaseDensity(grid, g)
    # a non-finite cell is reported before a negative one in an earlier slab
    g = np.ones(grid.shape)
    g[0, 0, 0], g[8, 0, 0] = -1.0, np.nan
    with pytest.raises(ValueError, match="must be finite"):
        PhaseDensity(grid, g)


def test_moments_of_offset_gaussian():
    grid = PhaseGrid(2, 128, 64, 1.5, 1.0)
    r0 = 0.37
    rr = r_centers(grid)[None, :, None]
    vv = v_centers(grid)[None, None, :]
    vals = np.exp(-0.5 * ((rr - r0) / 0.15) ** 2 - 0.5 * (vv / 0.2) ** 2)
    mom = moments(np.broadcast_to(vals, grid.shape), grid)
    assert mom.rho.shape == (2,) and mom.m.shape == (2,)
    assert np.allclose(mom.m / mom.rho, r0, atol=1e-6)
    zero = moments(np.zeros(grid.shape), grid)
    assert np.all(zero.rho == 0.0) and np.all(zero.m == 0.0)
    with pytest.raises(SizeMismatchError):
        moments(np.zeros((2, 128, 63)), grid)


# ---------------------------------------------------------------------------
# fractional derivative and force field
# ---------------------------------------------------------------------------


def test_frac_laplacian_plane_wave_eigenvalue():
    m, k, alpha = 64, 3, 0.5
    x = np.arange(m) / m
    u = np.cos(2.0 * np.pi * k * x)
    got = frac_laplacian_torus(u, alpha)
    want = (2.0 * np.pi * k) ** (2.0 * alpha) * u
    assert np.max(np.abs(got - want)) < 1e-10
    assert np.max(np.abs(frac_laplacian_torus(np.full(m, 3.7), alpha))) < 1e-12


def test_frac_laplacian_alpha_one_is_minus_laplacian():
    # alpha -> 1 multiplier (2 pi k)^2 equals the continuum -u''
    m = 32
    x = np.arange(m) / m
    u = np.sin(2.0 * np.pi * x)
    got = frac_laplacian_torus(u, 0.999999)
    assert np.allclose(got, (2.0 * np.pi) ** 2 * u, rtol=1e-4)


def test_sigma_field_vanishes_without_x_structure():
    grid = PhaseGrid(8, 16, 12, 1.0, 1.0)
    g = _gaussian_density(grid)
    assert np.max(np.abs(sigma_field(g.g, grid, FP))) < 1e-12


def test_sigma_field_matches_unfactorized(rng):
    grid = PhaseGrid(8, 32, 24, 1.0, 1.2)
    g = _gaussian_density(
        grid, sigma_r=0.3, sigma_v=0.3,
        x_weight=lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x) + 0.2 * np.sin(4 * np.pi * x),
    )
    got = sigma_field(g.g, grid, FP)
    want = ref.sigma_field_unfactorized(g.g, grid, FP)
    assert np.max(np.abs(got - want)) < 1e-12
    assert acceleration(g.g, grid, FP) == pytest.approx(got / FP.c_d_alpha)


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


def test_step_conserves_mass_and_positivity():
    grid = PhaseGrid(4, 64, 64, 1.0, 1.0)
    g = _gaussian_density(grid, x_weight=lambda x: 1.0 + 0.3 * np.cos(2 * np.pi * x))
    m0 = g.mass()
    g, _ = vlasov_evolve(g, FP, 2e-3, 20)
    assert abs(g.mass() - m0) / m0 < 1e-12
    assert np.all(g.g >= 0.0)


def test_free_streaming_matches_characteristics():
    grid = PhaseGrid(2, 96, 96, 1.0, 1.0)
    law = GaussianLaw(0.0, 0.0, 0.12, 0.12)
    g = density_from_law(law, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # interior support must stay advisory-free
        g, diag = vlasov_evolve(g, FP, 2e-3, 100)
    assert diag.notes == []
    exact = ref.free_streaming_density(law, grid, g.t)
    err = np.max(np.abs(g.g - exact)) / np.max(exact)
    assert err < 2e-2
    assert diag.escaped_mass == pytest.approx(0.0, abs=1e-12)


def test_strang_self_convergence_second_order():
    grid = PhaseGrid(8, 48, 48, 1.0, 1.0)
    g0 = _gaussian_density(grid, x_weight=lambda x: 1.0 + 0.4 * np.cos(2 * np.pi * x))

    def run(dt, n):
        return vlasov_evolve(g0, FP, dt, n)[0].g

    ref_fine = run(2.5e-3, 16)
    err1 = np.max(np.abs(run(1e-2, 4) - ref_fine))
    err2 = np.max(np.abs(run(5e-3, 8) - ref_fine))
    assert err2 < 0.45 * err1


def test_max_density_does_not_grow():
    # incompressible characteristics: the sup can only shrink numerically
    grid = PhaseGrid(4, 64, 64, 1.0, 1.0)
    g = _gaussian_density(grid, x_weight=lambda x: 1.0 + 0.3 * np.sin(2 * np.pi * x))
    peak0 = g.g.max()
    g, _ = vlasov_evolve(g, FP, 2e-3, 50)
    assert g.g.max() <= peak0 * (1.0 + 1e-9)


def test_boundary_advisory_fires_for_wide_support():
    grid = PhaseGrid(2, 24, 24, 0.3, 0.3)  # window much narrower than the data
    g = _gaussian_density(grid, sigma_r=0.3, sigma_v=0.3)
    assert boundary_mass(g.g, grid) > 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # advisories are notes, not warnings
        _, diag = vlasov_evolve(g, FP, 5e-3, 10)
    assert len(diag.notes) == 1
    assert diag.notes[0].startswith("support reached the (r, v) truncation boundary")
    assert f"peak edge mass {diag.boundary_mass_max:.3e}" in diag.notes[0]


def test_cfl_advisory_reports_displacement():
    grid = PhaseGrid(2, 32, 32, 1.0, 1.0)
    g = _gaussian_density(grid)
    _, diag = vlasov_evolve(g, FP, 0.5, 1, cfl_fraction=0.5)
    assert diag.cfl_r > 0.5
    budget = [n for n in diag.notes if "displacement" in n]
    assert budget == [
        f"per-step line displacement up to {max(diag.cfl_r, diag.cfl_v):.2f} cells "
        "exceeds the configured budget 0.50"
    ]


def test_interp_mode_validated():
    # linear is the one interpolant, and configs that name it stay valid
    doc = {"pipeline": "vlasov", "seed": 0, "vlasov": {"interp": "linear"}}
    assert parse_config(doc).vlasov.interp == "linear"
    grid = PhaseGrid(2, 16, 16, 1.0, 1.0)
    g = _gaussian_density(grid)
    for dt in (-1e-3, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dt"):
            vlasov_evolve(g, FP, dt, 1)
    # checked before any work, so zero steps do not let bad arguments through
    with pytest.raises(ValueError, match="dt"):
        vlasov_evolve(g, FP, float("nan"), 0)


# shifts per line: fractional, exact integers, negative, and |s| >= n (the line empties)
_EDGE_SHIFTS = [0.3, -0.7, 2.0, -3.0, 0.0, 9.0, -9.0, 12.5, -30.25]


def test_line_shift_matches_loop(rng):
    base = rng.random((4, 9, 18))
    arr = base[:, :, ::2]  # a non-contiguous view, shape (4, 9, 9)
    # axis 1: one shift per v column, broadcast over x
    s_r = np.array(_EDGE_SHIFTS).reshape(1, 1, 9)
    # axis 2: one shift per (x, r) line
    s_v = np.concatenate([_EDGE_SHIFTS, 5.0 * rng.standard_normal(27)]).reshape(4, 9, 1)
    for axis, shifts in ((1, s_r), (2, s_v)):
        got = _shift_lines(arr, shifts, axis)
        want = ref.shift_lines_loop(arr, shifts, axis)
        assert np.array_equal(got, want), (axis, float(np.max(np.abs(got - want))))
    emptied = _shift_lines(arr, s_r, 1)
    assert np.all(emptied[:, :, 5:7] == 0.0)  # |s| = 9 = n moves every value out
    assert np.array_equal(emptied[:, :, 4], arr[:, :, 4])  # s = 0 is the identity


def test_steps_leave_caller_arrays_alone():
    grid = PhaseGrid(4, 24, 20, 1.0, 1.0)
    g0 = _gaussian_density(grid, x_weight=lambda x: 1.0 + 0.3 * np.cos(2 * np.pi * x))
    before = g0.g.copy()
    g1, _ = vlasov_evolve(g0, FP, 5e-3, 1)
    assert np.array_equal(g0.g, before)
    kept, values = [], []

    def keep(i, g):
        kept.append(g)
        values.append(g.g.copy())

    g, _ = vlasov_evolve(g1, FP, 5e-3, 6, callback=keep)
    assert np.array_equal(g0.g, before)
    assert len(kept) == 6 and kept[-1] is g
    for held, value in zip(kept, values):
        assert np.array_equal(held.g, value)


def test_cfl_v_is_the_applied_field():
    grid = PhaseGrid(8, 32, 32, 1.0, 1.2)
    # a mean velocity that varies with x makes the half r-sweep move the r-moment
    x = x_centers(grid)[:, None, None]
    rr = r_centers(grid)[None, :, None]
    vv = v_centers(grid)[None, None, :]
    drift = 0.2 * np.cos(2 * np.pi * x)
    g0 = PhaseDensity(grid, np.exp(-0.5 * (rr / 0.1) ** 2 - 0.5 * ((vv - drift) / 0.1) ** 2))
    dt = 0.05
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, diag = vlasov_evolve(g0, FP, dt, 1)
    assert diag.notes == []
    s_r = (v_centers(grid) * (0.5 * dt) / grid.dr).reshape(1, 1, grid.mv)
    mid = ref.shift_lines_loop(g0.g, s_r, 1)
    want = float(np.max(np.abs(acceleration(mid, grid, FP)))) * dt / grid.dv
    assert diag.cfl_v == pytest.approx(want, rel=1e-12)
    # the field before the half sweep is measurably different
    before = float(np.max(np.abs(acceleration(g0.g, grid, FP)))) * dt / grid.dv
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
        ).g
        strang, want, h = _Strang(grid, 0.05), g, g.copy()
        short = [mx % planes] if mx % planes else []
        assert [x.stop - x.start for x, _, _ in strang.slabs] == [planes] * (mx // planes) + short
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


def _held_bytes(strang):
    """Bytes of every array a ``_Strang`` keeps, each memory block counted once."""
    blocks = {}

    def walk(v):
        if isinstance(v, np.ndarray):
            while isinstance(v.base, np.ndarray):
                v = v.base
            blocks[id(v)] = v.nbytes
        elif isinstance(v, (list, tuple)):
            for item in v:
                walk(item)
        elif isinstance(v, _LineShift):
            walk(list(vars(v).values()))

    walk(list(vars(strang).values()))
    return sum(blocks.values())


def test_strang_workspace_does_not_grow_with_mx():
    held = [_held_bytes(_Strang(PhaseGrid(mx, 128, 128, 1.0, 1.2), 0.01)) for mx in (32, 64)]
    assert held[0] == held[1]
    assert held[0] < 32 * 128 * 128 * 8 // 2  # under half of one density array


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
    density = g0.g.nbytes
    workspace = _held_bytes(_Strang(grid, 0.01))
    # fill the per-grid caches (centers, edge cells) before anything is traced
    vlasov_evolve(g0, FP, 0.01, 1)
    peaks = {
        "evolve": _traced_peak(lambda: vlasov_evolve(g0, FP, 0.01, 3)),
        "fill": _traced_peak(lambda: density_from_law(law, grid)),
        "moments": _traced_peak(lambda: cell_moments_of_density(g0)),
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
    want, want_diag = vlasov_evolve(PhaseDensity(grid, g0.g.copy()), FP, 0.01, 3)
    density = g0.g.nbytes
    workspace = _held_bytes(_Strang(grid, 0.01))
    arr, got = g0.g, {}

    def evolve_in_place():
        got["g"], got["diag"] = vlasov_evolve(g0, FP, 0.01, 3, out=g0.g)

    peak = _traced_peak(evolve_in_place)
    assert got["g"].g is arr
    assert np.array_equal(got["g"].g, want.g)
    assert got["diag"] == want_diag
    # the workspace and per-step temporaries, and no second density
    assert peak <= workspace + density // 4, (peak, workspace, density)
    with pytest.raises(SizeMismatchError):
        vlasov_evolve(g0, FP, 0.01, 1, out=np.empty((32, 128, 127)))


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
    mg = cell_moments_of_density(g)
    geom = ChainGeometry(1, 64)
    ens = sample_ensemble(law, geom, 400, 17)
    me = cell_moments_of_ensemble(ens, geom, grid)
    # x-independent law: every cell estimates the same five moments
    assert abs(np.mean(me["r"]) - np.mean(mg["r"])) < 5e-3
    assert abs(np.mean(me["v"]) - np.mean(mg["v"])) < 5e-3
    assert abs(np.mean(me["rv"]) - np.mean(mg["rv"])) < 5e-3


def test_cell_moments_reject_empty_cells():
    grid = PhaseGrid(32, 8, 8, 1.0, 1.0)
    geom = ChainGeometry(1, 16)  # fewer sites than x cells
    ens = sample_ensemble(GaussianLaw(0.0, 0.0, 0.1, 0.1), geom, 2, 0)
    with pytest.raises(ValueError):
        cell_moments_of_ensemble(ens, geom, grid)


def test_meanfield_distance_time_guard():
    grid = PhaseGrid(4, 32, 32, 1.0, 1.0)
    law = GaussianLaw(0.0, 0.0, 0.15, 0.15)
    g = density_from_law(law, grid, t=1.0)
    geom = ChainGeometry(1, 16)
    ens = sample_ensemble(law, geom, 10, 3)  # t = 0
    with pytest.raises(ValueError):
        meanfield_distance(g, ens, geom)


def test_meanfield_distance_within_monte_carlo_band():
    grid = PhaseGrid(4, 64, 64, 1.0, 1.0)
    law = GaussianLaw(0.0, 0.0, 0.15, 0.15)
    g = density_from_law(law, grid)
    geom = ChainGeometry(1, 64)
    ens = sample_ensemble(law, geom, 100, 23)
    d = meanfield_distance(g, ens, geom)
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
    d = meanfield_distance(g, ens, geom)
    pairs = (
        (d.pde, cell_moments_of_density(g)),
        (d.ensemble, cell_moments_of_ensemble(ens, geom, grid)),
    )
    for kept, fresh in pairs:
        assert kept.keys() == fresh.keys()
        assert all(np.array_equal(kept[k], fresh[k]) for k in fresh)
    assert set(d.to_dict()) == {"t", "total_l2", "total_sup", "sup", "l2"}
