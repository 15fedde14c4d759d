"""Collision operator: oracle equality, equilibrium trend, stepping."""

import itertools
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from kinlat import _reference as ref
from kinlat import kinetic
from kinlat.compare import compare_spectra
from kinlat.errors import NumericalBlowupError, SizeMismatchError
from kinlat.kinetic import (
    DEFAULT_OMEGA_FLOOR,
    CollisionDiagnostics,
    ResonanceRule,
    active_mask,
    collision,
    energy_moment,
    evolve,
    omega_grid,
    rayleigh_jeans,
    step,
)
from kinlat.lattice import TorusGrid, nodes


@pytest.mark.parametrize(
    "d,m,eps,profile",
    [
        (1, 8, 0.3, "gaussian"),
        (1, 12, 0.15, "lorentzian"),
        (2, 6, 0.4, "gaussian"),
        (2, 6, 0.3, "lorentzian"),
        (3, 4, 0.3, "gaussian"),
    ],
)
def test_collision_matches_direct_quadrature(rng, d, m, eps, profile):
    grid = TorusGrid(d, m)
    rule = ResonanceRule(eps, profile=profile)
    f = rng.uniform(0.1, 1.0, size=grid.shape)
    got = collision(f, grid, rule)
    want = ref.collision_direct(f, grid, rule)
    assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def test_pruned_pair_list_still_matches_direct_quadrature(rng):
    # at this width most resonant triads fall below the weight cut
    grid = TorusGrid(1, 16)
    rule = ResonanceRule(0.01)
    live = active_mask(grid, rule)
    triads = sum(
        bool(live[a] and live[b] and live[(a + b) % 16])
        for a, b in itertools.combinations_with_replacement(range(16), 2)
    )
    plan = kinetic._collision_plan(grid, rule)
    assert 0 < plan.pairs < triads
    f = rng.uniform(0.1, 1.0, size=grid.shape)
    got = collision(f, grid, rule)
    want = ref.collision_direct(f, grid, rule)
    assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize(
    "grid,rule,index",
    [
        (TorusGrid(1, 16), ResonanceRule(0.01), np.uint8),
        (TorusGrid(1, 256), ResonanceRule(0.025), np.uint8),
        (TorusGrid(1, 300), ResonanceRule(0.05, "lorentzian"), np.uint16),
        (TorusGrid(2, 20), ResonanceRule(0.2), np.uint16),
    ],
)
def test_plan_chunks_are_full_blocks_of_narrow_indices(rng, grid, rule, index):
    block, n = kinetic._BLOCK_PAIRS, grid.n_nodes
    plan = kinetic._collision_plan(grid, rule)
    sizes = [chunk[4].size for chunk in plan.chunks]
    assert sizes[:-1] == [block] * (len(sizes) - 1) and 0 < sizes[-1] <= block
    assert plan.pairs == sum(sizes)
    assert np.min_scalar_type(n - 1) == index
    for rows, counts, b, c, w in plan.chunks:
        assert [x.dtype for x in (rows, b, c)] == [np.dtype(index)] * 3
        assert counts.dtype == np.min_scalar_type(block) and w.dtype == np.float64
        # one run a row, in row order, and the runs tile the chunk
        assert np.all(np.diff(rows.astype(np.intp)) > 0) and np.all(counts > 0)
        assert counts.sum() == w.size

    # rows are orbit representatives, and each b's representative is no
    # smaller than its row's
    group = kinetic._point_group(grid).astype(np.intp)
    canon = group.min(axis=0)
    a = np.concatenate([np.repeat(rows, counts) for rows, counts, *_ in plan.chunks])
    b, c, w = (np.concatenate(col) for col in list(zip(*plan.chunks))[2:])
    a, b, c = a.astype(np.intp), b.astype(np.intp), c.astype(np.intp)
    assert np.all(np.diff(a) >= 0) and np.all(canon[a] == a) and np.all(canon[b] >= a)
    ja, jb = np.unravel_index(a, grid.shape), np.unravel_index(b, grid.shape)
    jc = tuple((x + y) % grid.m for x, y in zip(ja, jb))
    assert np.array_equal(c, np.ravel_multi_index(jc, grid.shape))
    # a literal intp evaluation over the whole list, sliced at _BLOCK_PAIRS,
    # on f o g for every symmetry g and mapped back through g
    flat = rng.uniform(0.1, 1.0, size=n)
    want = np.zeros(n)
    for s in range(0, w.size, block):
        ia, ib, ic = a[s : s + block], b[s : s + block], c[s : s + block]
        # the out-of-a term: one sum over each run of equal a, taken from a
        starts = np.flatnonzero(np.diff(ia, prepend=-1))
        for g in group:
            fg = flat[g]
            fa, fb = fg[ia], fg[ib]
            t = w[s : s + block] * (fa * fb - fg[ic] * (fa + fb))
            net = np.bincount(ic, t, n)
            net[ia[starts]] -= np.add.reduceat(t, starts)
            want[g] += net - np.bincount(ib, t, n)
    got = kinetic.collision_rate(flat.reshape(grid.shape), grid, rule)
    assert np.array_equal(got.reshape(-1), want / n)


# the first child of the kinetic-sweep benchmark
BENCH_GRID, BENCH_RULE = TorusGrid(2, 40), ResonanceRule(0.2, "gaussian", 0.05)


def test_benchmark_plan_keeps_its_pairs_in_12_bytes_each():
    # the kept pairs at every width of the kinetic-sweep benchmark: a change
    # to the rounding of the weights that flips a pair at the cut shows here.
    # Under the point group the stored pairs expand to exactly the unordered
    # pairs the full list keeps (874,640, 524,472 and 322,256).  b, c and w
    # take 12 B a pair; the run-length a column takes 4 B a run, and a row
    # has more than one run only where a chunk boundary cuts it
    n = BENCH_GRID.n_nodes
    group = kinetic._point_group(BENCH_GRID).astype(np.intp)
    live = active_mask(BENCH_GRID, BENCH_RULE).reshape(-1)
    n_rows = int(np.count_nonzero(live & (group.min(axis=0) == np.arange(n))))
    for eps, stored, pairs in (
        (0.2, 127_511, 874_640),
        (0.1, 78_357, 524_472),
        (0.05, 49_489, 322_256),
    ):
        plan = kinetic._collision_plan(BENCH_GRID, replace(BENCH_RULE, epsilon=eps))
        assert plan.pairs == stored
        a = np.concatenate([np.repeat(rows, counts) for rows, counts, *_ in plan.chunks])
        b = np.concatenate([chunk[2] for chunk in plan.chunks])
        a, b = a.astype(np.intp), b.astype(np.intp)
        images = np.concatenate([
            np.minimum(g[a], g[b]) * n + np.maximum(g[a], g[b]) for g in group
        ])
        assert np.unique(images).size == pairs
        runs = sum(chunk[0].size for chunk in plan.chunks)
        assert runs <= n_rows + len(plan.chunks) - 1
        assert plan.nbytes == 12 * plan.pairs + 4 * runs
        if eps == BENCH_RULE.epsilon:
            assert plan.nbytes < 12.01 * plan.pairs


def test_benchmark_plan_build_and_evaluation_stay_in_their_memory_budgets(rng):
    # one build block: _BLOCK_PAIRS candidates, each with its intp node sum
    # c, its float64 weight and three float64 profile temporaries
    build_block = kinetic._BLOCK_PAIRS * 5 * 8
    f = rng.uniform(0.1, 1.0, size=BENCH_GRID.shape)
    kinetic.collision_rate(f, BENCH_GRID, BENCH_RULE)  # cached tables, held plan
    tracemalloc.start()
    try:
        plan = kinetic._collision_plan(BENCH_GRID, BENCH_RULE)
        build_peak = tracemalloc.get_traced_memory()[1]
        del plan
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        kinetic.collision_rate(f, BENCH_GRID, BENCH_RULE)
        rate_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    plan_bytes = kinetic._thread_plan(BENCH_GRID, BENCH_RULE).nbytes
    assert build_peak <= plan_bytes + build_block
    # an evaluation works in a few chunk-sized buffers, not per-chunk temporaries
    assert rate_peak <= 1.5 * 2**20


def test_collision_is_deterministic(rng):
    grid = TorusGrid(1, 10)
    rule = ResonanceRule(0.2)
    f = rng.uniform(0.1, 1.0, size=grid.shape)
    assert np.array_equal(collision(f, grid, rule), collision(f, grid, rule))


def test_frozen_modes_do_not_move(rng):
    cases = [
        (TorusGrid(1, 16), ResonanceRule(0.1, omega_floor=0.2)),
        # this floor lies within round-off of mode 21's dispersion, so a second
        # dispersion table could call the mode live where active_mask freezes it
        (TorusGrid(1, 33), ResonanceRule(0.1, omega_floor=0.5711574191366429)),
    ]
    for grid, rule in cases:
        f = rng.uniform(0.5, 1.0, size=grid.shape)
        c = collision(f, grid, rule)
        frozen = ~active_mask(grid, rule)
        assert frozen.any()  # the floor actually bites at this resolution
        assert np.all(c[frozen] == 0.0)
        want = ref.collision_direct(f, grid, rule)
        assert np.max(np.abs(c - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))
        # a floor above every dispersion freezes the whole grid
        assert np.all(collision(f, grid, ResonanceRule(0.1, omega_floor=2.0)) == 0.0)


def test_collision_preserves_evenness():
    grid = TorusGrid(1, 16)
    x = np.arange(16) / 16.0
    f = 1.0 + 0.5 * np.cos(2.0 * np.pi * x) ** 2
    c = collision(f, grid, ResonanceRule(0.1))
    mirrored = c[(-np.arange(16)) % 16]
    assert np.max(np.abs(c - mirrored)) < 1e-13


def _signed_permutations(grid):
    """The index tuple ``g k`` of every node, for each signed axis permutation."""
    j = np.indices(grid.shape)
    for perm in itertools.permutations(range(grid.d)):
        for signs in itertools.product((1, -1), repeat=grid.d):
            yield tuple((s * j[p]) % grid.m for s, p in zip(signs, perm))


SYMMETRY_GRIDS = [TorusGrid(d, m) for d, m in ((1, 9), (1, 10), (2, 7), (2, 8), (3, 5), (3, 6))]


@pytest.mark.parametrize("grid", SYMMETRY_GRIDS, ids=lambda g: f"d{g.d}-m{g.m}")
def test_collision_commutes_with_the_point_group(rng, grid):
    # C[f o g] = C[f] o g on a spectrum with no symmetry of its own
    rule = ResonanceRule(0.3)
    f = rng.uniform(0.1, 1.0, size=grid.shape)
    c = collision(f, grid, rule)
    for gk in _signed_permutations(grid):
        assert np.max(np.abs(collision(f[gk], grid, rule) - c[gk])) <= 1e-14 * np.max(np.abs(c))


@pytest.mark.parametrize("grid", SYMMETRY_GRIDS, ids=lambda g: f"d{g.d}-m{g.m}")
def test_omega_grid_is_exactly_invariant(grid):
    w = omega_grid(grid)
    assert all(np.array_equal(w[gk], w) for gk in _signed_permutations(grid))
    # a few ulps of the largest value, d, from the unsymmetrized table
    assert np.max(np.abs(w - kinetic.dispersion(nodes(grid)))) <= 4 * np.finfo(float).eps * grid.d


def test_equilibrium_rate_vanishes_with_broadening():
    # T/omega annihilates the sharp bracket; the residual is pure broadening
    grid = TorusGrid(1, 16)
    norms = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        rule = ResonanceRule(eps)
        rj = rayleigh_jeans(grid, 2.0, rule)
        c = collision(rj, grid, rule)
        norms.append(float(np.sum(np.abs(c)) * grid.cell_measure))
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-10


def test_rayleigh_jeans_shape():
    grid = TorusGrid(1, 16)
    rule = ResonanceRule(0.1)
    rj = rayleigh_jeans(grid, 3.0, rule)
    w = omega_grid(grid)
    act = active_mask(grid, rule)
    assert np.allclose(rj[act] * w[act], 3.0, atol=1e-14)
    assert np.all(rj[~act] == 0.0)


def test_energy_moment_is_plain_quadrature(rng):
    grid = TorusGrid(2, 5)
    f = rng.uniform(size=grid.shape)
    want = float(np.sum(omega_grid(grid) * f)) / 25.0
    assert energy_moment(f, grid) == pytest.approx(want, rel=1e-15)


def test_step_clips_negatives_into_diagnostics():
    grid = TorusGrid(1, 16)
    rule = ResonanceRule(0.1)
    # a hollow spectrum drains its active minimum below zero in one big step
    x = np.arange(16) / 16.0
    f = 0.02 + np.sin(2.0 * np.pi * x) ** 4
    diag = CollisionDiagnostics()
    out = step(f, grid, rule, 5.0, scheme="euler", diag=diag)
    assert np.all(out >= 0.0)
    assert diag.clip_events >= 1 and diag.clipped_mass > 0.0


def test_evolve_calls_back_after_each_step():
    grid = TorusGrid(1, 8)
    rule = ResonanceRule(0.3)
    f = np.full(grid.shape, 0.5)
    seen = []
    out = evolve(f, grid, rule, 0.01, 5, callback=lambda i, s: seen.append((i, s)))
    assert [i for i, _ in seen] == [0, 1, 2, 3, 4]
    assert np.array_equal(seen[0][1], step(f, grid, rule, 0.01))
    assert seen[-1][1] is out


def test_euler_converges_to_rk4(rng):
    grid = TorusGrid(1, 12)
    rule = ResonanceRule(0.15)
    f0 = rng.uniform(0.3, 0.8, size=grid.shape)
    ref_out = evolve(f0, grid, rule, 0.01, 10, scheme="rk4")
    e1 = evolve(f0, grid, rule, 0.01, 10, scheme="euler")
    e2 = evolve(f0, grid, rule, 0.005, 20, scheme="euler")
    gap1 = np.max(np.abs(e1 - ref_out))
    gap2 = np.max(np.abs(e2 - ref_out))
    assert gap2 < 0.75 * gap1  # first-order error halves under dt halving


def test_blowup_guard():
    grid = TorusGrid(1, 8)
    rule = ResonanceRule(0.5)
    f = np.full(grid.shape, 1.0)
    with pytest.raises(NumericalBlowupError):
        evolve(f, grid, rule, 1e9, 50, scheme="euler")


def test_blowup_names_step_time_and_mode():
    grid = TorusGrid(2, 8)
    rule = ResonanceRule(0.3)
    f0 = np.ones(grid.shape)
    f0[5, 6] = f0[6, 5] = 1e8  # two spikes whose triads leave the bound in one step
    new = f0 + 1e5 * collision(f0, grid, rule)
    mode = np.unravel_index(int(np.argmax(np.abs(new))), grid.shape)
    assert mode not in ((5, 6), (6, 5)) and np.max(np.abs(new)) > 1e12
    with pytest.raises(NumericalBlowupError) as err:
        evolve(f0, grid, rule, 1e5, 3, scheme="euler")
    assert err.value.step == 0
    msg = str(err.value)
    assert msg.startswith("step 0: ") and "to tau 100000 " in msg
    assert f"at mode ({mode[0]}, {mode[1]})" in msg
    value = float(re.search(r"f = (\S+) at mode", msg).group(1))
    assert value == pytest.approx(new[mode], rel=1e-3)


def test_spectrum_validation():
    # evolve refuses a bad initial spectrum, before any step too
    grid = TorusGrid(1, 8)
    rule = ResonanceRule(0.3)
    with pytest.raises(SizeMismatchError):
        evolve(np.zeros(7), grid, rule, 0.01, 0)
    with pytest.raises(ValueError):
        evolve(np.full(8, -1.0), grid, rule, 0.01, 0)
    with pytest.raises(ValueError):
        evolve(np.full(8, np.nan), grid, rule, 0.01, 0)
    with pytest.raises(ValueError):
        evolve(np.full(8, np.inf), grid, rule, 0.01, 0)
    with pytest.raises(ValueError):
        TorusGrid(1, 1)
    with pytest.raises(ValueError):
        ResonanceRule(0.0)
    with pytest.raises(ValueError):
        ResonanceRule(0.1, profile="box")


def test_compare_spectra_same_grid(rng):
    grid = TorusGrid(1, 8)
    a = rng.uniform(size=8)
    d = compare_spectra(a, grid, a + 0.25, grid, 2.0)
    assert d.t == 2.0
    assert d.sup["f"] == pytest.approx(0.25)
    assert d.l1["f"] == pytest.approx(0.25)
    assert d.l2["f"] == pytest.approx(0.25)


def test_compare_spectra_interpolates_coarse_onto_fine():
    coarse = TorusGrid(1, 8)
    fine = TorusGrid(1, 16)
    xc = nodes(coarse)[..., 0]
    xf = nodes(fine)[..., 0]
    # a linear-in-node hat survives periodic linear interpolation exactly
    fc = 1.0 - np.abs(xc - 0.5)
    ff = 1.0 - np.abs(xf - 0.5)
    d = compare_spectra(fc, coarse, ff, fine, 0.0)
    assert d.grid.m == 16
    assert d.sup["f"] < 1e-14
    with pytest.raises(SizeMismatchError):
        compare_spectra(np.zeros((4, 4)), TorusGrid(2, 4), np.zeros((6, 6)), TorusGrid(2, 6), 0.0)


def test_default_floor_is_tiny():
    # the default floor only guards against literal zero dispersion
    assert DEFAULT_OMEGA_FLOOR < 1e-6
