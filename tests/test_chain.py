"""Long-range chain: force oracle, conservation, sampling, chaos defect."""

import re

import numpy as np
import pytest

from kinlat import _reference as ref
from kinlat.errors import NumericalBlowupError, SizeMismatchError
from kinlat.chain import (
    FractionalParams,
    GaussianLaw,
    PointLaw,
    chain_energy,
    chain_force_flat,
    chaos_defect,
    sample_ensemble,
    two_site_frequency,
    verlet_evolve,
    verlet_stability,
)
from kinlat.lattice import TorusGrid, nodes


GEOM = TorusGrid(1, 24)
FP = FractionalParams(0.5)


@pytest.mark.parametrize(
    "geom,fp",
    [
        (TorusGrid(1, 9), FractionalParams(0.5)),
        (TorusGrid(1, 8), FractionalParams(0.25)),  # even counts are legal
        (TorusGrid(2, 4), FractionalParams(0.75)),
        (TorusGrid(2, 5), FractionalParams(0.5)),  # odd count: no self-mirror offset
        (TorusGrid(3, 4), FractionalParams(0.3)),
    ],
)
def test_force_matches_pair_sum(rng, geom, fp):
    r = rng.normal(size=geom.n_nodes)
    want = ref.chain_force_pairs(r, geom, fp)
    got = chain_force_flat(r, geom, fp)
    assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def test_kernel_table_is_linear_in_sites():
    # the half-spectrum symbol; a dense n^d x n^d coupling matrix would be
    # 128 MiB here
    symbol = FP.chain_symbol(TorusGrid(2, 64))
    assert symbol.shape == (64, 33)
    assert symbol.nbytes <= 64 * 33 * 8
    assert symbol.flat[0] == 0.0  # the pair sum cancels constants


def test_symbols_are_cached_and_read_only():
    fp, geom = FractionalParams(0.4), TorusGrid(1, 12)
    for get in (lambda: fp.chain_symbol(geom), lambda: fp.pde_symbol(16)):
        a = get()
        assert get() is a
        with pytest.raises(ValueError):
            a[1] = 0.0
    # an equal object reads the same cached array
    assert FractionalParams(0.4).chain_symbol(TorusGrid(1, 12)) is fp.chain_symbol(geom)


def test_force_sums_to_zero(rng):
    r = rng.normal(size=GEOM.n_nodes)
    f = chain_force_flat(r, GEOM, FP)
    assert abs(f.sum()) < 1e-12


def test_uniform_displacement_feels_nothing():
    r = np.full(GEOM.n_nodes, 0.7)
    f = chain_force_flat(r, GEOM, FP)
    assert np.max(np.abs(f)) < 1e-14


def test_energy_matches_pair_potential(rng):
    r = rng.normal(size=GEOM.n_nodes)
    v = rng.normal(size=GEOM.n_nodes)
    want = 0.5 * float(v @ v) + ref.chain_potential_pairs(r, GEOM, FP)
    assert chain_energy(r, v, GEOM, FP) == pytest.approx(want, rel=1e-12)


def test_ensemble_energy_is_per_replica(rng):
    r, v = sample_ensemble(GaussianLaw(0.0, 0.0, 0.1, 0.1), GEOM, 3, 5)
    e = chain_energy(r, v, GEOM, FP)
    assert e.shape == (3,)
    one = chain_energy(r[1], v[1], GEOM, FP)
    assert e[1] == pytest.approx(one, rel=1e-14)


def test_conservation_over_moderate_run():
    r, v = (a[0] for a in sample_ensemble(GaussianLaw(0.0, 0.0, 0.1, 0.1), GEOM, 1, 77))
    e0 = chain_energy(r, v, GEOM, FP)
    r1, v1 = verlet_evolve(r, v, GEOM, FP, 1e-3, 2000)
    # bounded second-order oscillation, not secular growth
    assert abs(chain_energy(r1, v1, GEOM, FP) - e0) / abs(e0) < 5e-4
    assert abs(v1.sum() - v.sum()) < 1e-12


def test_evolve_matches_the_real_space_pair_loop(rng):
    # the closed-form map against literal real-space Verlet with the
    # pair-sum force, on a batch of replicas, and over long runs at d = 1 and 2
    runs = ((TorusGrid(1, 64), 200), (TorusGrid(1, 8), 2000), (TorusGrid(2, 4), 1000))
    for geom, n_steps in runs:
        r, v = rng.normal(scale=0.1, size=(2, 4, geom.n_nodes))
        got = verlet_evolve(r, v, geom, FP, 1e-2, n_steps)
        want = ref.verlet_pairs(r, v, geom, FP, 1e-2, n_steps)
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(b))), (geom, n_steps)


def test_each_replica_gets_the_bytes_it_gets_alone(rng):
    # rows of a stack never interact, so a replica's run does not depend on its batch
    for geom, shape in ((TorusGrid(1, 512), (64,)), (TorusGrid(2, 12), (2, 3))):
        r, v = rng.normal(scale=0.1, size=(2,) + shape + (geom.n_nodes,))
        rs, vs = verlet_evolve(r, v, geom, FP, 1e-3, 50)
        for i in np.ndindex(shape):
            r1, v1 = verlet_evolve(r[i], v[i], geom, FP, 1e-3, 50)
            assert np.array_equal(rs[i], r1) and np.array_equal(vs[i], v1), (geom, i)


def test_mean_displacement_moves_ballistically():
    rng = np.random.default_rng(8)
    r = rng.normal(size=GEOM.n_nodes)
    v = rng.normal(size=GEOM.n_nodes)
    r1, _ = verlet_evolve(r, v, GEOM, FP, 1e-3, 1000)
    drift = r.mean() + v.sum() / GEOM.n_nodes * 1.0
    assert r1.mean() == pytest.approx(drift, abs=1e-10)


def test_two_site_closed_form():
    assert two_site_frequency(TorusGrid(1, 2), FractionalParams(0.5)) == pytest.approx(2.0)
    # alpha -> d + 2a = 1.5: w(1/2) = 2^1.5, omega = sqrt(2 h w) = sqrt(2^1.5)
    got = two_site_frequency(TorusGrid(1, 2), FractionalParams(0.25))
    assert got == pytest.approx(2.0 ** 0.75, rel=1e-14)
    with pytest.raises(ValueError):
        two_site_frequency(TorusGrid(1, 4), FP)


def test_two_site_period_convergence():
    geom = TorusGrid(1, 2)
    fp = FractionalParams(0.5)
    omega = two_site_frequency(geom, fp)
    period = 2.0 * np.pi / omega

    def measured(dt):
        r, v, tr = np.array([0.1, -0.1]), np.zeros(2), []
        for i in range(int(12.0 / dt)):
            r, v = verlet_evolve(r, v, geom, fp, dt, 1)
            tr.append((i * dt, r[0]))
        ts = np.array([t for t, _ in tr])
        xs = np.array([x for _, x in tr])
        idx = np.nonzero((xs[:-1] > 0) & (xs[1:] <= 0))[0]
        tc = ts[idx] + (ts[idx + 1] - ts[idx]) * xs[idx] / (xs[idx] - xs[idx + 1])
        return float(np.mean(np.diff(tc)))

    err_coarse = abs(measured(0.02) - period) / period
    err_fine = abs(measured(0.01) - period) / period
    assert 3.0 < err_coarse / err_fine < 5.0  # clean dt^2 phase error


def test_stability_bound_is_checked_before_any_step():
    # velocity Verlet is stable while dt sqrt(-s) < 2 on every mode; just past
    # the bound the run is refused before any work, naming the mode, and just
    # inside it the map stays finite
    for geom in (TorusGrid(1, 16), TorusGrid(2, 6)):
        r, v = sample_ensemble(GaussianLaw(0.0, 0.0, 0.1, 0.1), geom, 3, 18)
        s = FP.chain_symbol(geom)
        top = tuple(int(j) for j in np.unravel_index(int(np.argmax(-s)), s.shape))
        dt_max = 2.0 / np.sqrt(-s[top])
        with pytest.raises(NumericalBlowupError) as err:
            verlet_evolve(r, v, geom, FP, dt_max * (1.0 + 1e-9), 1000)
        m = re.fullmatch(
            r"velocity Verlet is unstable at dt (\S+): mode (.+) has dt\*sqrt\(-s\) (\S+), the bound is 2",
            str(err.value),
        )
        assert m and err.value.step is None
        assert float(m.group(1)) == pytest.approx(dt_max, rel=1e-5)
        assert m.group(2) == str(top[0] if geom.d == 1 else top)
        assert float(m.group(3)) == pytest.approx(2.0, rel=1e-5)
        out = verlet_evolve(r, v, geom, FP, dt_max * (1.0 - 1e-9), 1000)
        assert np.isfinite(out).all()


def test_the_shared_stability_check_is_the_maps_own():
    # mf-compare refuses its dt up front with verlet_stability, so the early
    # refusal and the map's own must agree on either side of the bound
    for geom in (TorusGrid(1, 16), TorusGrid(2, 6)):
        r, v = sample_ensemble(GaussianLaw(0.0, 0.0, 0.1, 0.1), geom, 3, 18)
        s = FP.chain_symbol(geom)
        dt_max = 2.0 / np.sqrt(np.max(-s))
        dt = dt_max * (1.0 + 1e-9)
        with pytest.raises(NumericalBlowupError) as early:
            verlet_stability(geom, FP, dt)
        with pytest.raises(NumericalBlowupError) as late:
            verlet_evolve(r, v, geom, FP, dt, 1)
        assert str(early.value) == str(late.value)
        omega, half = verlet_stability(geom, FP, dt_max * (1.0 - 1e-9))
        assert np.array_equal(omega, np.sqrt(-s)) and np.all(half < 1.0)


def test_states_refuse_non_finite_entries():
    # outside arrays enter the lane through the map and the sampled laws
    geom = TorusGrid(1, 4)
    for bad in (np.nan, np.inf, -np.inf):
        row = np.array([0.0, 0.0, bad, 0.0])
        with pytest.raises(ValueError, match="must be finite"):
            verlet_evolve(row, np.zeros(4), geom, FP, 0.01, 1)
        with pytest.raises(ValueError, match="must be finite"):
            verlet_evolve(np.zeros((2, 4)), np.stack([np.zeros(4), row]), geom, FP, 0.01, 1)
        with pytest.raises(ValueError, match="must be finite"):
            sample_ensemble(GaussianLaw(mean_v=lambda x: row), geom, 2, 0)


def test_state_shapes_are_checked():
    geom = TorusGrid(1, 4)
    z = np.zeros
    for r, v in ((z(5), z(5)), (z(4), z(5)), (z((2, 4)), z(4))):
        with pytest.raises(SizeMismatchError):
            verlet_evolve(r, v, geom, FP, 0.01, 1)
        with pytest.raises(SizeMismatchError):
            chain_energy(r, v, geom, FP)


def test_evolve_rejects_bad_step(rng):
    with pytest.raises(ValueError):
        verlet_evolve(rng.normal(size=4), np.zeros(4), TorusGrid(1, 4), FP, 0.0, 10)


# ---------------------------------------------------------------------------
# sampling laws
# ---------------------------------------------------------------------------


def test_sampling_is_replica_keyed():
    law = GaussianLaw(0.0, 0.0, 1.0, 1.0)
    big = sample_ensemble(law, GEOM, 8, 123)
    small = sample_ensemble(law, GEOM, 3, 123)
    # replica i is the same draw no matter how many replicas were requested
    assert np.array_equal(big[0][:3], small[0])
    assert np.array_equal(big[1][:3], small[1])


def test_each_replica_is_numpys_normals_through_the_law():
    # replica i reads 2n normals of numpy's stream [seed, i], r's then v's,
    # and keeps its bytes whether it is drawn alone or among eight
    law = GaussianLaw(lambda x: np.sin(2 * np.pi * x[..., 0]), -0.5, 0.3, lambda x: 1.0 + x[..., 0])
    x = nodes(GEOM).reshape(-1, 1)
    many = sample_ensemble(law, GEOM, 8, 41)
    alone = sample_ensemble(law, GEOM, 1, 41)
    assert np.array_equal(alone[0].view(np.uint64), many[0][:1].view(np.uint64))
    assert np.array_equal(alone[1].view(np.uint64), many[1][:1].view(np.uint64))
    for i in range(8):
        gen = np.random.default_rng(np.random.SeedSequence([41, i]))
        r = np.sin(2 * np.pi * x[:, 0]) + 0.3 * gen.standard_normal(GEOM.n_nodes)
        v = -0.5 + (1.0 + x[:, 0]) * gen.standard_normal(GEOM.n_nodes)
        assert np.array_equal(many[0][i].view(np.uint64), r.view(np.uint64)), i
        assert np.array_equal(many[1][i].view(np.uint64), v.view(np.uint64)), i


def test_a_point_law_draws_nothing(monkeypatch):
    from kinlat import rng

    def refuse(*args):
        raise AssertionError("a stream was seeded")

    monkeypatch.setattr(rng, "_starts", refuse)
    r, v = sample_ensemble(PointLaw(0.5, lambda x: x[..., 0]), GEOM, 3, 9)
    assert r.shape == v.shape == (3, GEOM.n_nodes)
    assert np.all(r == 0.5) and np.array_equal(v, np.tile(nodes(GEOM)[:, 0], (3, 1)))


def test_gaussian_law_profiles_vary_with_x():
    law = GaussianLaw(mean_r=lambda x: np.cos(2 * np.pi * x[..., 0]), sigma_r=0.0, sigma_v=0.0)
    r, v = sample_ensemble(law, GEOM, 2, 0)
    x = nodes(GEOM)[:, 0]
    assert np.allclose(r[0], np.cos(2 * np.pi * x), atol=1e-14)
    assert np.array_equal(v, np.zeros_like(v))


def test_sites_sit_at_j_over_n():
    # the chain reads the one node table: j / 48, not j * (1 / 48), which
    # differs at 15 of the 48 sites
    law = PointLaw(r0=lambda x: x[..., 0], v0=lambda x: x[..., -1])
    for geom in (TorusGrid(1, 48), TorusGrid(2, 48)):
        r, v = sample_ensemble(law, geom, 1, 0)
        j = np.indices(geom.shape).reshape(geom.d, -1)
        assert np.array_equal(r[0], j[0] / 48) and np.array_equal(v[0], j[-1] / 48)
    assert np.count_nonzero(np.arange(48) / 48 != np.arange(48) * (1 / 48)) == 15


def test_gaussian_law_density_normalizes():
    law = GaussianLaw(0.3, -0.1, 0.2, 0.4)
    r = np.linspace(-2, 2, 401)
    v = np.linspace(-2.5, 2.5, 501)
    dens = law.density(np.zeros((1, 1)), r[:, None], v[None, :])
    mass = dens.sum() * (r[1] - r[0]) * (v[1] - v[0])
    assert mass == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        GaussianLaw(0.0, 0.0, 0.0, 1.0).density(np.zeros((1, 1)), r[:, None], v[None, :])


def test_point_law_is_deterministic():
    r, v = sample_ensemble(PointLaw(0.5, -0.25), GEOM, 2, 9)
    assert np.all(r == 0.5) and np.all(v == -0.25)


# ---------------------------------------------------------------------------
# empirical measures
# ---------------------------------------------------------------------------


def test_chaos_defect_shrinks_with_replicas():
    law = GaussianLaw(0.0, 0.0, 0.1, 0.1)
    edges = np.linspace(-0.4, 0.4, 9)
    small = chaos_defect(*sample_ensemble(law, GEOM, 100, 1), (3, 17), edges, edges)
    large = chaos_defect(*sample_ensemble(law, GEOM, 10000, 1), (3, 17), edges, edges)
    assert large < small / 5.0  # ~ m^-1/2 would give a factor 10


def test_chaos_defect_validation():
    law = GaussianLaw(0.0, 0.0, 0.1, 0.1)
    r, v = sample_ensemble(law, GEOM, 4, 2)
    edges = np.linspace(-0.4, 0.4, 9)
    with pytest.raises(ValueError):
        chaos_defect(r, v, (5, 5), edges, edges)
    with pytest.raises(ValueError):
        chaos_defect(r[:1], v[:1], (3, 7), edges, edges)
    with pytest.raises(ValueError):
        chaos_defect(r, v, (3, 7), edges[::-1], edges)


def test_geometry_validation():
    with pytest.raises(ValueError):
        TorusGrid(1, 1)
    with pytest.raises(ValueError):
        FractionalParams(1.0)
    with pytest.raises(ValueError):
        FractionalParams(0.0)
    with pytest.raises(SizeMismatchError):
        chain_energy(np.zeros(5), np.zeros(5), TorusGrid(1, 4), FP)
