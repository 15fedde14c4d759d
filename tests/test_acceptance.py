"""End-to-end gate: eleven checks, one printed verdict line each.

Run with ``pytest -v -rA tests/test_acceptance.py`` to see the verdict
sheet; every test prints ``[NN] name: PASS/FAIL (measured numbers)``
before asserting, so the captured output doubles as the sign-off record.

Check 06 is expected to fail on this lattice size: the weak-coupling
spectrum trend asks the microscopic flow to survive to t = tau/lam^2,
and the band-edge interaction makes that unreachable at any amplitude
large enough to show kinetic evolution.  The test runs the full
protocol anyway and reports the forensics instead of weakening it.
"""

import json

import numpy as np
import pytest

from kinlat import _reference as ref
from kinlat.chain import (
    FractionalParams,
    GaussianLaw,
    chain_energy,
    chaos_defect,
    sample_ensemble,
    two_site_frequency,
    verlet_evolve,
)
from kinlat.compare import compare_spectra, meanfield_distance
from kinlat.config import parse_config
from kinlat.errors import NumericalBlowupError
from kinlat.harness import run
from kinlat.kinetic import (
    ResonanceRule,
    collision,
    evolve,
    omega_grid,
    rayleigh_jeans,
)
from kinlat.lattice import (
    TorusGrid,
    dft,
    inverse_dft,
    nodes,
    omega_bar_grid,
    wavenumbers,
    weighted_inner,
)
from kinlat.profiles import FACTORIES
from kinlat.vlasov import (
    PhaseGrid,
    cell_moments_of_density,
    density_from_law,
    sigma_field,
    vlasov_evolve,
)
from kinlat.waves import (
    EnsembleSpec,
    ModelParams,
    empirical_spectrum,
    integrate,
    rhs,
    sample_initial,
)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    tail = f"  ({detail})" if detail else ""
    print(f"[{num:02d}] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def _cfield(rng, spec, batch=()):
    shape = batch + spec.shape
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_01_fourier_roundtrip_and_parseval():
    rng = np.random.default_rng(101)
    worst_oracle = worst_round = worst_pars = 0.0
    for d, D in ((1, 8), (2, 3)):
        spec = TorusGrid(d, 2 * D + 1)
        f = _cfield(rng, spec)
        fh = dft(spec, f)
        worst_oracle = max(
            worst_oracle, float(np.max(np.abs(fh - ref.dft_direct(spec, f))))
        )
        worst_round = max(
            worst_round, float(np.max(np.abs(inverse_dft(spec, fh) - f)))
        )
        lhs = weighted_inner(spec, f, f).real
        rhs_sum = float(np.sum(np.abs(fh) ** 2))
        worst_pars = max(worst_pars, abs(lhs - rhs_sum) / max(1.0, abs(lhs)))
    ok = worst_oracle < 1e-12 and worst_round < 1e-12 and worst_pars < 1e-12
    assert _verdict(
        1,
        "transform pair vs direct sums",
        ok,
        f"oracle {worst_oracle:.2e}, roundtrip {worst_round:.2e}, parseval {worst_pars:.2e}",
    )


def test_02_free_flow_exactness():
    # moduli: the phase factor is one fixed unit-modulus number per mode,
    # so its ~ulp modulus error accumulates linearly; 50 steps of unit
    # data sit below 1e-14 with margin
    spec = TorusGrid(1, 13)
    params = ModelParams(spec, 0.0)
    b = sample_initial(EnsembleSpec(1, 5, FACTORIES["constant"](level=1.0)), spec)[0]
    out = integrate(b, params, 1e-2, 50, scheme="exponential")
    mod_drift = float(np.max(np.abs(np.abs(out) - np.abs(b))))

    # a(+) in FFT order: k = 2 sits at index 2
    spec = TorusGrid(1, 11)
    b = np.zeros(11, dtype=np.complex128)
    b[2] = 1.0
    out = integrate(b, ModelParams(spec, 0.0), 1e-3, 700)
    wbar = omega_bar_grid(spec)[2]
    phase_err = abs(out[2] - np.exp(-1j * wbar * 0.7))

    ok = mod_drift < 1e-14 and phase_err < 1e-12
    assert _verdict(
        2,
        "free flow preserves moduli and phases",
        ok,
        f"modulus drift {mod_drift:.2e}, single-mode phase {phase_err:.2e}",
    )


def test_03_interaction_rhs_oracle_and_wrap():
    rng = np.random.default_rng(303)
    worst = 0.0
    for d, D, lam in ((1, 3, 1.3), (2, 2, 0.4)):
        spec = TorusGrid(d, 2 * D + 1)
        b = _cfield(rng, spec)  # a(+); the oracle reads it doubled and shifted
        got = ref.doubled_shifted(rhs(b, ModelParams(spec, lam)), spec)
        want = ref.wave_rhs_direct(ref.doubled_shifted(b, spec), spec, lam)
        worst = max(
            worst,
            float(np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))),
        )

    # modular selection: mass at |k|=3 on N=7 feeds exactly {-1,+1},
    # the wrapped images of the pair sums +-6
    spec = TorusGrid(1, 7)
    k = wavenumbers(spec)[:, 0]  # FFT order
    b = np.where(np.abs(k) == 3, 0.3 + 0.1j, 0.0)
    lin = -1j * omega_bar_grid(spec) * b
    nl = rhs(b, ModelParams(spec, 1.0)) - lin
    hit = sorted(int(kk) for kk in k[np.abs(nl) > 1e-14])
    ok = worst < 1e-12 and hit == [-1, 1]
    assert _verdict(
        3,
        "interaction rhs vs quadruple loop",
        ok,
        f"rel gap {worst:.2e}, wrapped support {hit}",
    )


def test_04_equilibrium_stationarity_ladder():
    grid = TorusGrid(1, 32)
    levels = []
    for eps in (0.05, 0.025, 0.0125, 0.00625):
        rule = ResonanceRule(epsilon=eps)
        f = rayleigh_jeans(grid, 1.0, rule)
        c = collision(f, grid, rule)
        levels.append(float(grid.cell_measure * np.sum(np.abs(c))))
    drops = [levels[i + 1] < levels[i] for i in range(3)]
    ok = all(drops)
    assert _verdict(
        4,
        "T/w spectrum stationarity under eps halving",
        ok,
        "L1 ladder " + " > ".join(f"{x:.3e}" for x in levels),
    )


def test_05_energy_moment_refinement_ladder():
    ratios = []
    for eps, m in ((0.2, 32), (0.1, 64), (0.05, 128), (0.025, 256)):
        grid = TorusGrid(1, m)
        rule = ResonanceRule(epsilon=eps, omega_floor=0.1)
        f = rayleigh_jeans(grid, 1.0, rule)
        w = omega_grid(grid)
        c = collision(f, grid, rule)
        num = abs(float(np.sum(w * c) * grid.cell_measure))
        den = float(np.sum(w * f) * grid.cell_measure)
        ratios.append(num / den)
    ok = all(ratios[i + 1] < ratios[i] for i in range(3))
    assert _verdict(
        5,
        "energy-moment defect under joint refinement",
        ok,
        "ratios " + " > ".join(f"{x:.3e}" for x in ratios),
    )


@pytest.mark.slow
def test_06_weak_coupling_spectrum_trend():
    """Distance between rescaled ensemble spectra and the kinetic solution,
    non-increasing over lam in {0.1, 0.05, 0.025}.  Expected to fail: see
    the module docstring and the forensics printed below."""
    spec = TorusGrid(1, 33)
    prof = FACTORIES["torus-gaussian"](amplitude=1.0, width=0.5)
    tau_final = 0.5
    dt = 0.05
    seeds = (1, 2, 3, 4, 5)
    medians = []
    try:
        for lam in (0.1, 0.05, 0.025):
            params = ModelParams(spec, lam)
            t_target = tau_final / lam**2
            n_steps = int(round(t_target / dt))
            dists = []
            for seed in seeds:
                a = sample_initial(EnsembleSpec(200, seed, prof), spec)
                out = integrate(a, params, dt, n_steps)
                emp = empirical_spectrum(out, spec)
                grid = TorusGrid(1, spec.m)
                rule = ResonanceRule(epsilon=0.2)
                kin = evolve(prof(nodes(grid)), grid, rule, 0.01, 50)
                dists.append(compare_spectra(emp, grid, kin, grid, tau_final).l2["f"])
            medians.append(float(np.median(dists)))
    except NumericalBlowupError as err:
        t_died = None if err.step is None else err.step * dt
        # the failure is a property of the flow, not the integrator:
        # halving dt leaves the blowup time fixed
        a = sample_initial(EnsembleSpec(200, seeds[0], prof), spec)
        try:
            integrate(a, ModelParams(spec, 0.1), dt / 2, 4000)
            t_half = None
        except NumericalBlowupError as err2:
            t_half = None if err2.step is None else err2.step * dt / 2
        _verdict(
            6,
            "weak-coupling spectrum trend",
            False,
            f"flow lost at t={t_died} of target {tau_final / 0.1**2:.0f}",
        )
        pytest.fail(
            "the microscopic ensemble cannot reach the rescaled horizon: "
            f"amplitudes blew up at t~{t_died} (dt={dt}) and t~{t_half} "
            f"(dt={dt / 2}) against a target of t=50 at lam=0.1. The halved "
            "step reproducing the same failure time shows this is the flow "
            "itself, not the integrator. Mechanism: on 33 sites the edge "
            "modes k=+-16 carry near-zero frequency (sin^2 term ~9.0e-3), "
            "the cubic coupling weighs each such leg by ~1/(2*0.009)~55, "
            "and the wrapped triple (16,16)->-1 pumps them with O(1) rate; "
            "O(1) spectra self-amplify within a few time units. Since the "
            "survival horizon scales only like amplitude^(-1/4), pushing "
            "blowup past t=50 needs amplitudes ~1e-8, where the quadratic "
            "spectrum evolution is far below ensemble noise at 200 "
            "replicas. The trend is unmeasurable on this lattice size; "
            "recorded as a known limitation rather than weakened.",
            pytrace=False,
        )
    ok = all(medians[i + 1] <= medians[i] * (1 + 1e-9) for i in range(len(medians) - 1))
    assert _verdict(
        6,
        "weak-coupling spectrum trend",
        ok,
        "medians " + " >= ".join(f"{x:.3e}" for x in medians),
    )


def test_07_chain_conservation_budgets():
    geom = TorusGrid(1, 128)
    fp = FractionalParams(0.5)
    dt = 1e-3
    worst_e = worst_p = 0.0
    for seed in (101, 202, 303):
        r, v = sample_ensemble(GaussianLaw(0.0, 0.0, 0.1, 0.1), geom, 1, seed)
        e0 = float(chain_energy(r, v, geom, fp)[0])
        p0 = float(v[0].sum())
        samples = []
        for k in range(1000):  # sampled every 10 steps
            r, v = verlet_evolve(r, v, geom, fp, dt, 10)
            samples.append((10 * (k + 1) * dt, float(np.mean(chain_energy(r, v, geom, fp)))))
        ts = np.array([t for t, _ in samples])
        es = np.array([e for _, e in samples])
        # secular trend only: the reversible integrator carries a bounded
        # O(dt^2) energy wobble, drift is the fitted slope over the run
        slope = np.polyfit(ts, es, 1)[0]
        worst_e = max(worst_e, abs(slope) * 10.0 / abs(e0))
        worst_p = max(worst_p, abs(float(v[0].sum()) - p0))

    # two-site mode: frequency closed form and dt^2 period convergence
    g2 = TorusGrid(1, 2)
    f2 = FractionalParams(0.5)
    omega = two_site_frequency(g2, f2)
    period = 2.0 * np.pi / omega

    def measured(step):
        r, v, tr = np.array([0.1, -0.1]), np.zeros(2), []
        for i in range(int(12.0 / step)):
            r, v = verlet_evolve(r, v, g2, f2, step, 1)
            tr.append((i * step, r[0]))
        ts = np.array([t for t, _ in tr])
        xs = np.array([x for _, x in tr])
        idx = np.nonzero((xs[:-1] > 0) & (xs[1:] <= 0))[0]
        tc = ts[idx] + (ts[idx + 1] - ts[idx]) * xs[idx] / (xs[idx] - xs[idx + 1])
        return float(np.mean(np.diff(tc)))

    err_c = abs(measured(0.02) - period) / period
    err_f = abs(measured(0.01) - period) / period
    order = err_c / err_f
    ok = (
        worst_e < 1e-6
        and worst_p < 1e-10
        and omega == pytest.approx(2.0, abs=1e-12)
        and 3.0 < order < 5.0
    )
    assert _verdict(
        7,
        "chain invariants over t=10 at 128 sites",
        ok,
        f"energy drift {worst_e:.2e}, momentum {worst_p:.2e}, period ratio {order:.2f}",
    )


@pytest.mark.slow
def test_08_meanfield_distance_trend():
    grid = PhaseGrid(32, 64, 64, 0.5, 1.5)
    fp = FractionalParams(0.5)

    def mean_r(x):
        return 0.2 * np.cos(2.0 * np.pi * x[..., 0])

    # same law on both sides; the grid run widens the degenerate r-marginal
    # by two cells so the density is representable
    chain_law = GaussianLaw(mean_r, 0.0, 0.0, 0.1)
    pde_law = GaussianLaw(mean_r, 0.0, 2.0 * grid.dr, 0.1)
    g0 = density_from_law(pde_law, grid)
    g, _ = vlasov_evolve(g0, grid, fp, 1e-2, 50)
    theirs0, theirs = cell_moments_of_density(g0, grid), cell_moments_of_density(g, grid)

    medians = []
    band = []
    for n in (64, 128, 256):
        geom = TorusGrid(1, n)
        d_end, d_zero = [], []
        for seed in (11, 22, 33, 44, 55):
            r, v = sample_ensemble(chain_law, geom, 50, seed)
            d_zero.append(meanfield_distance(theirs0, grid, 0.0, r, v, geom, 0.0).total_l2)
            r, v = verlet_evolve(r, v, geom, fp, 1e-3, 500)
            d_end.append(meanfield_distance(theirs, grid, 50 * 1e-2, r, v, geom, 1e-3 * 500).total_l2)
        medians.append(float(np.median(d_end)))
        band.append(float(np.median(d_zero)) / (50 * n) ** -0.5)
    trend = all(medians[i + 1] <= medians[i] * (1 + 1e-9) for i in range(2))
    in_band = all(0.2 < b < 3.0 for b in band)
    ok = trend and in_band
    assert _verdict(
        8,
        "local moments approach the continuum run",
        ok,
        "medians " + " >= ".join(f"{x:.4f}" for x in medians)
        + "; start-distance/sampling-scale " + ", ".join(f"{b:.2f}" for b in band),
    )


def test_09_factorization_defect_scaling():
    geom = TorusGrid(1, 32)
    law = GaussianLaw(0.0, 0.0, 0.1, 0.1)
    pair = (3, 17)
    edges = np.linspace(-0.4, 0.4, 9)
    sizes = (100, 1000, 10000)
    slopes = []
    for seed in (1, 2, 3, 4, 5):
        defects = [
            chaos_defect(*sample_ensemble(law, geom, m, seed * 1000 + m), pair, edges, edges)
            for m in sizes
        ]
        slopes.append(float(np.polyfit(np.log(sizes), np.log(defects), 1)[0]))
    ok = all(-0.65 < s < -0.35 for s in slopes)

    # evolved-ensemble defect carries no budget; report it alongside
    fp = FractionalParams(0.5)
    r, v = verlet_evolve(*sample_ensemble(law, geom, 2000, 7000), geom, fp, 1e-3, 1000)
    evolved = chaos_defect(r, v, pair, edges, edges)
    assert _verdict(
        9,
        "pair-marginal product gap shrinks like 1/sqrt(replicas)",
        ok,
        "slopes " + ", ".join(f"{s:.3f}" for s in slopes)
        + f"; evolved-run defect {evolved:.4f} (reported only)",
    )


def test_10_phase_space_solver_checks():
    fp = FractionalParams(0.5)
    law = GaussianLaw(0.0, 0.0, 0.12, 0.12)
    drifts, negs, streams = [], [], []
    for m in (64, 128):
        grid = PhaseGrid(4, m, m, 1.0, 1.0)
        g0 = density_from_law(law, grid)
        g, diag = vlasov_evolve(g0, grid, fp, 2e-3, 100)
        drifts.append(abs(diag.mass_final - diag.mass_initial) / diag.mass_initial)
        negs.append(float(g.min()))
        exact = ref.free_streaming_density(law, grid, 0.2)
        streams.append(float(np.max(np.abs(g - exact)) / np.max(np.abs(exact))))

    grid = PhaseGrid(8, 32, 24, 1.0, 1.2)
    x = (np.arange(8) / 8)[:, None, None]
    r = np.linspace(-1, 1, 32, endpoint=False)[None, :, None]
    v = np.linspace(-1.2, 1.2, 24, endpoint=False)[None, None, :]
    lumpy = (
        (1.1 + np.cos(2 * np.pi * x))
        * np.exp(-((r / 0.4) ** 2) - (v / 0.5) ** 2)
        * (1 + 0.3 * np.sin(3 * np.pi * r))
    )
    sigma_gap = float(
        np.max(np.abs(sigma_field(lumpy, grid, fp) - ref.sigma_field_unfactorized(lumpy, grid, fp)))
    )

    ok = (
        max(drifts) < 1e-8  # per 100 steps by construction
        and min(negs) >= 0.0
        and streams[0] < 2e-2
        and streams[1] < 0.65 * streams[0]
        and sigma_gap < 1e-12
    )
    assert _verdict(
        10,
        "transport solver budgets",
        ok,
        f"mass drift {max(drifts):.2e}, min density {min(negs):.1e}, "
        f"free-stream err {streams[0]:.3e}->{streams[1]:.3e}, field-split gap {sigma_gap:.1e}",
    )


def test_11_worker_count_determinism(tmp_path):
    # workers only thread the children of a sweep, so that is where
    # byte-identity across worker counts has to hold
    doc = {
        "pipeline": "wt-kinetic",
        "seed": 2024,
        "kinetic": {"m": 8, "epsilon": 0.3, "dtau": 0.02, "n_steps": 5},
        "sweep": {"axis": "kinetic.epsilon", "values": [0.4, 0.3, 0.2, 0.1]},
    }
    run(parse_config(doc), out=tmp_path / "w1", workers=1)
    run(parse_config(doc), out=tmp_path / "w4", workers=4)

    def files(d):
        root = tmp_path / d
        return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())

    # manifests agree too once the (documented) wall-clock fields are dropped
    def scrub(d, p):
        m = json.loads((tmp_path / d / p).read_text())
        m.pop("started"), m.pop("finished")
        # the one other field that names the run's own directory
        assert m["config_resolved"].pop("out") == m.pop("out_dir")
        return m

    names1, names4 = files("w1"), files("w4")
    manifests = [p for p in names1 if p.endswith("manifest.json")]
    same_bytes = names1 == names4 and all(
        (tmp_path / "w1" / p).read_bytes() == (tmp_path / "w4" / p).read_bytes()
        for p in names1
        if p not in manifests
    )
    ok = same_bytes and all(scrub("w1", p) == scrub("w4", p) for p in manifests)
    assert _verdict(
        11,
        "byte-identical sweep outputs across worker counts",
        ok,
        f"{len(names1)} files compared, {len(manifests)} manifests",
    )
