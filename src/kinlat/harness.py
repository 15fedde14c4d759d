"""Run orchestration: pipelines, sweeps, manifests, determinism.

``run`` executes one configured pipeline into an output directory and
returns a :class:`RunManifest` listing every produced file with its
checksum.  Reruns with the same config and seed are byte-identical: seeds
are explicit, replica streams are keyed ``[seed, replica]``, reductions
are fixed-order, and wave replicas are integrated in blocks whose rows
never interact, so the block size cannot change any replica's bytes.
Worker count only schedules sweep children.  Wall-clock timestamps appear
in the manifest only, and the manifest is not part of its own file list.

``sweep`` reruns a base config along one numeric axis (same seed — the
children share random numbers, which is what makes trend comparisons
across the axis meaningful), aggregates each child's headline metric, and
issues a monotone-trend verdict.

A pipeline's lanes (the ``waves``, ``kinetic``, ``chain`` and ``vlasov``
solvers, and ``compare``, which holds an ensemble against its limit) are
imported when ``run`` dispatches it, so a process loads only what it runs;
``_reference`` is imported by ``oracle-suite`` alone.
"""

from __future__ import annotations

import datetime
import importlib
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import (
    RunConfig,
    build_law,
    build_profile,
    config_hash,
    mf_steps,
    resolved,
    sweep_children,
)
from .errors import CheckFailure, ConfigError, NumericalBlowupError
from .io import (
    sha256_file,
    write_amplitude_snapshot,
    write_chain_snapshot_csv,
    write_csv,
    write_json,
    write_moments_csv,
    write_phase_density,
    write_spectrum_csv,
)
from .lattice import LatticeSpec

__all__ = [
    "RunManifest",
    "Budget",
    "run",
    "sweep",
    "PIPELINE_METRIC",
]

# byte budget of one replica block's half field a(+): large enough to amortize
# per-call kernel overhead, small enough that the arrays of that size a wave
# step keeps live (the state, four stages and their temporaries) do not grow
# with the ensemble.  Rows never interact, and the interaction kernel gives
# each row its own bytes (its GEMMs run on zero-padded blocks of
# waves.GEMM_ROWS rows), so the block size cannot change results
BLOCK_BYTES = 64 * 1024

# the names the drivers read from each lane module, as globals of this
# module; ``run`` binds a pipeline's lanes when it dispatches, so a process
# imports only the lanes it runs.  Binding never replaces a name already
# bound here (a tracing wrapper or a test's patch), and module attribute
# access binds on demand, so every name resolves on ``kinlat.harness``
# before any run.
_LANES = {
    "waves": (
        "EnsembleSpec",
        "ModelParams",
        "_integrate_array",
        "empirical_spectrum",
        "hamiltonian",
        "sample_initial",
    ),
    "kinetic": (
        "CollisionDiagnostics",
        "ResonanceRule",
        "Spectrum",
        "TorusGrid",
        "collision",
        "energy_moment",
        "evolve",
        "nodes",
    ),
    "chain": (
        "ChainGeometry",
        "FractionalParams",
        "chain_energy",
        "sample_ensemble",
        "site_coordinates",
        "total_momentum",
        "verlet_evolve",
    ),
    "vlasov": (
        "PhaseGrid",
        "cell_moments_of_density",
        "density_from_law",
        "vlasov_evolve",
        "x_centers",
    ),
    "compare": ("TIME_TOL", "compare_spectra", "meanfield_distance"),
}


def _bind(*lanes: str) -> None:
    """Import each lane and bind its driver names here, keeping any name already bound."""
    for lane in lanes:
        module = importlib.import_module(f"{__package__}.{lane}")
        for name in _LANES[lane]:
            globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    for lane, names in _LANES.items():
        if name in names:
            _bind(lane)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


PIPELINE_METRIC = {
    "wt-sim": "energy_drift_rel",
    "wt-kinetic": "stationarity_l1",
    "wt-compare": "distance_l2",
    "chain-sim": "energy_drift_rel",
    "vlasov": "mass_drift_rel",
    "mf-compare": "distance_l2",
    "oracle-suite": "n_failed",
}


@dataclass(frozen=True)
class Budget:
    """One run check: ``value`` must not exceed ``limit``.

    ``passed`` is the only place a check is decided.  A NaN value fails,
    since no comparison with NaN holds.
    """

    name: str
    value: float
    limit: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.limit)

    def to_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "limit": self.limit, "passed": self.passed}


@dataclass
class RunManifest:
    pipeline: str
    config_hash: str
    seed: int
    out_dir: str
    status: str = "ok"
    started: str = ""
    finished: str = ""
    versions: dict = field(default_factory=dict)
    files: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    snapshot: str | None = None
    config_resolved: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "pipeline": self.pipeline,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "out_dir": self.out_dir,
            "status": self.status,
            "started": self.started,
            "finished": self.finished,
            "versions": self.versions,
            "files": self.files,
            "metrics": self.metrics,
            "checks": [b.to_dict() for b in self.checks],
            "notes": self.notes,
            "config_resolved": self.config_resolved,
        }
        if self.snapshot is not None:
            d["snapshot"] = self.snapshot
        return d


def _versions() -> dict:
    from . import __version__

    return {"kinlat": __version__, "numpy": np.__version__}


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _map_ordered(fn, items, workers: int):
    """Apply ``fn`` over items on a thread pool, results in submission order."""
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    import concurrent.futures

    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _manifest(cfg: RunConfig, out_dir: Path, **fields) -> RunManifest:
    """A new manifest of ``cfg`` run into ``out_dir``; the resolved config
    records that directory as its ``out``, whatever the config said."""
    return RunManifest(
        pipeline=cfg.pipeline,
        config_hash=config_hash(cfg),
        seed=cfg.seed,
        out_dir=str(out_dir),
        started=_utcnow(),
        versions=_versions(),
        config_resolved=resolved(cfg) | {"out": str(out_dir)},
        **fields,
    )


def _close(manifest: RunManifest, out_dir: Path, check: bool) -> RunManifest:
    """Stamp and write the manifest; under ``check``, raise on its failed budgets.

    A status that already names a failure (a sweep's ``partial``) is kept.
    """
    failed = [b for b in manifest.checks if not b.passed] if check else []
    if failed and manifest.status == "ok":
        manifest.status = "checks-failed"
    manifest.finished = _utcnow()
    write_json(out_dir / "manifest.json", manifest.to_dict())
    if failed:
        raise CheckFailure("; ".join(f"{b.name} {b.value:.3e} > {b.limit:.3e}" for b in failed))
    return manifest


def _file_entries(files, out_dir: Path) -> list[dict]:
    entries = []
    for p in sorted({str(f) for f in files}):
        entries.append(
            {
                "path": str(Path(p).relative_to(out_dir)),
                "sha256": sha256_file(p),
                "bytes": Path(p).stat().st_size,
            }
        )
    return entries


# ---------------------------------------------------------------------------
# pipeline drivers — each returns (files, metrics, checks, notes)
# ---------------------------------------------------------------------------


def _integrate_ensemble(a, params, dt, n_steps, scheme, step0=0, t0=0.0):
    """Advance replica-stacked amplitudes one replica block at a time.

    Callable outside :func:`run`, so it binds the wave lane itself.
    ``a`` itself is left untouched, so a blowup in a later block still
    leaves the segment's starting state for the last-good snapshot.
    ``step0`` and ``t0`` are the run's clock at the segment's start.  Each
    block runs the whole segment before the next starts, so a blowup is
    reported from the first block that fails, not at the earliest step; its
    message names that block's replicas and the later blocks left unstepped.
    """
    _bind("waves")
    m = a.shape[0]
    rows = max(1, BLOCK_BYTES // a[0].nbytes)  # one replica's a(+)
    out = np.empty_like(a)
    for i in range(0, m, rows):
        stop = min(i + rows, m)
        try:
            out[i:stop] = _integrate_array(
                a[i:stop], params, dt, n_steps, scheme, step0=step0, t0=t0
            )
        except NumericalBlowupError as e:
            later = f"; later blocks ({_replica_span(stop, m)}) were not stepped" if stop < m else ""
            raise NumericalBlowupError(
                f"{e.message} in the block of {_replica_span(i, stop)}{later}", step=e.step
            ) from e
    return out


def _replica_span(start: int, stop: int) -> str:
    return f"replica {start}" if stop == start + 1 else f"replicas {start}-{stop - 1}"


def _drive_wave(cfg: RunConfig, out: Path):
    w = cfg.wave
    spec = LatticeSpec(w.d, w.half_width)
    params = ModelParams(spec, w.lam)
    ens = EnsembleSpec(w.replicas, cfg.seed, build_profile(w.profile))
    a = sample_initial(ens, spec)
    mod0 = np.abs(a)
    h0 = hamiltonian(a, params)
    h_scale = np.where(h0 != 0.0, np.abs(h0), 1.0)  # an all-zero replica stays zero
    files = [write_spectrum_csv(out / "spectrum_initial.csv", empirical_spectrum(a, spec, 0.0))]

    seg_len = w.save_every if w.save_every > 0 else w.n_steps
    t, done, drift = 0.0, 0, 0.0
    rows = []
    try:
        while done < w.n_steps:
            seg = min(seg_len, w.n_steps - done)
            a = _integrate_ensemble(a, params, w.dt, seg, w.scheme, done, t)
            done += seg
            t += w.dt * seg
            sp = empirical_spectrum(a, spec, t)
            rows.append((t, float(sp.f.sum() * sp.grid.cell_measure), energy_moment(sp, sp.grid)))
            h = hamiltonian(a, params)
            drift = max(drift, float(np.max(np.abs(h - h0) / h_scale)))
    except NumericalBlowupError as e:
        snap, _ = write_amplitude_snapshot(
            out / "last_good",
            a[0],
            spec,
            {"t": t, "lam": w.lam, "seed": cfg.seed, "d": w.d, "half_width": w.half_width},
        )
        e.snapshot = str(snap)
        raise
    if rows:
        files.append(
            write_csv(
                out / "series.csv",
                ["t", "mass", "energy"],
                rows,
                comments=["ensemble spectrum moments along the run; t microscopic"],
            )
        )
    final = empirical_spectrum(a, spec, t)
    files.append(write_spectrum_csv(out / "spectrum_final.csv", final))
    csv_p, json_p = write_amplitude_snapshot(
        out / "amplitudes_final_r0",
        a[0],
        spec,
        {"t": t, "lam": w.lam, "seed": cfg.seed, "d": w.d, "half_width": w.half_width, "replica": 0},
    )
    files += [csv_p, json_p]

    # a(+) has no stored conjugate to break; the key stays for perfbench's wave gate
    metrics = {"t_final": t, "reality_defect": 0.0, "energy_drift_rel": drift}
    checks = [Budget("energy-conserved", drift, 1e-8)]
    if w.lam == 0.0:
        mdrift = float(np.max(np.abs(np.abs(a) - mod0)))
        metrics["modulus_drift"] = mdrift
        checks.append(Budget("free-flow-moduli-frozen", mdrift, 1e-12))
    return files, metrics, checks, []


def _drive_kinetic(cfg: RunConfig, out: Path):
    k = cfg.kinetic
    grid = TorusGrid(k.d, k.m)
    rule = ResonanceRule(k.epsilon, k.shape, k.omega_floor)
    f0 = np.asarray(build_profile(k.initial)(nodes(grid)), dtype=np.float64)
    sp = Spectrum(grid, f0, 0.0)
    files = [write_spectrum_csv(out / "spectrum_initial.csv", sp)]
    rows = [(0.0, float(sp.f.sum() * grid.cell_measure), energy_moment(sp, grid))]
    last = [sp]

    def on_step(i, s):
        last[0] = s
        rows.append((s.tau, float(s.f.sum() * grid.cell_measure), energy_moment(s, grid)))

    diag = CollisionDiagnostics()
    try:
        sp = evolve(sp, grid, rule, k.dtau, k.n_steps, k.scheme, diag, on_step)
    except NumericalBlowupError as e:
        e.snapshot = str(write_spectrum_csv(out / "last_good.csv", last[0]))
        raise
    files.append(write_spectrum_csv(out / "spectrum_final.csv", sp))
    files.append(
        write_csv(
            out / "series.csv",
            ["tau", "mass", "energy"],
            rows,
            comments=["kinetic moments; tau dimensionless"],
        )
    )
    rate = collision(sp, grid, rule)
    stat = float(np.sum(np.abs(rate)) * grid.cell_measure)
    metrics = {
        "tau_final": sp.tau,
        "stationarity_l1": stat,
        "clipped_mass": diag.clipped_mass,
        "clip_events": diag.clip_events,
        "energy_initial": rows[0][2],
        "energy_final": rows[-1][2],
    }
    files.append(write_json(out / "summary.json", metrics))
    checks = [
        Budget("spectrum-nonnegative", -float(sp.f.min()), 0.0),
        Budget("clip-mass-small", diag.clipped_mass, 1e-6),
    ]
    return files, metrics, checks, []


def _drive_wt_compare(cfg: RunConfig, out: Path):
    w, k, c = cfg.wave, cfg.kinetic, cfg.compare
    spec = LatticeSpec(w.d, w.half_width)
    params = ModelParams(spec, w.lam)
    t_final = c.tau_final / w.lam**2
    n_steps = max(1, round(t_final / w.dt))
    ens = EnsembleSpec(w.replicas, cfg.seed, build_profile(w.profile))
    a = sample_initial(ens, spec)
    micro0 = empirical_spectrum(a, spec, 0.0)
    a = _integrate_ensemble(a, params, w.dt, n_steps, w.scheme)
    micro = empirical_spectrum(a, spec, n_steps * w.dt)
    micro.tau = w.lam**2 * micro.tau  # report on the slow clock

    grid = TorusGrid(k.d, k.m)
    rule = ResonanceRule(k.epsilon, k.shape, k.omega_floor)
    # both sides must leave from the same curve, so the wave profile seeds
    # the kinetic run too (parse_config rejects a kinetic.initial here)
    f0 = np.asarray(build_profile(w.profile)(nodes(grid)), dtype=np.float64)
    kin0 = Spectrum(grid, f0, 0.0)
    n_tau = max(1, round(c.tau_final / k.dtau))
    kin = evolve(kin0, grid, rule, k.dtau, n_tau, k.scheme)

    dist = compare_spectra(micro, kin)
    dist0 = compare_spectra(micro0, kin0)
    # each side rounds its own step count, so the two slow times can differ
    notes = []
    if abs(micro.tau - kin.tau) > TIME_TOL:
        notes.append(
            f"the spectra are compared at different slow times: "
            f"tau_micro {micro.tau:.6g}, tau_kinetic {kin.tau:.6g}"
        )
    files = [
        write_spectrum_csv(out / "micro_initial.csv", micro0),
        write_spectrum_csv(out / "micro_final.csv", micro),
        write_spectrum_csv(out / "kinetic_initial.csv", kin0),
        write_spectrum_csv(out / "kinetic_final.csv", kin),
    ]
    metrics = {
        "lam": w.lam,
        "tau_final": c.tau_final,
        "micro_steps": n_steps,
        "tau_micro": micro.tau,
        "tau_kinetic": kin.tau,
        "distance_l1": dist.l1["f"],
        "distance_l2": dist.l2["f"],
        "distance_linf": dist.sup["f"],
        "distance_l2_initial": dist0.l2["f"],
    }
    files.append(write_json(out / "compare.json", metrics))
    gap_nodes = nodes(dist.grid).reshape(-1, dist.grid.d)
    gap_vals = dist.gap["f"].reshape(-1)
    files.append(
        write_csv(
            out / "per_mode.csv",
            [f"kappa_{i}" for i in range(dist.grid.d)] + ["gap"],
            [tuple(gap_nodes[i]) + (gap_vals[i],) for i in range(gap_vals.size)],
            comments=["pointwise spectrum gap on the comparison grid"],
        )
    )
    # np.max carries a NaN through; the float limit admits any finite distance
    largest = float(np.max([dist.l1["f"], dist.l2["f"], dist.sup["f"]]))
    checks = [Budget("distances-finite", largest, sys.float_info.max)]
    return files, metrics, checks, notes


def _evolve_chain(ens, geom, fp, dt, n_steps, out: Path):
    """``verlet_evolve``, writing replica 0 of ``ens`` as the last-good snapshot on failure."""
    try:
        return verlet_evolve(ens, geom, fp, dt, n_steps)
    except NumericalBlowupError as e:
        # an unstable dt fails before the first step: the state given is last good
        snap = write_chain_snapshot_csv(
            out / "last_good.csv", site_coordinates(geom), ens.r[0], ens.v[0], ens.t
        )
        e.snapshot = str(snap)
        raise


def _drive_chain(cfg: RunConfig, out: Path):
    c = cfg.chain
    geom = ChainGeometry(c.d, c.n)
    fp = FractionalParams(c.alpha)
    ens = sample_ensemble(build_law(c.law), geom, c.replicas, cfg.seed)
    e0 = np.atleast_1d(chain_energy(ens, geom, fp))
    p0 = np.atleast_1d(total_momentum(ens))
    rows = [(0.0, float(np.mean(e0)), float(np.mean(p0)))]
    seg_len = c.save_every if c.save_every > 0 else max(1, c.n_steps)
    done, emax, pmax = 0, 0.0, 0.0
    while done < c.n_steps:
        seg = min(seg_len, c.n_steps - done)
        ens = _evolve_chain(ens, geom, fp, c.dt, seg, out)
        done += seg
        ens.t = done * c.dt  # the run's clock, not a sum of segment lengths
        e = chain_energy(ens, geom, fp)  # per replica
        p = total_momentum(ens)
        emax = max(emax, float(np.max(np.abs(e - e0) / np.maximum(np.abs(e0), 1e-300))))
        pmax = max(pmax, float(np.max(np.abs(p - p0))))
        rows.append((ens.t, float(np.mean(e)), float(np.mean(p))))
    files = [
        write_csv(
            out / "series.csv",
            ["t", "energy_mean", "momentum_mean"],
            rows,
            comments=["replica-averaged invariants; t in chain units"],
        ),
        write_chain_snapshot_csv(
            out / "snapshot_final_r0.csv", site_coordinates(geom), ens.r[0], ens.v[0], ens.t
        ),
    ]
    metrics = {"t_final": ens.t, "energy_drift_rel": emax, "momentum_drift": pmax, "replicas": ens.m}
    files.append(write_json(out / "summary.json", metrics))
    p_scale = max(1.0, float(np.max(np.abs(p0))))
    checks = [
        Budget("momentum-conserved", pmax, 1e-9 * p_scale + 1e-10),
        Budget("energy-bounded-drift", emax, 1e-4),
    ]
    return files, metrics, checks, []


def _drive_vlasov(cfg: RunConfig, out: Path):
    v = cfg.vlasov
    grid = PhaseGrid(v.mx, v.mr, v.mv, v.r_max, v.v_max)
    fp = FractionalParams(v.alpha)
    g0 = density_from_law(build_law(v.law), grid)
    b0, j0 = write_phase_density(out / "density_initial", g0, v.alpha)
    # g0 is written out, so the run steps its array in place
    g, diag = vlasov_evolve(g0, fp, v.dt, v.n_steps, out=g0.g)
    b1, j1 = write_phase_density(out / "density_final", g, v.alpha)
    mom = cell_moments_of_density(g)
    files = [
        b0,
        j0,
        b1,
        j1,
        write_moments_csv(out / "moments_final.csv", x_centers(grid), mom),
    ]
    drift = abs(diag.mass_final - diag.mass_initial) / max(diag.mass_initial, 1e-300)
    metrics = {
        "t_final": g.t,
        "mass_initial": diag.mass_initial,
        "mass_final": diag.mass_final,
        "mass_drift_rel": drift,
        "boundary_mass_max": diag.boundary_mass_max,
        "escaped_mass": diag.escaped_mass,
        "cfl_r": diag.cfl_r,
        "cfl_v": diag.cfl_v,
    }
    files.append(write_json(out / "summary.json", metrics))
    # mass that flows out through the window edge counts as drift
    per100 = drift * (100.0 / max(1, v.n_steps))
    checks = [
        Budget("density-nonnegative", -float(g.g.min()), 0.0),
        Budget("mass-conserved", per100, 1e-8),
    ]
    return files, metrics, checks, diag.notes


def _paired_laws(cfg: RunConfig, grid: PhaseGrid):
    """Chain law plus its PDE twin; a degenerate r-width is grid-resolved."""
    c, cmp_ = cfg.chain, cfg.compare
    law_chain = build_law(c.law)  # a GaussianLaw: parse_config checked the kind
    if cmp_.pde_sigma_r == "auto":
        sigma_pde = max(float(law_chain.sigma_r), 2.0 * grid.dr)
    else:
        sigma_pde = float(cmp_.pde_sigma_r)
    law_pde = build_law(replace(c.law, params=c.law.params | {"sigma_r": sigma_pde}))
    return law_chain, law_pde, sigma_pde


def _drive_mf_compare(cfg: RunConfig, out: Path):
    c, v = cfg.chain, cfg.vlasov
    geom = ChainGeometry(c.d, c.n)
    fp = FractionalParams(c.alpha)
    grid = PhaseGrid(v.mx, v.mr, v.mv, v.r_max, v.v_max)
    n_chain, n_pde = mf_steps(c, v, cfg.compare.t_final)
    law_chain, law_pde, sigma_pde = _paired_laws(cfg, grid)
    ens0 = sample_ensemble(law_chain, geom, c.replicas, cfg.seed)
    # an unstable dt fails here, before the density is built
    ens = _evolve_chain(ens0, geom, fp, c.dt, n_chain, out)
    g0 = density_from_law(law_pde, grid)
    # the t=0 distance is the ensemble's sampling floor
    dist0 = meanfield_distance(g0, ens0, geom)
    del ens0  # the Vlasov run need not keep the sampled state alive
    # g0 is done with, so the run steps its array in place
    g, diag = vlasov_evolve(g0, fp, v.dt, n_pde, out=g0.g)
    # the two clocks agree to round-off; stamp them equal for the comparison
    g.t = ens.t
    dist = meanfield_distance(g, ens, geom)
    files = [
        write_moments_csv(out / "moments_pde.csv", x_centers(grid), dist.theirs),
        write_moments_csv(out / "moments_ensemble.csv", x_centers(grid), dist.ours),
    ]
    metrics = {
        "t_final": ens.t,
        "n": c.n,
        "replicas": c.replicas,
        "sigma_r_pde": sigma_pde,
        "distance_l2": dist.total_l2,
        "distance_l2_initial": dist0.total_l2,
        "excess": dist.total_l2 / max(dist0.total_l2, 1e-300),
        "distance_sup": dist.total_sup,
        "per_observable_l2": dist.l2,
        "pde_mass_drift": diag.mass_initial - diag.mass_final,
    }
    files.append(write_json(out / "compare.json", dist.to_dict() | {"n": c.n}))
    files.append(write_json(out / "summary.json", metrics))
    largest = float(np.max([dist.total_l2, dist.total_sup]))
    checks = [Budget("distances-finite", largest, sys.float_info.max)]
    return files, metrics, checks, diag.notes


def _oracle_cases(seed: int) -> list[Budget]:
    """Cross-checks of the fast paths against the literal reference sums.

    Callable outside :func:`run`, so it binds every lane itself.
    """
    _bind(*_LANES)
    from . import _reference as ref
    from .chain import ChainState, chain_force_flat
    from .lattice import dft, inverse_dft, weighted_inner
    from .vlasov import _shift_lines, sigma_field
    from .waves import rhs

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xFACE]))
    cases = []

    spec = LatticeSpec(1, 4)
    f = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    fh = dft(spec, f)
    gap = float(np.max(np.abs(fh - ref.dft_direct(spec, f))))
    cases.append(Budget("transform-vs-direct-sum", gap, 1e-12))
    gap = float(np.max(np.abs(inverse_dft(spec, fh) - f)))
    cases.append(Budget("roundtrip", gap, 1e-12))
    gap = abs(complex(weighted_inner(spec, f, f)) - complex(np.sum(np.conj(fh) * fh)))
    cases.append(Budget("plancherel", gap, 1e-12))

    spec2 = LatticeSpec(1, 2)
    params2 = ModelParams(spec2, 0.3)
    # a random a(+); drawing a second row keeps the later cases' draws
    z = rng.standard_normal((2,) + spec2.shape) + 1j * rng.standard_normal((2,) + spec2.shape)
    b = z[0]
    a = ref.doubled_shifted(b, spec2)  # the oracles' layout
    got = ref.doubled_shifted(rhs(b, params2), spec2)
    want = ref.wave_rhs_direct(a, spec2, 0.3)
    cases.append(Budget("wave-rhs-vs-loop", float(np.max(np.abs(got - want))), 1e-12))

    hgot = hamiltonian(b, params2)
    hwant = ref.hamiltonian_direct(a, spec2, 0.3)
    cases.append(Budget("hamiltonian-vs-loop", float(abs(hgot - hwant)), 1e-12))

    grid = TorusGrid(1, 8)
    rule = ResonanceRule(0.4)
    fpos = rng.random(grid.shape) + 0.1
    spf = Spectrum(grid, fpos, 0.0)
    got = collision(spf, grid, rule)
    want = ref.collision_direct(fpos, grid, rule)
    cases.append(Budget("collision-vs-loop", float(np.max(np.abs(got - want))), 1e-12))

    chains = (
        (ChainGeometry(1, 16), FractionalParams(0.5)),
        (ChainGeometry(2, 5), FractionalParams(0.75)),
    )
    gap = 0.0
    for geom, fpar in chains:
        r = rng.standard_normal(geom.n_sites)
        want = ref.chain_force_pairs(r, geom, fpar)
        gap = max(gap, float(np.max(np.abs(chain_force_flat(r, geom, fpar) - want))))
    cases.append(Budget("chain-force-vs-pairs", gap, 1e-12))

    geom, fpar = ChainGeometry(1, 16), FractionalParams(0.5)
    r, vvec = rng.standard_normal((2, geom.n_sites))
    e = chain_energy(ChainState(r, vvec), geom, fpar)
    e_ref = 0.5 * float(np.sum(vvec * vvec)) + ref.chain_potential_pairs(r, geom, fpar)
    cases.append(Budget("chain-energy-vs-pairs", abs(e - e_ref), 1e-10))

    pg = PhaseGrid(8, 10, 6, 1.0, 1.0)
    gv = rng.random(pg.shape)
    got = sigma_field(gv, pg, fpar)
    want = ref.sigma_field_unfactorized(gv, pg, fpar)
    cases.append(Budget("force-field-factorization", float(np.max(np.abs(got - want))), 1e-12))

    # same arithmetic in the same order as the loop, so the gap must be exactly zero
    arr = rng.random((3, 9, 7))
    gap = 0.0
    per_axis = {1: (1, 1, 7), 2: (3, 9, 1)}  # r-like shift per v; v-like shift per line
    for axis, shape in per_axis.items():
        shifts = 4.0 * rng.standard_normal(shape)
        got = _shift_lines(arr, shifts, axis)
        want = ref.shift_lines_loop(arr, shifts, axis)
        gap = max(gap, float(np.max(np.abs(got - want))))
    cases.append(Budget("line-shift-vs-loop", gap, 0.0))

    gap = 0.0
    for geom, fpar in chains:
        r, vvec = rng.standard_normal((2, geom.n_sites))
        got = verlet_evolve(ChainState(r, vvec), geom, fpar, 0.01, 20)
        want = ref.verlet_pairs(r, vvec, geom, fpar, 0.01, 20)
        gap = max(gap, float(np.max(np.abs(np.stack([got.r, got.v]) - want))))
    cases.append(Budget("chain-verlet-vs-pairs", gap, 1e-12))

    # the long-double loop keeps float64's last digits over many steps, so this
    # gap is the closed form's own error (at most 3.7e-13 over 60 seeds on x86-64)
    gap = 0.0
    for geom, fpar in chains:
        r, vvec = rng.standard_normal((2, geom.n_sites))
        got = verlet_evolve(ChainState(r, vvec), geom, fpar, 0.05, 400)
        want = ref.verlet_longdouble(r, vvec, geom, fpar, 0.05, 400)
        gap = max(gap, float(np.max(np.abs(np.stack([got.r, got.v]) - np.stack(want)))))
    cases.append(Budget("chain-verlet-vs-longdouble", gap, 1e-12))

    return cases


def _drive_oracles(cfg: RunConfig, out: Path):
    checks = _oracle_cases(cfg.seed)
    files = [write_json(out / "oracles.json", {"cases": [b.to_dict() for b in checks]})]
    metrics = {"n_cases": len(checks), "n_failed": sum(not b.passed for b in checks)}
    return files, metrics, checks, []


# pipeline -> (driver, the lanes it reads, bound in import order: kinetic
# before waves and compare before vlasov, so neither compiles inside them)
_DRIVERS = {
    "wt-sim": (_drive_wave, ("kinetic", "waves")),
    "wt-kinetic": (_drive_kinetic, ("kinetic",)),
    "wt-compare": (_drive_wt_compare, ("kinetic", "waves", "compare")),
    "chain-sim": (_drive_chain, ("chain",)),
    "vlasov": (_drive_vlasov, ("chain", "vlasov")),
    "mf-compare": (_drive_mf_compare, ("chain", "compare", "vlasov")),
    "oracle-suite": (_drive_oracles, tuple(_LANES)),
}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run(
    cfg: RunConfig,
    out: str | Path | None = None,
    check: bool = False,
    workers: int = 1,
) -> RunManifest:
    """Execute one pipeline (or its sweep wrapper) and write the manifest.

    With ``check=True`` the per-pipeline assertions must all pass or
    :class:`CheckFailure` is raised (after the manifest is written).
    ``workers`` only threads the children of a sweep.
    """
    if cfg.sweep is not None:
        return sweep(cfg, out=out, check=check, workers=workers)
    out_dir = Path(out) if out is not None else Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(cfg, out_dir)
    driver, lanes = _DRIVERS[cfg.pipeline]
    _bind(*lanes)
    try:
        files, metrics, checks, notes = driver(cfg, out_dir)
    except NumericalBlowupError as e:
        manifest.status = "numerical-failure"
        manifest.metrics = {"error": str(e)}
        manifest.snapshot = getattr(e, "snapshot", None)
        _close(manifest, out_dir, check=False)
        raise
    manifest.metrics = metrics
    manifest.checks = checks
    manifest.notes = notes
    manifest.files = _file_entries(files, out_dir)
    return _close(manifest, out_dir, check)


def sweep(
    cfg: RunConfig,
    out: str | Path | None = None,
    check: bool = False,
    workers: int = 1,
) -> RunManifest:
    """Rerun the base pipeline along the sweep axis and grade the trend.

    Children share the base seed (common random numbers) and run on up to
    ``workers`` threads; their outputs do not depend on the thread count.
    The aggregate table carries the pipeline's headline metric per axis
    value; the verdict is ``non-increasing`` when every successive difference is
    non-positive up to a relative slack of 1e-9, ``violated`` otherwise,
    and ``partial`` when any child failed.
    """
    if cfg.sweep is None:
        raise ConfigError("sweep invoked without a sweep block", field="sweep")
    out_dir = Path(out) if out is not None else Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    metric = PIPELINE_METRIC[cfg.pipeline]
    axis, values = cfg.sweep.axis, list(cfg.sweep.values)
    manifest = _manifest(cfg, out_dir)  # started before any child runs

    def one(item):
        value, child_dir, child = item
        child_out = out_dir / child_dir
        try:
            man = run(child, out=child_out, check=False)
            return {
                "value": value,
                "dir": child_out.name,
                "status": man.status,
                "metric": man.metrics.get(metric),
                "hash": man.config_hash,
            }
        except NumericalBlowupError as e:
            return {
                "value": value,
                "dir": child_out.name,
                "status": "numerical-failure",
                "metric": None,
                "error": str(e),
            }

    results = _map_ordered(one, list(sweep_children(cfg)), workers)

    series = [r["metric"] for r in results]
    complete = Budget("sweep-complete", float(sum(x is None for x in series)), 0.0)
    partial = not complete.passed
    verdict = "partial"
    if not partial:
        ok = all(
            series[i + 1] <= series[i] * (1.0 + 1e-9) + 1e-15
            for i in range(len(series) - 1)
        )
        verdict = "non-increasing" if ok else "violated"
    rows = [
        (r["value"], "" if r["metric"] is None else r["metric"], r["status"])
        for r in results
    ]
    files = [
        write_csv(
            out_dir / "sweep.csv",
            ["value", metric, "status"],
            rows,
            comments=[f"axis {axis}; children share the base seed"],
        ),
        write_json(
            out_dir / "sweep.json",
            {
                "axis": axis,
                "values": values,
                "metric": metric,
                "results": results,
                "verdict": verdict,
            },
        ),
    ]
    manifest.status = "ok" if not partial else "partial"
    manifest.metrics = {"axis": axis, "verdict": verdict, metric: series}
    manifest.files = _file_entries(files, out_dir)
    manifest.checks = [complete]
    return _close(manifest, out_dir, check)
