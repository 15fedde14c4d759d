"""Run orchestration: pipelines, sweeps, manifests, determinism.

``run`` executes one configured pipeline into an output directory and
returns a :class:`RunManifest` listing every produced file with its
checksum.  Reruns with the same config and seed are byte-identical: seeds
are explicit, replica streams are keyed ``[seed, replica]``, reductions
are fixed-order, and wave replicas are integrated in blocks whose rows
never interact, so the block size cannot change any replica's bytes.
Worker count only schedules sweep children.  Wall-clock timestamps appear
in the manifest only, and the manifest is not part of its own file list;
a numerical failure's manifest lists the outputs finished before it.

``sweep`` reruns a base config along one numeric axis (same seed — the
children share random numbers, which is what makes trend comparisons
across the axis meaningful), aggregates each child's headline metric, and
issues a monotone-trend verdict.

A pipeline's lanes (the ``waves``, ``kinetic``, ``chain`` and ``vlasov``
solvers, and ``compare``, which holds an ensemble against its limit) are
imported when ``run`` dispatches it, so a process loads only what it runs;
``_reference`` is imported by ``oracle-suite`` alone.  ``mf-compare`` runs
its Vlasov side first and frees the density before the chain side allocates.
Every lane holds bare arrays and no clock: each driver keeps its own as its
step count times its step, never as a running sum.  The wave, kinetic and
chain lanes step between saves through one loop, :func:`_segments`, and a
failed run keeps the state of its last save, or its start when it saves
only at the end, as ``last_good`` (the kinetic lane saves every step).
"""

from __future__ import annotations

import datetime
import importlib
import sys
from dataclasses import dataclass, field, fields, replace
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
from .lattice import TorusGrid, nodes

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
        "collision",
        "energy_moment",
        "evolve",
    ),
    "chain": (
        "FractionalParams",
        "chain_energy",
        "sample_ensemble",
        "verlet_evolve",
        "verlet_stability",
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
        # field order, the snapshot last and only when one was written
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "snapshot"}
        d["checks"] = [b.to_dict() for b in self.checks]
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
    """Stamp and write the manifest; under ``check``, raise on its failed
    budgets a :class:`CheckFailure` that carries it as ``manifest``.

    A status that already names a failure (a sweep's ``partial``) is kept.
    """
    failed = [b for b in manifest.checks if not b.passed] if check else []
    if failed and manifest.status == "ok":
        manifest.status = "checks-failed"
    manifest.finished = _utcnow()
    write_json(out_dir / "manifest.json", manifest.to_dict())
    if failed:
        err = CheckFailure("; ".join(f"{b.name} {b.value:.3e} > {b.limit:.3e}" for b in failed))
        err.manifest = manifest
        raise err
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


def _integrate_ensemble(a, params, dt, n_steps, scheme, step0=0):
    """Advance replica-stacked amplitudes one replica block at a time.

    Callable outside :func:`run`, so it binds the wave lane itself.
    ``a`` itself is left untouched, so a blowup in a later block still
    leaves the segment's starting state for the last-good snapshot.
    ``step0`` is the run's step at the segment's start.  Each
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
            out[i:stop] = _integrate_array(a[i:stop], params, dt, n_steps, scheme, step0=step0)
        except NumericalBlowupError as e:
            later = f"; later blocks ({_replica_span(stop, m)}) were not stepped" if stop < m else ""
            raise NumericalBlowupError(
                f"{e.message} in the block of {_replica_span(i, stop)}{later}", step=e.step
            ) from e
    return out


def _replica_span(start: int, stop: int) -> str:
    return f"replica {start}" if stop == start + 1 else f"replicas {start}-{stop - 1}"


def _segments(state, n_steps, save_every, advance, last_good):
    """Step ``state`` through ``n_steps``, yielding ``(state, done)`` every
    ``save_every`` steps (the last segment may be short; 0 saves at the end
    only).  ``advance(state, n, done)`` steps ``n`` from the run step ``done``;
    on a blowup, ``last_good(state, done)`` writes the segment's starting
    state, and the error carries the path it returns as ``snapshot``."""
    seg_len = save_every or max(1, n_steps)
    for done in range(0, n_steps, seg_len):
        n = min(seg_len, n_steps - done)
        try:
            state = advance(state, n, done)
        except NumericalBlowupError as e:
            e.snapshot = str(last_good(state, done))
            raise
        yield state, done + n


def _wave_lane(cfg: RunConfig, params, out: Path):
    """The wave lane's ``advance`` and ``last_good``; replica 0 is the snapshot."""
    w = cfg.wave
    meta = {"lam": w.lam, "seed": cfg.seed, "d": w.d, "half_width": w.half_width}
    return (
        lambda a, n, done: _integrate_ensemble(a, params, w.dt, n, w.scheme, step0=done),
        lambda a, done: write_amplitude_snapshot(
            out / "last_good", a[0], params.grid, {"t": done * w.dt} | meta
        )[0],
    )


def _drive_wave(cfg: RunConfig, out: Path):
    w = cfg.wave
    grid = TorusGrid(w.d, 2 * w.half_width + 1)
    params = ModelParams(grid, w.lam)
    ens = EnsembleSpec(w.replicas, cfg.seed, build_profile(w.profile))
    a = sample_initial(ens, grid)
    mod0 = np.abs(a)
    h0 = hamiltonian(a, params)
    h_scale = np.where(h0 != 0.0, np.abs(h0), 1.0)  # an all-zero replica stays zero
    f = empirical_spectrum(a, grid)
    files = [write_spectrum_csv(out / "spectrum_initial.csv", f, grid, 0.0)]

    t, drift, rows = 0.0, 0.0, []
    for a, done in _segments(a, w.n_steps, w.save_every, *_wave_lane(cfg, params, out)):
        t = done * w.dt
        f = empirical_spectrum(a, grid)
        rows.append((t, float(f.sum() * grid.cell_measure), energy_moment(f, grid)))
        h = hamiltonian(a, params)
        drift = max(drift, float(np.max(np.abs(h - h0) / h_scale)))
    if rows:
        files.append(
            write_csv(
                out / "series.csv",
                ["t", "mass", "energy"],
                rows,
                comments=["ensemble spectrum moments along the run; t microscopic"],
            )
        )
    files.append(write_spectrum_csv(out / "spectrum_final.csv", f, grid, t))
    csv_p, json_p = write_amplitude_snapshot(
        out / "amplitudes_final_r0",
        a[0],
        grid,
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


def _kinetic_lane(cfg: RunConfig, grid, rule, out: Path, diag=None):
    """The kinetic lane's ``advance`` and ``last_good`` for :func:`_segments`."""
    k = cfg.kinetic
    return (
        lambda f, n, done: evolve(f, grid, rule, k.dtau, n, k.scheme, diag, step0=done),
        lambda f, done: write_spectrum_csv(out / "last_good.csv", f, grid, done * k.dtau),
    )


def _drive_kinetic(cfg: RunConfig, out: Path):
    k = cfg.kinetic
    grid = TorusGrid(k.d, k.m)
    rule = ResonanceRule(k.epsilon, k.shape, k.omega_floor)
    f = np.asarray(build_profile(k.initial)(nodes(grid)), dtype=np.float64)
    files = [write_spectrum_csv(out / "spectrum_initial.csv", f, grid, 0.0)]
    rows = [(0.0, float(f.sum() * grid.cell_measure), energy_moment(f, grid))]
    diag = CollisionDiagnostics()
    for f, done in _segments(f, k.n_steps, 1, *_kinetic_lane(cfg, grid, rule, out, diag)):
        rows.append((done * k.dtau, float(f.sum() * grid.cell_measure), energy_moment(f, grid)))
    tau = k.n_steps * k.dtau
    files.append(write_spectrum_csv(out / "spectrum_final.csv", f, grid, tau))
    files.append(
        write_csv(
            out / "series.csv",
            ["tau", "mass", "energy"],
            rows,
            comments=["kinetic moments; tau dimensionless"],
        )
    )
    rate = collision(f, grid, rule)
    stat = float(np.sum(np.abs(rate)) * grid.cell_measure)
    metrics = {
        "tau_final": tau,
        "stationarity_l1": stat,
        "clipped_mass": diag.clipped_mass,
        "clip_events": diag.clip_events,
        "energy_initial": rows[0][2],
        "energy_final": rows[-1][2],
    }
    files.append(write_json(out / "summary.json", metrics))
    checks = [
        Budget("spectrum-nonnegative", -float(f.min()), 0.0),
        Budget("clip-mass-small", diag.clipped_mass, 1e-6),
    ]
    return files, metrics, checks, []


def _drive_wt_compare(cfg: RunConfig, out: Path):
    w, k, c = cfg.wave, cfg.kinetic, cfg.compare
    micro_grid = TorusGrid(w.d, 2 * w.half_width + 1)  # the lattice and its spectrum's grid
    params = ModelParams(micro_grid, w.lam)
    t_final = c.tau_final / w.lam**2
    n_steps = max(1, round(t_final / w.dt))
    ens = EnsembleSpec(w.replicas, cfg.seed, build_profile(w.profile))
    a = sample_initial(ens, micro_grid)
    micro0 = empirical_spectrum(a, micro_grid)
    for a, _ in _segments(a, n_steps, 0, *_wave_lane(cfg, params, out)):
        micro = empirical_spectrum(a, micro_grid)
    tau_micro = w.lam**2 * (n_steps * w.dt)  # report on the slow clock
    del a  # the kinetic side need not keep the ensemble alive
    # the finished wave side is written first, so a kinetic failure keeps it
    files = [
        write_spectrum_csv(out / "micro_initial.csv", micro0, micro_grid, 0.0),
        write_spectrum_csv(out / "micro_final.csv", micro, micro_grid, tau_micro),
    ]

    grid = TorusGrid(k.d, k.m)
    rule = ResonanceRule(k.epsilon, k.shape, k.omega_floor)
    # both sides must leave from the same curve, so the wave profile seeds
    # the kinetic run too (parse_config rejects a kinetic.initial here)
    kin0 = np.asarray(build_profile(w.profile)(nodes(grid)), dtype=np.float64)
    n_tau = max(1, round(c.tau_final / k.dtau))
    try:
        for kin, done in _segments(kin0, n_tau, 1, *_kinetic_lane(cfg, grid, rule, out)):
            tau_kin = done * k.dtau
    except NumericalBlowupError as e:
        e.files = files
        raise

    dist = compare_spectra(micro, micro_grid, kin, grid, tau_kin)
    dist0 = compare_spectra(micro0, micro_grid, kin0, grid, 0.0)
    # each side rounds its own step count, so the two slow times can differ
    notes = []
    if abs(tau_micro - tau_kin) > TIME_TOL:
        notes.append(
            f"the spectra are compared at different slow times: "
            f"tau_micro {tau_micro:.6g}, tau_kinetic {tau_kin:.6g}"
        )
    files += [
        write_spectrum_csv(out / "kinetic_initial.csv", kin0, grid, 0.0),
        write_spectrum_csv(out / "kinetic_final.csv", kin, grid, tau_kin),
    ]
    metrics = {
        "lam": w.lam,
        "tau_final": c.tau_final,
        "micro_steps": n_steps,
        "tau_micro": tau_micro,
        "tau_kinetic": tau_kin,
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


def _chain_lane(cfg: RunConfig, geom, fp, out: Path):
    """The chain lane's ``advance`` and ``last_good`` on ``(r, v)``; replica 0
    is the snapshot.  An unstable dt fails before the first step, so the state
    a failed segment was given is its last good one."""
    c = cfg.chain
    return (
        lambda rv, n, done: verlet_evolve(*rv, geom, fp, c.dt, n),
        lambda rv, done: write_chain_snapshot_csv(
            out / "last_good.csv", nodes(geom).reshape(-1, geom.d), rv[0][0], rv[1][0], done * c.dt
        ),
    )


def _drive_chain(cfg: RunConfig, out: Path):
    c = cfg.chain
    geom = TorusGrid(c.d, c.n)
    fp = FractionalParams(c.alpha)
    r, v = sample_ensemble(build_law(c.law), geom, c.replicas, cfg.seed)
    e0, p0 = chain_energy(r, v, geom, fp), v.sum(axis=-1)  # per replica
    rows = [(0.0, float(np.mean(e0)), float(np.mean(p0)))]
    emax, pmax = 0.0, 0.0
    lane = _chain_lane(cfg, geom, fp, out)
    for (r, v), done in _segments((r, v), c.n_steps, c.save_every, *lane):
        e, p = chain_energy(r, v, geom, fp), v.sum(axis=-1)
        emax = max(emax, float(np.max(np.abs(e - e0) / np.maximum(np.abs(e0), 1e-300))))
        pmax = max(pmax, float(np.max(np.abs(p - p0))))
        rows.append((done * c.dt, float(np.mean(e)), float(np.mean(p))))
    t = c.n_steps * c.dt  # the run's clock, not a sum of segment lengths
    files = [
        write_csv(
            out / "series.csv",
            ["t", "energy_mean", "momentum_mean"],
            rows,
            comments=["replica-averaged invariants; t in chain units"],
        ),
        write_chain_snapshot_csv(
            out / "snapshot_final_r0.csv", nodes(geom).reshape(-1, geom.d), r[0], v[0], t
        ),
    ]
    metrics = {"t_final": t, "energy_drift_rel": emax, "momentum_drift": pmax, "replicas": c.replicas}
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
    g = density_from_law(build_law(v.law), grid)
    b0, j0 = write_phase_density(out / "density_initial", g, grid, 0.0, v.alpha)
    # the initial density is written out, so the run steps its array in place
    g, diag = vlasov_evolve(g, grid, fp, v.dt, v.n_steps, out=g)
    t = v.n_steps * v.dt
    b1, j1 = write_phase_density(out / "density_final", g, grid, t, v.alpha)
    mom = cell_moments_of_density(g, grid)
    files = [
        b0,
        j0,
        b1,
        j1,
        write_moments_csv(out / "moments_final.csv", x_centers(grid), mom),
    ]
    drift = abs(diag.mass_final - diag.mass_initial) / max(diag.mass_initial, 1e-300)
    metrics = {
        "t_final": t,
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
        Budget("density-nonnegative", -float(g.min()), 0.0),
        Budget("mass-conserved", per100, 1e-8),
    ]
    return files, metrics, checks, diag.notes


def _paired_laws(cfg: RunConfig, grid: PhaseGrid):
    """Chain law plus its PDE twin; a degenerate r-width is grid-resolved."""
    c = cfg.chain
    law_chain = build_law(c.law)  # a GaussianLaw: parse_config checked the kind
    sigma_pde = max(float(law_chain.sigma_r), 2.0 * grid.dr)
    law_pde = build_law(replace(c.law, params=c.law.params | {"sigma_r": sigma_pde}))
    return law_chain, law_pde, sigma_pde


def _drive_mf_compare(cfg: RunConfig, out: Path):
    c, vc = cfg.chain, cfg.vlasov
    geom = TorusGrid(c.d, c.n)
    fp = FractionalParams(c.alpha)
    grid = PhaseGrid(vc.mx, vc.mr, vc.mv, vc.r_max, vc.v_max)
    n_chain, n_pde = mf_steps(c, vc, cfg.compare.t_final)
    law_chain, law_pde, sigma_pde = _paired_laws(cfg, grid)
    advance, last_good = _chain_lane(cfg, geom, fp, out)
    try:  # an unstable dt fails here, before the density is built
        verlet_stability(geom, fp, c.dt)
    except NumericalBlowupError as e:  # the sampled state is the last good one
        e.snapshot = str(last_good(sample_ensemble(law_chain, geom, c.replicas, cfg.seed), 0))
        raise
    # the PDE side runs first and drops its density before the chain side allocates
    g = density_from_law(law_pde, grid)
    theirs0 = cell_moments_of_density(g, grid)
    # g is done with at t = 0, so the run steps its array in place
    g, diag = vlasov_evolve(g, grid, fp, vc.dt, n_pde, out=g)
    theirs = cell_moments_of_density(g, grid)
    del g
    r, v = sample_ensemble(law_chain, geom, c.replicas, cfg.seed)
    # the t=0 distance is the ensemble's sampling floor
    dist0 = meanfield_distance(theirs0, grid, 0.0, r, v, geom, 0.0)
    for (r, v), done in _segments((r, v), n_chain, 0, advance, last_good):
        t = done * c.dt
    # the two clocks agree to round-off; stamp them equal for the comparison
    dist = meanfield_distance(theirs, grid, t, r, v, geom, t)
    files = [
        write_moments_csv(out / "moments_pde.csv", x_centers(grid), dist.theirs),
        write_moments_csv(out / "moments_ensemble.csv", x_centers(grid), dist.ours),
    ]
    metrics = {
        "t_final": t,
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
    from .chain import chain_force_flat
    from .lattice import dft, inverse_dft, weighted_inner
    from .rng import Stream, normals, uniforms
    from .vlasov import _shift_lines, sigma_field
    from .waves import rhs

    rng = Stream(seed, 0xFACE)
    cases = []

    lat = TorusGrid(1, 9)
    f = rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape)
    fh = dft(lat, f)
    gap = float(np.max(np.abs(fh - ref.dft_direct(lat, f))))
    cases.append(Budget("transform-vs-direct-sum", gap, 1e-12))
    gap = float(np.max(np.abs(inverse_dft(lat, fh) - f)))
    cases.append(Budget("roundtrip", gap, 1e-12))
    gap = abs(complex(weighted_inner(lat, f, f)) - complex(np.sum(np.conj(fh) * fh)))
    cases.append(Budget("plancherel", gap, 1e-12))

    lat2 = TorusGrid(1, 5)
    params2 = ModelParams(lat2, 0.3)
    # a random a(+); drawing a second row keeps the later cases' draws
    z = rng.standard_normal((2,) + lat2.shape) + 1j * rng.standard_normal((2,) + lat2.shape)
    b = z[0]
    a = ref.doubled_shifted(b, lat2)  # the oracles' layout
    got = ref.doubled_shifted(rhs(b, params2), lat2)
    want = ref.wave_rhs_direct(a, lat2, 0.3)
    cases.append(Budget("wave-rhs-vs-loop", float(np.max(np.abs(got - want))), 1e-12))

    hgot = hamiltonian(b, params2)
    hwant = ref.hamiltonian_direct(a, lat2, 0.3)
    cases.append(Budget("hamiltonian-vs-loop", float(abs(hgot - hwant)), 1e-12))

    grid = TorusGrid(1, 8)
    rule = ResonanceRule(0.4)
    fpos = rng.random(grid.shape) + 0.1
    got = collision(fpos, grid, rule)
    want = ref.collision_direct(fpos, grid, rule)
    cases.append(Budget("collision-vs-loop", float(np.max(np.abs(got - want))), 1e-12))

    chains = (
        (TorusGrid(1, 16), FractionalParams(0.5)),
        (TorusGrid(2, 5), FractionalParams(0.75)),
    )
    gap = 0.0
    for geom, fpar in chains:
        r = rng.standard_normal((geom.n_nodes,))
        want = ref.chain_force_pairs(r, geom, fpar)
        gap = max(gap, float(np.max(np.abs(chain_force_flat(r, geom, fpar) - want))))
    cases.append(Budget("chain-force-vs-pairs", gap, 1e-12))

    geom, fpar = TorusGrid(1, 16), FractionalParams(0.5)
    r, vvec = rng.standard_normal((2, geom.n_nodes))
    e = float(chain_energy(r, vvec, geom, fpar))
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
        r, vvec = rng.standard_normal((2, geom.n_nodes))
        got = verlet_evolve(r, vvec, geom, fpar, 0.01, 20)
        want = ref.verlet_pairs(r, vvec, geom, fpar, 0.01, 20)
        gap = max(gap, float(np.max(np.abs(np.stack(got) - want))))
    cases.append(Budget("chain-verlet-vs-pairs", gap, 1e-12))

    # the long-double loop keeps float64's last digits over many steps, so this
    # gap is the closed form's own error (at most 3.7e-13 over 60 seeds on x86-64)
    gap = 0.0
    for geom, fpar in chains:
        r, vvec = rng.standard_normal((2, geom.n_nodes))
        got = verlet_evolve(r, vvec, geom, fpar, 0.05, 400)
        want = ref.verlet_longdouble(r, vvec, geom, fpar, 0.05, 400)
        gap = max(gap, float(np.max(np.abs(np.stack(got) - np.stack(want)))))
    cases.append(Budget("chain-verlet-vs-longdouble", gap, 1e-12))

    want = [ref.pcg64_uniforms_loop(seed, i, 40) for i in (0, 2**16 + 1)]
    gap = float(np.max(np.abs(uniforms(seed, (0, 2**16 + 1), (40,)) - want)))
    cases.append(Budget("wave-sampler-vs-loop", gap, 0.0))

    # at seeds 0-7, 400 normals of each stream take 4-11 wedge slow paths
    want = [ref.ziggurat_normals_loop(seed, i, 400) for i in (0, 2**16 + 1)]
    gap = float(np.max(np.abs(normals(seed, (0, 2**16 + 1), (2, 200)).reshape(2, -1) - want)))
    cases.append(Budget("chain-sampler-vs-loop", gap, 0.0))

    return cases


def _drive_oracles(cfg: RunConfig, out: Path):
    checks = _oracle_cases(cfg.seed)
    files = [write_json(out / "oracles.json", {"cases": [b.to_dict() for b in checks]})]
    metrics = {"n_cases": len(checks), "n_failed": sum(not b.passed for b in checks)}
    return files, metrics, checks, []


# pipeline -> (driver, the lanes it reads, bound in import order: compare
# before vlasov, so it does not compile inside it)
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
        manifest.files = _file_entries(getattr(e, "files", ()), out_dir)
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
    and ``partial`` when any child failed.  Each child is held to its own
    budgets as a lone run is, and the sweep's checks list every budget a
    child failed under ``<child dir>/<budget>``, so ``check`` fails the
    sweep on them too.
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
        row = {"value": value, "dir": child_out.name}
        try:
            man = run(child, out=child_out, check=check)
        except CheckFailure as e:
            man = e.manifest
        except NumericalBlowupError as e:
            return row | {"status": "numerical-failure", "metric": None, "error": str(e)}, []
        failed = [replace(b, name=f"{row['dir']}/{b.name}") for b in man.checks if not b.passed]
        row |= {"status": man.status, "metric": man.metrics.get(metric), "hash": man.config_hash}
        return row, failed

    results, failed = zip(*_map_ordered(one, list(sweep_children(cfg)), workers))

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
    manifest.checks = [complete, *(b for child in failed for b in child)]
    return _close(manifest, out_dir, check)
