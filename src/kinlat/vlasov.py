"""Mean-field transport equation with a fractional-Laplacian force field.

Solves, for a phase density ``g(t, x, r, v)`` with ``x`` on the unit torus
and ``(r, v)`` on a truncated window,

    dg/dt + v dg/dr + C^-1 Sigma_g dg/dv = 0,
    Sigma_g(x, r) = r * Lrho(x) - Lm(x),

where ``L`` is the spectral fractional Laplacian ``(-Dx)^a`` (Fourier
multiplier ``|2 pi k|^(2a)``), ``rho`` and ``m`` are the zeroth and first
r-moments of ``g``, and ``C`` is the Gamma-function normalization carried
by :class:`~kinlat.chain.FractionalParams`.  The force is affine in ``r``
and acts through ``x`` only, which is why the moment factorization is
exact and cheap.

All three grid axes are cell-centered; masses are midpoint quadratures.
Time stepping is Strang-split semi-Lagrangian: each sub-flow shifts whole
grid lines by a constant displacement (the advecting speed is an exact
invariant of its own sweep), so the only time-discretization error is the
splitting itself.  Interpolation is linear: it keeps ``g >= 0`` exactly,
never amplifies the maximum, and conserves mass away from the edges.  The
(r, v) window has zero inflow; mass that reaches the edge leaves and is
monitored, and :func:`vlasov_evolve` reports it in
:attr:`VlasovDiagnostics.notes`.

A sweep reads the density from a copy padded with zeros along the shifted
axis, one ``np.take`` per bracketing cell at flat offsets clipped into the
padding, so reads from outside the window are zeros without a mask (see
:class:`_LineShift`).  Each sub-flow runs one x-slab at a time: a few whole
x-planes, ``SLAB_BYTES`` (256 KiB, 2 planes at 128 x 128) of density, which
stay in cache while they are swept, and the padded buffers, scratch and
tables are slab-sized.  Every line a sweep shifts lies inside one x-plane
and the moments are per-x sums, so the slab size cannot change a bit.  The
r-sweep table depends only on (r, v) and ``dt`` and is built once per
:func:`vlasov_evolve`.  The literal per-line loop
:func:`kinlat._reference.shift_lines_loop` is the oracle; the sweeps match
it bit for bit.

A run holds one working density: the first step writes it from the
caller's density, and every later step overwrites it in place.  The
caller's density is left alone unless the caller hands its array over as
``out``; the run then holds that one density and no other.
:func:`density_from_law` fills its array, :func:`cell_moments_of_density`
sums it and :class:`PhaseDensity` validates it, one slab at a time, so
none of them makes a full-size temporary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .chain import ChainEnsemble, ChainGeometry, FractionalParams, site_coordinates
from .errors import SizeMismatchError

__all__ = [
    "PhaseGrid",
    "PhaseDensity",
    "x_centers",
    "r_centers",
    "v_centers",
    "Moments",
    "frac_laplacian_torus",
    "moments",
    "sigma_field",
    "acceleration",
    "vlasov_evolve",
    "VlasovDiagnostics",
    "density_from_law",
    "BOUNDARY_TOL",
    "boundary_mass",
    "cell_moments_of_density",
    "cell_moments_of_ensemble",
    "MeanfieldDistance",
    "meanfield_distance",
    "OBSERVABLES",
]


@dataclass(frozen=True)
class PhaseGrid:
    """Cell-centered (x, r, v) grid: x periodic on [0,1), r and v truncated."""

    mx: int
    mr: int
    mv: int
    r_max: float
    v_max: float

    def __post_init__(self):
        if self.mx < 1 or self.mr < 2 or self.mv < 2:
            raise ValueError(
                f"grid needs mx >= 1, mr >= 2, mv >= 2, got {self.mx}, {self.mr}, {self.mv}"
            )
        if self.r_max <= 0.0 or self.v_max <= 0.0:
            raise ValueError("truncation half-widths must be positive")

    @property
    def dx(self) -> float:
        return 1.0 / self.mx

    @property
    def dr(self) -> float:
        return 2.0 * self.r_max / self.mr

    @property
    def dv(self) -> float:
        return 2.0 * self.v_max / self.mv

    @property
    def cell_volume(self) -> float:
        return self.dx * self.dr * self.dv

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.mx, self.mr, self.mv)


@lru_cache(maxsize=64)
def _centers(m: int, half_width: float, periodic: bool) -> np.ndarray:
    if periodic:
        out = (np.arange(m) + 0.5) / m
    else:
        step = 2.0 * half_width / m
        out = -half_width + (np.arange(m) + 0.5) * step
    out.setflags(write=False)
    return out


def x_centers(grid: PhaseGrid) -> np.ndarray:
    """Cell centers of the periodic x axis, read-only."""
    return _centers(grid.mx, 0.0, True)


def r_centers(grid: PhaseGrid) -> np.ndarray:
    """Cell centers of the r window ``[-r_max, r_max]``, read-only."""
    return _centers(grid.mr, grid.r_max, False)


def v_centers(grid: PhaseGrid) -> np.ndarray:
    """Cell centers of the v window ``[-v_max, v_max]``, read-only."""
    return _centers(grid.mv, grid.v_max, False)


@dataclass
class PhaseDensity:
    """Nonnegative density values on a :class:`PhaseGrid` at time ``t``."""

    grid: PhaseGrid
    g: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=np.float64)
        if self.g.shape != self.grid.shape:
            raise SizeMismatchError(
                f"density shape {self.g.shape}, grid wants {self.grid.shape}"
            )
        # one slab at a time, so no whole-grid temporary; every slab passes
        # the finiteness check before any is checked for sign, so a bad
        # density raises the same error whatever slab holds the fault
        slabs = _slabs(self.grid)
        if not all(np.isfinite(self.g[x]).all() for x in slabs):
            raise ValueError("density must be finite")
        if any((self.g[x] < 0.0).any() for x in slabs):
            raise ValueError("density must be nonnegative")

    def mass(self) -> float:
        return float(self.g.sum() * self.grid.cell_volume)


# byte budget of one x-slab: the Strang sub-flows and the moment sums work a
# few whole x-planes at a time, which stay in cache (2 planes at 128 x 128);
# every swept line and every moment sum lies inside one x-plane, so the slab
# size cannot change results
SLAB_BYTES = 256 * 1024


def _slabs(grid: PhaseGrid) -> list[slice]:
    """The x-slabs of ``grid`` in order: ``SLAB_BYTES`` of whole planes each
    (at least one), the last one short when the planes do not divide ``mx``."""
    n = max(1, SLAB_BYTES // (grid.mr * grid.mv * 8))
    return [slice(a, min(a + n, grid.mx)) for a in range(0, grid.mx, n)]


@dataclass
class Moments:
    """Per-x-node r-marginal quadratures: ``rho = int g``, ``m = int r g``."""

    rho: np.ndarray
    m: np.ndarray


def moments(g: np.ndarray, grid: PhaseGrid) -> Moments:
    """Midpoint quadrature of the density array ``g`` over the (r, v) window
    at every x node of ``grid``."""
    if g.shape != grid.shape:
        raise SizeMismatchError(f"density shape {g.shape}, grid wants {grid.shape}")
    w = grid.dr * grid.dv
    r = r_centers(grid)[None, :, None]
    rho, m = np.empty(grid.mx), np.empty(grid.mx)
    # per-x sums, so summing a slab of planes at a time leaves every bit alone
    for x in _slabs(grid):
        rho[x] = g[x].sum(axis=(1, 2))
        m[x] = (r * g[x]).sum(axis=(1, 2))
    return Moments(rho * w, m * w)


def frac_laplacian_torus(field: np.ndarray, alpha: float, d: int = 1) -> np.ndarray:
    """Spectral ``(-Dx)^a`` on the torus: multiplier ``|2 pi k|^(2a)``.

    The trailing ``d`` axes are the periodic grid; leading axes ride along.
    Annihilates constants; plane waves are eigenfunctions.  Real input
    gives real output.
    """
    field = np.asarray(field)
    if field.ndim < d:
        raise SizeMismatchError(f"field with {field.ndim} axes cannot hold {d} grid axes")
    gax = tuple(range(field.ndim - d, field.ndim))
    k2 = np.zeros(field.shape[-d:])
    for c, ax in enumerate(gax):
        m = field.shape[ax]
        kc = np.fft.fftfreq(m) * m
        shp = [1] * d
        shp[c] = m
        k2 = k2 + kc.reshape(shp) ** 2
    mult = (2.0 * np.pi) ** (2.0 * alpha) * k2 ** alpha
    out = np.fft.ifftn(mult * np.fft.fftn(field, axes=gax), axes=gax)
    return np.real(out) if np.isrealobj(field) else out


def sigma_field(g: np.ndarray, grid: PhaseGrid, fp: FractionalParams) -> np.ndarray:
    """Force field over (x, r) of the density array ``g`` on ``grid``:
    ``r * L rho - L m``, exact moment split.

    Identically zero when ``g`` does not depend on x.
    """
    mom = moments(g, grid)
    lrho = frac_laplacian_torus(mom.rho, fp.alpha, 1)
    lm = frac_laplacian_torus(mom.m, fp.alpha, 1)
    return r_centers(grid)[None, :] * lrho[:, None] - lm[:, None]


def acceleration(g: np.ndarray, grid: PhaseGrid, fp: FractionalParams) -> np.ndarray:
    """Characteristic speed in v: ``C^-1 Sigma_g``, shape (mx, mr)."""
    return sigma_field(g, grid, fp) / fp.c_d_alpha


# ---------------------------------------------------------------------------
# semi-Lagrangian line shifts
# ---------------------------------------------------------------------------

# zero cells padding each end of a shifted axis: a read clipped into the
# padding covers both bracketing cells
_PAD = 2


def _scratch(shape: tuple[int, ...]) -> np.ndarray:
    """Float workspace for :class:`_LineShift`; sweeps that run in turn can share one."""
    return np.empty(math.prod(shape))


class _LineShift:
    """Displace the lines along ``axis`` by constant shifts (one per line), zero inflow.

    Output at cell p of a line reads the input at position q = p - s and
    weighs the bracketing cells ``floor(q)`` and ``floor(q) + 1`` linearly.
    The input is written into ``inside``, the middle of a buffer padded with
    :data:`_PAD` zero cells at both ends of ``axis``, and the first
    bracketing index is clipped into that padding.  A pair that starts
    outside the line then reads nothing but zeros, and one that straddles an
    edge reads a zero for its cell beyond it, so no mask is needed: each
    bracketing cell is one ``np.take`` at precomputed flat offsets.  Without
    ``per_line`` the shifts may vary along and after ``axis`` only (the
    r-sweep, whose shift depends on v), and one table serves every index
    before ``axis``, with the offsets of both bracketing cells built by
    :meth:`set_shifts`; with it the table has a row per line (the v-sweep,
    whose shift depends on x and r), and the second cell is read through a
    one-cell offset view of the buffer.  The ``scratch`` may be longer than
    the array, so sweeps of smaller shapes can share one.

    The weights are a convex combination, so mass along interior lines,
    positivity, and the maximum are all preserved exactly.
    """

    def __init__(self, shape: tuple[int, ...], axis: int, per_line: bool, scratch: np.ndarray):
        self.shape = tuple(shape)
        self.size = math.prod(shape)
        self.per_line = per_line
        self.scratch = scratch
        self.rows = math.prod(shape[:axis])
        self.n = shape[axis]
        self.inner = math.prod(shape[axis + 1 :])
        padded = list(shape)
        padded[axis] += 2 * _PAD
        self.pad = np.zeros(padded)
        self.inside = self.pad[(slice(None),) * axis + (slice(_PAD, -_PAD),)]
        table = self.shape if per_line else (1,) * axis + self.shape[axis:]
        trailing = (1,) * (len(shape) - axis - 1)
        self.positions = np.arange(self.n, dtype=np.float64).reshape((self.n,) + trailing)
        self.th = np.empty(table)
        self.first = np.empty(table, dtype=np.int64)
        # flat offset of each line's first padded cell: within one of the
        # ``rows`` blocks of the padded array, or within all of it per line
        self.base = np.arange(self.inner).reshape(self.shape[axis + 1 :])
        if per_line:
            row = np.arange(self.rows).reshape(self.shape[:axis] + (1,) + trailing)
            self.base = self.base + row * ((self.n + 2 * _PAD) * self.inner)

    def set_shifts(self, shifts: np.ndarray) -> "_LineShift":
        """Fill the weights and read offsets for ``shifts`` cells."""
        th = np.subtract(self.positions, shifts, out=self.th)
        i0 = np.floor(th, out=self.scratch[: th.size].reshape(th.shape))
        th -= i0
        first = self.first
        np.copyto(first, i0, casting="unsafe")
        np.add(first, _PAD, out=first)
        np.clip(first, 0, self.n + _PAD, out=first)
        if self.inner > 1:
            first *= self.inner
        first += self.base
        if not self.per_line:
            flat = first.reshape(-1)
            self.reads = (flat, flat + self.inner)
        return self

    def _read(self, k: int) -> np.ndarray:
        """Bracketing cell ``k`` (0 or 1) of every output cell, into the scratch."""
        out = self.scratch[: self.size].reshape(self.shape)
        # the offsets are in range by construction; mode="clip" lets take
        # write straight into ``out`` instead of through a temporary
        if self.per_line:
            np.take(self.pad.reshape(-1)[k * self.inner :], self.first, out=out, mode="clip")
        else:
            rows = (self.rows, -1)
            np.take(
                self.pad.reshape(rows), self.reads[k], axis=1, out=out.reshape(rows), mode="clip"
            )
        return out

    def __call__(self, out: np.ndarray) -> np.ndarray:
        """Shift the lines held in ``inside`` into ``out``."""
        th = self.th
        f0 = self._read(0)
        np.multiply(np.subtract(1.0, th, out=out), f0, out=out)
        f1 = self._read(1)
        return np.add(out, np.multiply(th, f1, out=f1), out=out)


def _shift_lines(arr: np.ndarray, shifts: np.ndarray, axis: int) -> np.ndarray:
    """One :class:`_LineShift` of ``arr`` into a new array (the oracle checks use this)."""
    per_line = any(d > 1 for d in np.shape(shifts)[:axis])
    sweep = _LineShift(arr.shape, axis, per_line, _scratch(arr.shape))
    sweep.inside[...] = arr
    return sweep.set_shifts(shifts)(np.empty(arr.shape))


class _Strang:
    """Strang steps of one grid and time step, one x-slab at a time.

    Each sub-flow works through the density in the slabs of :func:`_slabs`,
    so a slab is swept while it is still in cache, and the padded buffers,
    the scratch and the tables are slab-sized: their bytes do not grow with
    ``mx``.  Every line a sweep shifts lies inside one x-plane, so the
    slabs change no bit.  The r-sweep table depends only on (r, v) and
    ``dt``, so it is built once and serves every slab; the v-sweep table is
    refilled from each slab's rows of the acceleration.  A short last slab
    has its own pair of sweeps.  A step writes into the array it is given
    as ``out``, which may be its input, or into a new one.  Steps take and
    return bare arrays and validate none of them.
    """

    def __init__(self, grid: PhaseGrid, dt: float):
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError(f"dt must be finite and positive, got {dt!r}")
        self.grid, self.dt = grid, dt
        slabs = _slabs(grid)
        scratch = _scratch((slabs[0].stop, grid.mr, grid.mv))
        s_r = (v_centers(grid) * (0.5 * dt) / grid.dr).reshape(1, 1, grid.mv)
        sweeps = {}  # (r-sweep, v-sweep) per slab thickness
        self.slabs = []
        for x in slabs:
            shape = (x.stop - x.start, grid.mr, grid.mv)
            if shape not in sweeps:
                r_sweep = _LineShift(shape, 1, False, scratch).set_shifts(s_r)
                sweeps[shape] = (r_sweep, _LineShift(shape, 2, True, scratch))
            self.slabs.append((x, *sweeps[shape]))

    def step(
        self, g: np.ndarray, fp: FractionalParams, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One step from the density array ``g`` into ``out`` (a new array
        when it is None), and the v-speed field (``acceleration``) it
        applied: r-transport dt/2, v-transport dt, r-transport dt/2.

        ``out`` may be ``g`` itself: each slab of ``g`` is copied into the
        padded buffer before its rows of ``out`` are written, and no sweep
        reads rows of another slab.

        The v-sweep's speed field depends on g only through its r-moments,
        which the sweep itself leaves invariant, so freezing it over the
        full step commits no extra time error; likewise the r-sweep's speed
        is the v coordinate itself.  The field needs the whole half-step
        density, so the first r-sweep finishes every slab before it is
        computed; the v-sweep and the closing r-sweep then run slab by slab.
        """
        grid, dt = self.grid, self.dt
        # ``out`` holds the half-step density first, then the result
        if out is None:
            out = np.empty(grid.shape)
        for x, r_sweep, _ in self.slabs:
            r_sweep.inside[...] = g[x]
            r_sweep(out[x])
        accel = acceleration(out, grid, fp)
        s_v = (accel * dt / grid.dv)[:, :, None]
        for x, r_sweep, v_sweep in self.slabs:
            v_sweep.inside[...] = out[x]
            v_sweep.set_shifts(s_v[x])(r_sweep.inside)
            r_sweep(out[x])
        return out, accel


# edge mass above which a run notes that its support reached the window edge
BOUNDARY_TOL = 1e-12


@lru_cache(maxsize=16)
def _edge_cells(shape: tuple[int, int, int]) -> np.ndarray:
    """Flat indices, in C order, of the cells in the outermost r/v shells, read-only."""
    edge = np.zeros(shape, dtype=bool)
    edge[:, 0, :] = edge[:, -1, :] = True
    edge[:, :, 0] = edge[:, :, -1] = True
    out = np.flatnonzero(edge)
    out.setflags(write=False)
    return out


def boundary_mass(g: np.ndarray, grid: PhaseGrid) -> float:
    """Mass of the density array ``g`` in the outermost r/v cell shells of
    ``grid`` (truncation monitor)."""
    return float(g.reshape(-1)[_edge_cells(grid.shape)].sum() * grid.cell_volume)


@dataclass
class VlasovDiagnostics:
    """Bookkeeping from an evolve call; ``escaped_mass`` is initial - final.

    ``cfl_r`` and ``cfl_v`` are the largest per-step line displacements in
    cells; ``cfl_v`` is taken from the v-speed field each step applied.
    ``notes`` holds the run's advisories as text, the only place they are
    reported.
    """

    n_steps: int
    mass_initial: float
    mass_final: float
    boundary_mass_max: float
    cfl_r: float
    cfl_v: float
    notes: list[str] = field(default_factory=list)

    @property
    def escaped_mass(self) -> float:
        return self.mass_initial - self.mass_final


def vlasov_evolve(
    g: PhaseDensity,
    fp: FractionalParams,
    dt: float,
    n_steps: int,
    *,
    cfl_fraction: float | None = None,
    callback: Callable[[int, PhaseDensity], None] | None = None,
    out: np.ndarray | None = None,
) -> tuple[PhaseDensity, VlasovDiagnostics]:
    """Run ``n_steps`` Strang steps with advisory monitoring.

    The advisories go to the diagnostics' ``notes``, at most one each:
    support whose edge mass exceeds ``BOUNDARY_TOL``, and, if
    ``cfl_fraction`` is set, a sub-sweep that displaces lines by more than
    that many cells per step (the scheme stays stable regardless; the bound
    is an accuracy budget).  Of the densities each step ends with, only
    those passed to ``callback`` and the result are validated.  ``dt`` must
    be finite and positive; it is checked before any work.

    The run holds one working density array: the first step writes it from
    ``g``, and every later step overwrites it in place.  That array is
    ``out`` when it is given, which may be ``g.g`` itself (a run that no
    longer needs ``g`` then holds one density in all); without ``out`` it
    is a new array and ``g`` is left alone.  Without a callback the result
    wraps the working array; a callback gets a copy of each step's density,
    and the result is the last one it got.  With no steps the result is
    ``g``.
    """
    grid, arr, t = g.grid, g.g, g.t
    if out is not None and out.shape != grid.shape:
        raise SizeMismatchError(f"out has shape {out.shape}, grid wants {grid.shape}")
    strang = _Strang(grid, dt)
    mass0 = g.mass()
    bmax = boundary_mass(arr, grid)
    cfl_r = grid.v_max * dt / grid.dr if n_steps > 0 else 0.0
    cfl_v = 0.0
    notes: list[str] = []
    for i in range(n_steps):
        # step 0 writes the working array (a new one without ``out``);
        # later steps overwrite it
        arr, accel = strang.step(arr, fp, out=arr if i else out)
        t += dt
        cfl_v = max(cfl_v, float(np.max(np.abs(accel))) * dt / grid.dv)
        bmax = max(bmax, boundary_mass(arr, grid))
        if callback is not None:
            g = PhaseDensity(grid, arr.copy(), t)
            callback(i, g)
    if n_steps > 0 and callback is None:  # with a callback, g is already the last step
        g = PhaseDensity(grid, arr, t)
    if bmax > BOUNDARY_TOL:
        note = (
            f"support reached the (r, v) truncation boundary: peak edge mass {bmax:.3e}, "
            f"escaped mass estimate {mass0 - g.mass():.3e}"
        )
        notes.append(note)
    if cfl_fraction is not None and max(cfl_r, cfl_v) > cfl_fraction:
        note = (
            f"per-step line displacement up to {max(cfl_r, cfl_v):.2f} cells exceeds "
            f"the configured budget {cfl_fraction:.2f}"
        )
        notes.append(note)
    return g, VlasovDiagnostics(n_steps, mass0, g.mass(), bmax, cfl_r, cfl_v, notes)


# ---------------------------------------------------------------------------
# initialization and chain-ensemble comparison
# ---------------------------------------------------------------------------


def density_from_law(law, grid: PhaseGrid, t: float = 0.0) -> PhaseDensity:
    """Materialize a sampling law's density on the grid (midpoint values).

    The law must expose ``density(x, r, v)`` (degenerate laws do not).  No
    renormalization is applied; the midpoint mass approaches 1 as the grid
    refines and the window widens.  The law is evaluated one x-slab at a
    time into a single array, so its temporaries are slab-sized.
    """
    x = x_centers(grid).reshape(grid.mx, 1)
    r, v = r_centers(grid)[:, None], v_centers(grid)[None, :]
    vals = np.empty(grid.shape)
    # the values are pointwise in x, so a slab at a time leaves every bit alone
    for s in _slabs(grid):
        vals[s] = law.density(x[s], r, v)
    return PhaseDensity(grid, vals, t)


OBSERVABLES = ("r", "v", "r2", "v2", "rv")


def _observable(name: str, r, v):
    if name == "r":
        return r
    if name == "v":
        return v
    if name == "r2":
        return r * r
    if name == "v2":
        return v * v
    if name == "rv":
        return r * v
    raise ValueError(f"unknown observable {name!r}")


def cell_moments_of_density(g: PhaseDensity) -> dict[str, np.ndarray]:
    """Conditional phase-space means per x node, ``E[phi | x]``."""
    r = r_centers(g.grid)[:, None]
    v = v_centers(g.grid)[None, :]
    denom = g.g.sum(axis=(1, 2))
    if np.any(denom <= 0.0):
        raise ValueError("conditional moments undefined at zero-mass x nodes")
    phis = {name: _observable(name, r, v)[None, :, :] for name in OBSERVABLES}
    out = {name: np.empty(g.grid.mx) for name in OBSERVABLES}
    # per-x sums, so summing a slab of planes at a time leaves every bit alone
    for x in _slabs(g.grid):
        for name in OBSERVABLES:
            out[name][x] = (g.g[x] * phis[name]).sum(axis=(1, 2))
    return {name: out[name] / denom for name in OBSERVABLES}


def cell_moments_of_ensemble(
    ens: ChainEnsemble, geom: ChainGeometry, grid: PhaseGrid
) -> dict[str, np.ndarray]:
    """Per-x-cell means over replicas and the sites falling in each cell.

    Cells are ``[i/mx, (i+1)/mx)`` per axis; with ``d = 1`` and the site
    count a multiple of ``mx`` every cell holds the same number of sites.
    Empty cells are an error (the x grid is finer than the site mesh).
    """
    if geom.d != 1:
        raise SizeMismatchError("moment comparison is wired for d = 1 chains")
    x = site_coordinates(geom)[:, 0]
    cells = np.floor(x * grid.mx).astype(np.int64)
    cells = np.clip(cells, 0, grid.mx - 1)
    counts = np.bincount(cells, minlength=grid.mx)
    if np.any(counts == 0):
        raise ValueError(
            f"x grid with {grid.mx} cells has empty cells for {geom.n_sites} sites"
        )
    out = {}
    for name in OBSERVABLES:
        phi = _observable(name, ens.r, ens.v)  # (m, n_sites)
        per_site = phi.mean(axis=0)
        out[name] = np.bincount(cells, weights=per_site, minlength=grid.mx) / counts
    return out


@dataclass
class MeanfieldDistance:
    """Per-observable sup and L2 gaps between ensemble and PDE moments.

    ``pde`` and ``ensemble`` are the per-x moments that were compared, keyed
    by observable; :meth:`to_dict` leaves them out.
    """

    sup: dict[str, float]
    l2: dict[str, float]
    t: float
    pde: dict[str, np.ndarray] = field(repr=False, compare=False)
    ensemble: dict[str, np.ndarray] = field(repr=False, compare=False)

    @property
    def total_l2(self) -> float:
        return float(np.sqrt(sum(v * v for v in self.l2.values())))

    @property
    def total_sup(self) -> float:
        return max(self.sup.values())

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "total_l2": self.total_l2,
            "total_sup": self.total_sup,
            "sup": dict(self.sup),
            "l2": dict(self.l2),
        }


# largest gap between the density's and the ensemble's time stamps
TIME_TOL = 1e-9


def meanfield_distance(
    g: PhaseDensity,
    ens: ChainEnsemble,
    geom: ChainGeometry,
) -> MeanfieldDistance:
    """Compare local (r, v) moments of the ensemble against those of ``g``;
    their time stamps must agree to ``TIME_TOL``."""
    if abs(g.t - ens.t) > TIME_TOL:
        raise ValueError(f"time stamps differ: density t={g.t}, ensemble t={ens.t}")
    mg = cell_moments_of_density(g)
    me = cell_moments_of_ensemble(ens, geom, g.grid)
    sup = {}
    l2 = {}
    for name in OBSERVABLES:
        diff = me[name] - mg[name]
        sup[name] = float(np.max(np.abs(diff)))
        l2[name] = float(np.sqrt(np.sum(diff * diff) * g.grid.dx))
    return MeanfieldDistance(sup, l2, float(g.t), mg, me)
