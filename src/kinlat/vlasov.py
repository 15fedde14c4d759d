"""Mean-field transport equation with a fractional-Laplacian force field.

Solves, for a phase density ``g(t, x, r, v)`` with ``x`` on the unit torus
and ``(r, v)`` on a truncated window,

    dg/dt + v dg/dr + C^-1 Sigma_g dg/dv = 0,
    Sigma_g(x, r) = r * Lrho(x) - Lm(x),

where ``L`` is the spectral fractional Laplacian ``(-Dx)^a``, ``rho`` and
``m`` are the zeroth and first r-moments of ``g``, and ``C`` is the
Gamma-function normalization.  Both come from the chain's kernel object,
:class:`~kinlat.chain.FractionalParams`: ``L`` is its
:meth:`~kinlat.chain.FractionalParams.pde_symbol` (Fourier multiplier
``|2 pi k|^(2a)``) and ``C`` its ``c_alpha``.  The force is affine in ``r``
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

A line moves by one shift s, so its integer offset ``floor(-s)`` and its
weight, the exact fractional part of ``-s``, are per line, and a sweep
reads its bracketing cells as slices of its input, clipped to the line (see
:class:`_LineShift`).  Each sub-flow runs one x-slab at a time: a few whole
x-planes, ``SLAB_BYTES`` (256 KiB, 2 planes at 128 x 128) of density, which
stay in cache while they are swept, and the workspace is slab-sized.
Every line a sweep shifts lies inside one x-plane and the moments are
per-x sums, so the slab size cannot change a bit.  The r-sweep tables
depend only on (r, v) and ``dt`` and are built once per
:func:`vlasov_evolve`.  The literal per-cell loop
:func:`kinlat._reference.shift_lines_loop`, exact in its read positions,
is the oracle; the sweeps match it bit for bit.

A density is a bare float64 array of its grid's shape; its clock is the
caller's.  A run holds one working density: the first step writes it from
the caller's density, and every later step overwrites it in place.  The
caller's density is left alone unless the caller hands its array over as
``out``; the run then holds that one density and no other.
:func:`density_from_law` fills its array, :func:`cell_moments_of_density`
sums it and :func:`check_density` checks it, one slab at a time, so none
of them makes a full-size temporary.

This module only solves: :mod:`kinlat.compare` holds the chain ensemble
against the density, and owns the observables the cell moments sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .chain import FractionalParams
from .compare import OBSERVABLES
from .errors import SizeMismatchError, check_step

__all__ = [
    "PhaseGrid",
    "x_centers",
    "r_centers",
    "v_centers",
    "check_density",
    "moments",
    "sigma_field",
    "acceleration",
    "vlasov_evolve",
    "VlasovDiagnostics",
    "density_from_law",
    "BOUNDARY_TOL",
    "boundary_mass",
    "cell_moments_of_density",
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


def check_density(g: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """``g`` as float64, once it has ``grid``'s shape and is finite and nonnegative.

    One slab at a time, so no whole-grid temporary; every slab passes the
    finiteness check before any is checked for sign, so a bad density
    raises the same error whatever slab holds the fault.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape != grid.shape:
        raise SizeMismatchError(f"density shape {g.shape}, grid wants {grid.shape}")
    slabs = _slabs(grid)
    if not all(np.isfinite(g[x]).all() for x in slabs):
        raise ValueError("density must be finite")
    if any((g[x] < 0.0).any() for x in slabs):
        raise ValueError("density must be nonnegative")
    return g


def moments(g: np.ndarray, grid: PhaseGrid) -> tuple[np.ndarray, np.ndarray]:
    """Per-x-node r-marginal midpoint quadratures ``(int g, int r g)`` of
    the density array ``g`` over the (r, v) window of ``grid``."""
    if g.shape != grid.shape:
        raise SizeMismatchError(f"density shape {g.shape}, grid wants {grid.shape}")
    w = grid.dr * grid.dv
    # one pass over the density: rho and m are sums of its (x, r) line sums
    rows = g.sum(axis=2)
    return rows.sum(axis=1) * w, (rows * r_centers(grid)).sum(axis=1) * w


def sigma_field(g: np.ndarray, grid: PhaseGrid, fp: FractionalParams) -> np.ndarray:
    """Force field over (x, r) of the density array ``g`` on ``grid``:
    ``r * L rho - L m``, exact moment split.

    Identically zero when ``g`` does not depend on x.
    """
    mult = fp.pde_symbol(grid.mx)
    lrho, lm = (np.fft.ifft(mult * np.fft.fft(a)).real for a in moments(g, grid))
    return r_centers(grid)[None, :] * lrho[:, None] - lm[:, None]


def acceleration(g: np.ndarray, grid: PhaseGrid, fp: FractionalParams) -> np.ndarray:
    """Characteristic speed in v: ``C^-1 Sigma_g``, shape (mx, mr)."""
    return sigma_field(g, grid, fp) / fp.c_alpha


# ---------------------------------------------------------------------------
# semi-Lagrangian line shifts
# ---------------------------------------------------------------------------


def _scratch(shape: tuple[int, ...]) -> np.ndarray:
    """Float workspace for :class:`_LineShift`; sweeps that run in turn can share one."""
    return np.empty(math.prod(shape))


class _LineShift:
    """Displace the lines along ``axis`` (1 or 2) of 3-D arrays, whose lines
    hold ``n`` cells, by constant shifts, one per line, zero inflow.

    Cell p of a line shifted by s reads position q = p - s.  As s is one
    number per line, so are the offset ``k = floor(-s)`` and the weight
    ``th = -s - k``, the exact fractional part of q: cell p is
    ``(1 - th) f[p + k] + th f[p + k + 1]``, where f is zero off the line.
    Every read is a slice of the input at one offset (a window), clipped to
    the line, times per-line weights: the first window of a group of lines
    writes its cells and the others add theirs, after the cells it cannot
    reach are zeroed.  k is clamped to ``[-n - 1, n]``, where a line reads
    only zeros either way; a non-finite shift gives NaN weights at offset 0.

    On axis 2 (the v-sweep, shifts per (x, r) line) a group is a run of
    lines in one x-plane that share k, blended from its two windows.  On
    axis 1 (the r-sweep, shifts per v column) it is every column, blended
    from the ``max k - min k + 2`` windows between with an (r, v) weight
    plane each, zero in the columns whose k does not bracket it, so the sum
    gains only exact zeros; these tables fit any number of x-planes.  The
    ``scratch`` holds one term of a blend and may be shared.

    The weights are a convex combination, so mass along interior lines,
    positivity, and the maximum are all preserved exactly.
    """

    def __init__(self, axis: int, n: int, scratch: np.ndarray):
        if axis not in (1, 2):
            raise ValueError(f"cannot shift axis {axis}")
        self.axis, self.n, self.scratch = axis, n, scratch

    def _at(self, lines, cells) -> tuple:
        """Index of ``cells`` along ``axis`` in ``lines``: columns on axis 1,
        an (x, r-slice) pair on axis 2."""
        return (slice(None), cells, lines) if self.axis == 1 else (*lines, cells)

    def set_shifts(self, shifts: np.ndarray) -> "_LineShift":
        """Fill the windows and weights for ``shifts`` cells, of shape
        (1, 1, mv) on axis 1 and (x-planes, mr, 1) on axis 2."""
        n = self.n
        neg = np.negative(shifts, dtype=np.float64)
        neg[~np.isfinite(neg)] = np.nan
        kf = np.floor(neg)
        w1 = neg - kf
        w0 = 1.0 - w1
        kf[np.isnan(kf)] = 0.0
        ks = np.clip(kf.reshape(-1), -n - 1, n).astype(np.int64)
        self.zeros, self.terms = [], []
        if self.axis == 1:
            k0 = int(ks.min())
            w = np.zeros((int(ks.max()) - k0 + 2, ks.size))
            cols = np.arange(ks.size)
            w[ks - k0, cols], w[ks - k0 + 1, cols] = w0.reshape(-1), w1.reshape(-1)
            planes = np.repeat(w[:, None, None, :], n, axis=2)
            self._windows(slice(None), range(k0, k0 + len(w)), planes)
            return self
        plane = neg.shape[1]
        cut = ks[1:] != ks[:-1]
        cut[plane - 1 :: plane] = True  # a run stays inside one x-plane
        starts = [0, *(np.flatnonzero(cut) + 1).tolist()]
        for a, b, k in zip(starts, starts[1:] + [ks.size], ks[starts].tolist()):
            x, r = divmod(a, plane)
            self._windows((x, slice(r, r + b - a)), (k, k + 1), (w0, w1))
        return self

    def _windows(self, lines, offsets, weights) -> None:
        """Blend terms for the windows at ``offsets`` of ``lines``: their ``weights``
        are (r, v) planes on axis 1 and one per line on axis 2."""
        n = self.n
        for j, (k, w) in enumerate(zip(offsets, weights)):
            lo, hi = max(0, -k), min(n, n - k)  # the cells whose read p + k is on the line
            if j == 0:
                edges = (slice(0, lo), slice(max(lo, hi), n))
                self.zeros += [self._at(lines, c) for c in edges if c.start < c.stop]
            if lo < hi:
                cells = self._at(lines, slice(lo, hi))
                at = cells if self.axis == 1 else self._at(lines, slice(None))
                self.terms.append((cells, w[at], self._at(lines, slice(lo + k, hi + k)), j > 0))

    def __call__(self, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Shift the lines of ``f`` into ``out``, which must not overlap it."""
        for z in self.zeros:
            out[z] = 0.0
        for cells, w, reads, add in self.terms:
            o = out[cells]
            if add:
                t = np.multiply(w, f[reads], out=self.scratch[: o.size].reshape(o.shape))
                np.add(o, t, out=o)
            else:
                np.multiply(w, f[reads], out=o)
        return out


def _shift_lines(arr: np.ndarray, shifts: np.ndarray, axis: int) -> np.ndarray:
    """One :class:`_LineShift` of ``arr`` into a new array (the oracle checks use this)."""
    lines = arr.shape[:2] + (1,) if axis == 2 else (1, 1, arr.shape[2])
    sweep = _LineShift(axis, arr.shape[axis], _scratch(arr.shape))
    return sweep.set_shifts(np.broadcast_to(shifts, lines))(arr, np.empty(arr.shape))


class _Strang:
    """Strang steps of one grid and time step, one x-slab at a time.

    Each sub-flow works through the density in the slabs of :func:`_slabs`,
    so a slab is swept while it is still in cache.  The workspace is
    slab-sized, so its bytes do not grow with ``mx``: ``mid``, which holds
    a slab between two sweeps, the blend scratch, and the tables.  Every
    line a sweep shifts lies inside one x-plane, so the slabs change no
    bit.  The r-sweep's windows and weight planes depend only on (r, v) and
    ``dt``, so they are built once for every slab; the v-sweep's runs and
    per-line weights are refilled from each slab's rows of the
    acceleration.  No table has an entry per cell.  A step writes into the
    array it is given as ``out``, which may be its input, or into a new
    one.  Steps take and return bare arrays and validate none of them.
    """

    def __init__(self, grid: PhaseGrid, dt: float):
        check_step("dt", dt)
        self.grid, self.dt = grid, dt
        self.slabs = _slabs(grid)
        self.mid = np.empty((self.slabs[0].stop, grid.mr, grid.mv))
        scratch = _scratch(self.mid.shape)
        s_r = (v_centers(grid) * (0.5 * dt) / grid.dr).reshape(1, 1, grid.mv)
        self.r_sweep = _LineShift(1, grid.mr, scratch).set_shifts(s_r)
        self.v_sweep = _LineShift(2, grid.mv, scratch)

    def step(
        self, g: np.ndarray, fp: FractionalParams, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One step from the density array ``g`` into ``out`` (a new array
        when it is None), and the v-speed field (``acceleration``) it
        applied: r-transport dt/2, v-transport dt, r-transport dt/2.

        ``out`` may be ``g`` itself: each slab of ``g`` is copied into
        ``mid`` before its rows of ``out`` are written, and no sweep reads
        rows of another slab.

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
        for x in self.slabs:
            mid = self.mid[: x.stop - x.start]
            mid[...] = g[x]
            self.r_sweep(mid, out[x])
        accel = acceleration(out, grid, fp)
        s_v = (accel * dt / grid.dv)[:, :, None]
        for x in self.slabs:
            mid = self.mid[: x.stop - x.start]
            self.v_sweep.set_shifts(s_v[x])(out[x], mid)
            self.r_sweep(mid, out[x])
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
    g: np.ndarray,
    grid: PhaseGrid,
    fp: FractionalParams,
    dt: float,
    n_steps: int,
    *,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, VlasovDiagnostics]:
    """Run ``n_steps`` Strang steps of the density array ``g`` on ``grid``
    with advisory monitoring.

    The one advisory goes to the diagnostics' ``notes``: support whose edge
    mass exceeds ``BOUNDARY_TOL``.  The largest line displacements are
    reported as ``cfl_r`` and ``cfl_v``; the scheme is stable whatever they
    are.  Of the densities each step ends with, only the result goes
    through :func:`check_density`.  ``dt`` must be finite and positive; it
    is checked before any work.

    The run holds one working density array: the first step writes it from
    ``g``, and every later step overwrites it in place.  That array is
    ``out`` when it is given, which may be ``g`` itself (a run that no
    longer needs ``g`` then holds one density in all); without ``out`` it
    is a new array and ``g`` is left alone.  The result is the working
    array; with no steps it is ``g``.
    """
    for name, a in (("g", g), ("out", out)):
        if a is not None and a.shape != grid.shape:
            raise SizeMismatchError(f"{name} has shape {a.shape}, grid wants {grid.shape}")
    strang = _Strang(grid, dt)
    mass0 = float(g.sum() * grid.cell_volume)
    bmax = boundary_mass(g, grid)
    cfl_r = grid.v_max * dt / grid.dr if n_steps > 0 else 0.0
    cfl_v = 0.0
    notes: list[str] = []
    for i in range(n_steps):
        # step 0 writes the working array (a new one without ``out``);
        # later steps overwrite it
        g, accel = strang.step(g, fp, out=g if i else out)
        cfl_v = max(cfl_v, float(np.max(np.abs(accel))) * dt / grid.dv)
        bmax = max(bmax, boundary_mass(g, grid))
    g = check_density(g, grid)
    mass1 = float(g.sum() * grid.cell_volume)
    if bmax > BOUNDARY_TOL:
        notes.append(
            f"support reached the (r, v) truncation boundary: peak edge mass {bmax:.3e}, "
            f"escaped mass estimate {mass0 - mass1:.3e}"
        )
    return g, VlasovDiagnostics(n_steps, mass0, mass1, bmax, cfl_r, cfl_v, notes)


# ---------------------------------------------------------------------------
# initialization and cell moments
# ---------------------------------------------------------------------------


def density_from_law(law, grid: PhaseGrid) -> np.ndarray:
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
    return check_density(vals, grid)


def cell_moments_of_density(g: np.ndarray, grid: PhaseGrid) -> dict[str, np.ndarray]:
    """Conditional phase-space means per x node, ``E[phi | x]``, of the
    density array ``g`` on ``grid``."""
    r = r_centers(grid)[:, None]
    v = v_centers(grid)[None, :]
    denom = g.sum(axis=(1, 2))
    if np.any(denom <= 0.0):
        raise ValueError("conditional moments undefined at zero-mass x nodes")
    out = {name: np.empty(grid.mx) for name in OBSERVABLES}
    # per-x sums, so summing a slab of planes at a time leaves every bit alone
    for x in _slabs(grid):
        for name, phi in OBSERVABLES.items():
            out[name][x] = (g[x] * phi(r, v)).sum(axis=(1, 2))
    return {name: out[name] / denom for name in OBSERVABLES}
