"""Ensemble against limit: every distance between two descriptions of one flow.

The wave ensemble's spectrum is held against the kinetic equation's
(:func:`compare_spectra`), and the chain ensemble's per-cell moments against
the Vlasov density's (:func:`meanfield_distance`).  Every input is a bare
array, its grid and its time given by the caller: the two spectra are
arrays on torus grids (:class:`~kinlat.lattice.TorusGrid`), the chain
ensemble is its ``(replicas, n_nodes)`` arrays ``r`` and ``v``, and the
density enters as its cell moments, so a caller can drop the density
before the ensemble exists.  Both give one
:class:`Distance`.  The lanes only solve, and this module imports none of
them, so the Vlasov lane can read :data:`OBSERVABLES` from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import SizeMismatchError

if TYPE_CHECKING:  # annotations only: loading this module loads no lane
    from .lattice import TorusGrid
    from .vlasov import PhaseGrid

__all__ = [
    "OBSERVABLES",
    "Distance",
    "compare_spectra",
    "cell_moments_of_ensemble",
    "meanfield_distance",
]

# phase-space observable -> its value at (r, v); every moment table follows this order
OBSERVABLES = {
    "r": lambda r, v: r,
    "v": lambda r, v: v,
    "r2": lambda r, v: r * r,
    "v2": lambda r, v: v * v,
    "rv": lambda r, v: r * v,
}


@dataclass(eq=False)
class Distance:
    """One ensemble held against its limit on one grid.

    ``ours`` (the ensemble's) and ``theirs`` (the limit's) are the compared
    tables, keyed by observable; ``measure`` is the weight of one grid
    point, ``t`` the time of ``theirs`` and ``grid`` the compared grid.
    Construction computes, per observable, the signed gap ``theirs - ours``
    and its ``l1``, ``l2`` and ``sup`` norms.
    """

    ours: dict[str, np.ndarray] = field(repr=False)
    theirs: dict[str, np.ndarray] = field(repr=False)
    measure: float
    t: float
    grid: TorusGrid | PhaseGrid
    gap: dict[str, np.ndarray] = field(init=False, repr=False)
    l1: dict[str, float] = field(init=False)
    l2: dict[str, float] = field(init=False)
    sup: dict[str, float] = field(init=False)

    def __post_init__(self):
        self.gap = {k: self.theirs[k] - ours for k, ours in self.ours.items()}
        size = {k: np.abs(gap) for k, gap in self.gap.items()}
        self.l1 = {k: float(np.sum(a) * self.measure) for k, a in size.items()}
        self.l2 = {k: float(np.sqrt(np.sum(g * g) * self.measure)) for k, g in self.gap.items()}
        self.sup = {k: float(np.max(a)) for k, a in size.items()}

    @property
    def total_l2(self) -> float:
        return float(np.sqrt(sum(v * v for v in self.l2.values())))

    @property
    def total_sup(self) -> float:
        return max(self.sup.values())

    def to_dict(self) -> dict:
        totals = {"t": self.t, "total_l2": self.total_l2, "total_sup": self.total_sup}
        return totals | {"sup": dict(self.sup), "l2": dict(self.l2)}


def _interp_periodic_1d(f: np.ndarray, m_from: int, m_to: int) -> np.ndarray:
    # linear interpolation of the coarse spectrum onto the fine nodes j/m_to
    pos = np.arange(m_to) * (m_from / m_to)
    i0 = np.floor(pos).astype(np.int64)
    theta = pos - i0
    return (1.0 - theta) * f[i0 % m_from] + theta * f[(i0 + 1) % m_from]


def compare_spectra(
    fa: np.ndarray, ga: TorusGrid, fb: np.ndarray, gb: TorusGrid, t: float
) -> Distance:
    """The spectrum array ``fa`` on ``ga`` (ours) against ``fb`` on ``gb``
    (theirs, at time ``t``), as the one observable ``f``.

    Identical grids are compared node by node.  In one dimension the coarser
    spectrum is first linearly interpolated (periodically) onto the finer
    grid; mixed grids in higher dimension are rejected.
    """
    if ga.d != gb.d:
        raise SizeMismatchError(f"dimension mismatch {ga.d} vs {gb.d}")
    grid = ga
    if ga.m != gb.m:
        if ga.d != 1:
            raise SizeMismatchError(
                f"grids {ga.m} vs {gb.m} differ; interpolation only supported in d=1"
            )
        if ga.m < gb.m:
            fa, grid = _interp_periodic_1d(fa, ga.m, gb.m), gb
        else:
            fb = _interp_periodic_1d(fb, gb.m, ga.m)
    return Distance({"f": fa}, {"f": fb}, grid.cell_measure, t, grid)


def cell_moments_of_ensemble(
    r: np.ndarray, v: np.ndarray, geom: TorusGrid, grid: PhaseGrid
) -> dict[str, np.ndarray]:
    """Per-x-cell means of the ``(replicas, n_nodes)`` ensemble ``(r, v)`` over
    replicas and the sites falling in each cell.

    Cells are ``[i/mx, (i+1)/mx)``; site ``j`` at ``j/m`` falls in cell
    ``floor(j mx / m)``, taken in integers so no site on a cell edge rounds
    into its neighbour.  With the site count a multiple of ``mx`` every cell
    holds the same number of sites.  Empty cells, which occur exactly when
    ``m < mx``, are an error.
    """
    if geom.d != 1:
        raise SizeMismatchError("moment comparison is wired for d = 1 chains")
    cells = np.arange(geom.m) * grid.mx // geom.m
    counts = np.bincount(cells, minlength=grid.mx)
    if np.any(counts == 0):
        raise ValueError(f"x grid with {grid.mx} cells has empty cells for {geom.n_nodes} sites")
    out = {}
    for name, phi in OBSERVABLES.items():
        per_site = phi(r, v).mean(axis=0)  # (replicas, n_nodes) -> (n_nodes,)
        out[name] = np.bincount(cells, weights=per_site, minlength=grid.mx) / counts
    return out


# largest gap between the density's and the ensemble's time stamps
TIME_TOL = 1e-9


def meanfield_distance(
    theirs: dict, grid: PhaseGrid, t_theirs: float, r, v, geom: TorusGrid, t: float
) -> Distance:
    """The per-cell moments of the ensemble ``(r, v)`` at time ``t`` against
    the density moments ``theirs`` on ``grid`` at ``t_theirs``
    (:func:`kinlat.vlasov.cell_moments_of_density`); the two times must
    agree to ``TIME_TOL``."""
    if abs(t_theirs - t) > TIME_TOL:
        raise ValueError(f"time stamps differ: density t={t_theirs}, ensemble t={t}")
    ours = cell_moments_of_ensemble(r, v, geom, grid)
    return Distance(ours, theirs, grid.dx, float(t_theirs), grid)
