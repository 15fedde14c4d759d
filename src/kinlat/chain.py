"""Long-range coupled oscillator chains with power-law interaction.

Sites sit on the nodes ``x = j/m`` (spacing ``h = 1/m``) of a
:class:`~kinlat.lattice.TorusGrid` with any number ``m >= 2`` of sites per
axis (the config's ``chain.n``; the wave lattice is the same grid at odd
``m``), in the flat C order of :func:`~kinlat.lattice.nodes`.  Each site
carries a scalar displacement/velocity pair driven by every other site:

    dv_x/dt = h^d sum_{y != x} (r_y - r_x) / |y - x|^(d + 2 alpha)

with ``|y - x|`` the minimal-image torus distance.  The coupling depends
only on ``y - x``, so on the periodic mesh the force is a convolution,
diagonal in Fourier space with the kernel's symbol ``h^d (w_hat(k) - sum w)``
(O(m^d) memory, no site-by-site matrix).  :class:`FractionalParams` is the
one power-law kernel object: it holds this chain symbol and the operator
``|2 pi k|^(2 alpha)`` that the mean-field transport equation of
:mod:`kinlat.vlasov` applies on its x-grid, the two scales of one
interaction.  ``chain_force_flat`` applies the chain symbol with one real
FFT pair per call; ``verlet_evolve`` applies a whole run of velocity Verlet
steps as one closed-form 2x2 map per mode of the half-spectrum, between one
transform and its inverse.  The flow conserves the energy
``sum v^2/2 + (h^d/4) sum_{x,y} w(y-x) (r_y - r_x)^2`` and, by pairwise
antisymmetry, the total momentum ``sum v`` exactly; the mean displacement
therefore moves ballistically (zero acceleration).

A state is two float arrays ``r`` and ``v`` of one shape ``batch +
(n_nodes,)``: one replica is 1-D, an ensemble stacks replicas on leading
axes, and every function here maps each row on its own.  Callers keep the
clock.  Ensembles of independently initialized replicas feed the two-site
factorization defect used to probe molecular chaos; it reduces over
replicas in fixed order so results are reproducible for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NumericalBlowupError, SizeMismatchError, check_step, require
from .lattice import TorusGrid, nodes

__all__ = [
    "FractionalParams",
    "GaussianLaw",
    "PointLaw",
    "cosine_gaussian_law",
    "LAWS",
    "chain_force_flat",
    "chain_energy",
    "verlet_stability",
    "verlet_evolve",
    "sample_ensemble",
    "chaos_defect",
    "two_site_frequency",
]


@dataclass(frozen=True)
class FractionalParams:
    """The power-law interaction of order ``0 < alpha < 1``, at both scales.

    On the chain it is the pair weight ``|y - x|^-(d + 2 alpha)``
    (:meth:`chain_symbol`); in the mean-field limit it is the fractional
    Laplacian on the periodic x-grid (:meth:`pde_symbol`), normalized by
    :attr:`c_alpha`.  Both symbols are cached and read-only.
    """

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"fractional order must lie in (0, 1), got {self.alpha}")

    @property
    def c_alpha(self) -> float:
        """Normalization ``4^a Gamma(1/2 + a) / (pi^{1/2} |Gamma(-a)|)`` (d = 1).

        For a = 1/2 this is exactly 1/pi.
        """
        a = self.alpha
        return 4.0**a * math.gamma(0.5 + a) / (math.pi**0.5 * abs(math.gamma(-a)))

    @lru_cache(maxsize=32)
    def chain_symbol(self, geom: TorusGrid) -> np.ndarray:
        """Real half-spectrum ``h^d (w_hat(k) - sum w)`` of the chain force.

        ``w`` is the minimal-image kernel over site offsets (any ``m >= 2``;
        even counts are fine, the half-way offset is its own mirror and the
        kernel is even) with no self-coupling, and the symbol lives on the
        ``rfftn`` grid of the site axes.  The pair sum cancels constants, so
        the zero-frequency entry is exactly 0.  O(m^d) entries.
        """
        m, d, h = geom.m, geom.d, geom.h
        mimg = (np.arange(m) + m // 2) % m - m // 2  # minimal-image offset per axis
        dist = h * np.sqrt(sum(np.ix_(*[mimg.astype(np.float64) ** 2] * d)).reshape(-1))
        w = np.zeros(geom.n_nodes)
        w[1:] = dist[1:] ** (-(d + 2.0 * self.alpha))
        symbol = h**d * (np.fft.rfftn(w.reshape(geom.shape)).real - w.sum())
        symbol.flat[0] = 0.0
        symbol.setflags(write=False)
        return symbol

    @lru_cache(maxsize=32)
    def pde_symbol(self, mx: int) -> np.ndarray:
        """Multiplier ``|2 pi k|^(2 alpha)`` of ``(-Dx)^alpha`` on the ``fft``
        grid of ``mx`` periodic x-cells (``k`` in ``fftfreq`` order).

        It annihilates constants, and plane waves are its eigenfunctions.
        """
        k = np.fft.fftfreq(mx) * mx
        mult = (2.0 * np.pi) ** (2.0 * self.alpha) * (k**2) ** self.alpha
        mult.setflags(write=False)
        return mult


def _check_sites(geom: TorusGrid, arr: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.shape[-1:] != (geom.n_nodes,):
        raise SizeMismatchError(
            f"{name} has trailing shape {arr.shape}, expected (..., {geom.n_nodes})"
        )
    return arr


def _check_state(geom: TorusGrid, r, v) -> tuple[np.ndarray, np.ndarray]:
    r, v = _check_sites(geom, r, "displacement"), _check_sites(geom, v, "velocity")
    if r.shape != v.shape:
        raise SizeMismatchError(f"displacement {r.shape} and velocity {v.shape} differ in shape")
    return r, v


# ---------------------------------------------------------------------------
# force, energy, integrator
# ---------------------------------------------------------------------------


def chain_force_flat(r: np.ndarray, geom: TorusGrid, fp: FractionalParams) -> np.ndarray:
    """Acceleration ``h^d sum_{y != x} (r_y - r_x)/|y-x|^(d+2a)``, flat sites.

    ``r`` is ``(..., n_nodes)`` in natural site order.  The sum is a periodic
    convolution, so it is applied as :meth:`FractionalParams.chain_symbol`
    with ``rfftn``/``irfftn`` over the site axes.
    """
    r = _check_sites(geom, r, "displacement")
    rg = r.reshape(r.shape[:-1] + geom.shape)
    gax = tuple(range(rg.ndim - geom.d, rg.ndim))
    rk = np.fft.rfftn(rg, axes=gax) * fp.chain_symbol(geom)
    out = np.fft.irfftn(rk, s=geom.shape, axes=gax)
    return out.reshape(r.shape)


def chain_energy(r, v, geom: TorusGrid, fp: FractionalParams) -> np.ndarray:
    """Conserved energy ``sum v^2/2 + (h^d/4) sum_{x,y} w (r_y - r_x)^2`` per row.

    The potential term is evaluated through the quadratic-form identity
    ``U = -(1/2) sum_x r_x F_x``, which reproduces the pair sum exactly and
    keeps the analytic gradient relation ``-dU/dr = F`` by construction.
    """
    r, v = _check_state(geom, r, v)
    f = chain_force_flat(r, geom, fp)
    kin = 0.5 * np.sum(v * v, axis=-1)
    pot = -0.5 * np.sum(r * f, axis=-1)
    return kin + pot


def verlet_stability(geom: TorusGrid, fp: FractionalParams, dt: float):
    """Each mode's ``sqrt(-s)`` and ``sin(theta / 2) = dt sqrt(-s) / 2`` on the
    ``rfftn`` half-spectrum, after refusing a ``dt`` past velocity Verlet's
    stability bound ``dt sqrt(-s) < 2`` with a :class:`NumericalBlowupError`
    that names the first unstable mode.  A step that is not finite and
    positive is refused with a ``ValueError``.
    """
    check_step("dt", dt)
    omega = np.sqrt(-fp.chain_symbol(geom))
    half = 0.5 * dt * omega
    if not np.all(half < 1.0):
        mode = np.unravel_index(int(np.argmax(~(half < 1.0))), half.shape)
        raise NumericalBlowupError(
            f"velocity Verlet is unstable at dt {dt:.6g}: mode "
            f"{mode[0] if geom.d == 1 else tuple(int(j) for j in mode)} has "
            f"dt*sqrt(-s) {2.0 * half[mode]:.6g}, the bound is 2"
        )
    return omega, half


def verlet_evolve(
    r, v, geom: TorusGrid, fp: FractionalParams, dt: float, n_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Advance ``(r, v)`` by ``n_steps`` velocity Verlet steps; new arrays.

    On the ``rfftn`` half-spectrum over the site axes the force is the symbol
    ``s`` (:meth:`FractionalParams.chain_symbol`) times ``r``, so a step is one
    2x2 matrix ``M`` per mode, of determinant 1 and trace ``2 cos theta``,
    ``theta = 2 arcsin(dt sqrt(-s) / 2)``.  A run applies
    ``M^n = U_{n-1} M - U_{n-2} I`` (Chebyshev ``U_j = sin((j+1) theta) /
    sin theta``; its diagonal is ``cos n theta``) to every replica between
    one transform and one inverse per array: the real-space Verlet map up to
    round-off.  The zero mode (the total momentum, ``s = 0``) takes the limit
    ``U_{n-1} = n``: it drifts and is never kicked.  A ``dt`` past the
    stability bound is refused by :func:`verlet_stability` before any work.
    Non-finite entries are refused with a ``ValueError``.
    """
    omega, half = verlet_stability(geom, fp, dt)
    r, v = _check_state(geom, r, v)
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
        raise ValueError("state entries must be finite")
    theta = 2.0 * np.arcsin(half)
    sin_n, cos_n = np.sin(n_steps * theta), np.cos(n_steps * theta)
    wq = omega * np.sqrt((1.0 - half) * (1.0 + half))  # sin(theta) / dt
    # the off-diagonal entries dt U_{n-1} and dt s (1 + dt^2 s/4) U_{n-1}
    drift = np.divide(sin_n, wq, out=np.full_like(wq, n_steps * dt), where=wq > 0.0)
    kick = -wq * sin_n
    lead = r.shape[:-1]
    gax = tuple(range(len(lead), len(lead) + geom.d))
    rk = np.fft.rfftn(r.reshape(lead + geom.shape), axes=gax)
    vk = np.fft.rfftn(v.reshape(lead + geom.shape), axes=gax)
    rk, vk = cos_n * rk + drift * vk, kick * rk + cos_n * vk
    r = np.fft.irfftn(rk, s=geom.shape, axes=gax).reshape(r.shape)
    return r, np.fft.irfftn(vk, s=geom.shape, axes=gax).reshape(r.shape)


# ---------------------------------------------------------------------------
# initial laws and sampling
# ---------------------------------------------------------------------------


def _per_site(value, x: np.ndarray) -> np.ndarray:
    """Broadcast a scalar or evaluate a callable of site coordinates."""
    if callable(value):
        out = np.asarray(value(x), dtype=np.float64)
        if out.shape != x.shape[:-1]:
            raise SizeMismatchError(
                f"site profile returned shape {out.shape}, expected {x.shape[:-1]}"
            )
        return out
    return np.full(x.shape[:-1], float(value))


Profile = float | Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class GaussianLaw:
    """Independent normal (r, v) per site; parameters may vary with x.

    Any of the four fields may be a callable of the ``(n_nodes, d)`` site
    coordinate array.  Zero widths degenerate to deterministic components,
    which is the clean way to get a smooth displacement profile with random
    velocities.
    """

    # standard normals per site a replica takes: r's, then v's
    draws = 2

    mean_r: Profile = 0.0
    mean_v: Profile = 0.0
    sigma_r: Profile = 1.0
    sigma_v: Profile = 1.0

    def __post_init__(self):
        for name in ("sigma_r", "sigma_v"):
            width = getattr(self, name)
            if not callable(width):
                require(width >= 0.0, name, width, ">= 0")

    def sample_sites(self, z: np.ndarray, x: np.ndarray):
        """``(r, v)`` at the sites ``x`` from standard normals ``z`` of shape
        ``batch + (2,) + x.shape[:-1]``: r's row, then v's."""
        mr, mv = _per_site(self.mean_r, x), _per_site(self.mean_v, x)
        sr, sv = _per_site(self.sigma_r, x), _per_site(self.sigma_v, x)
        if np.any(sr < 0.0) or np.any(sv < 0.0):
            raise ValueError("gaussian widths must be nonnegative")
        axis = z.ndim - x.ndim
        r = mr + sr * z.take(0, axis)
        v = mv + sv * z.take(1, axis)
        return r, v

    def density(self, x: np.ndarray, r: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Evaluate the law's phase density on broadcastable (x, r, v) grids."""
        mr, mv = _per_site(self.mean_r, x), _per_site(self.mean_v, x)
        sr, sv = _per_site(self.sigma_r, x), _per_site(self.sigma_v, x)
        if np.any(sr <= 0.0) or np.any(sv <= 0.0):
            raise ValueError("density undefined for degenerate (zero-width) components")
        shp = mr.shape + (1,) * (np.ndim(r))
        mr, mv, sr, sv = (a.reshape(shp) for a in (mr, mv, sr, sv))
        zr = (np.asarray(r) - mr) / sr
        zv = (np.asarray(v) - mv) / sv
        return np.exp(-0.5 * (zr * zr + zv * zv)) / (2.0 * np.pi * sr * sv)


@dataclass(frozen=True)
class PointLaw:
    """Deterministic initial data: point mass at (r0, v0), optionally x-dependent."""

    draws = 0

    r0: Profile = 0.0
    v0: Profile = 0.0

    def sample_sites(self, z: np.ndarray, x: np.ndarray):
        """``(r, v)`` at the sites ``x`` for each of the ``batch`` replicas of
        ``z``, shape ``batch + (0,) + x.shape[:-1]``."""
        shape = z.shape[: z.ndim - x.ndim] + x.shape[:-1]
        r, v = _per_site(self.r0, x), _per_site(self.v0, x)
        return np.broadcast_to(r, shape), np.broadcast_to(v, shape)


def cosine_gaussian_law(
    amplitude: float = 0.2, mode: int = 1, sigma_r: float = 0.0, sigma_v: float = 0.1
) -> GaussianLaw:
    """Gaussian law whose mean displacement is ``amplitude cos(2 pi mode x_0)``."""
    require(mode >= 1, "mode", mode, ">= 1")

    def mean_r(x):
        return amplitude * np.cos(2.0 * np.pi * mode * x[..., 0])

    return GaussianLaw(mean_r, 0.0, sigma_r, sigma_v)


# kind -> the one-site law's factory; its keyword parameters are the kind's parameters
LAWS = {"gaussian": GaussianLaw, "cosine-gaussian": cosine_gaussian_law, "point": PointLaw}


def sample_ensemble(law, geom: TorusGrid, m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``m`` independent replicas ``(r, v)``, i.i.d. across sites within each.

    Replica ``i`` takes ``law.draws`` standard normals per site from the
    stream ``[seed, i]`` (:func:`kinlat.rng.normals`: numpy's
    ``default_rng(SeedSequence([seed, i])).standard_normal``, bit for bit),
    so the data for a given replica index never depends on how many
    replicas are requested or how they are batched.  Replicas are drawn in
    blocks of at most ``rng.BLOCK`` draws (or one replica), so no temporary
    grows with the ensemble.  A law that draws a non-finite entry is
    refused with a ``ValueError``.
    """
    # imported here, not at the top: parsing a law block imports this module
    from .rng import normal_blocks

    if m < 1:
        raise ValueError(f"need at least one replica, got {m}")
    x = nodes(geom).reshape(-1, geom.d)
    r = np.empty((m, geom.n_nodes))
    v = np.empty((m, geom.n_nodes))
    for rows, z in normal_blocks(seed, range(m), (law.draws, geom.n_nodes)):
        r[rows], v[rows] = law.sample_sites(z, x)
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
        raise ValueError("sampled entries must be finite")
    return r, v


# ---------------------------------------------------------------------------
# empirical measures
# ---------------------------------------------------------------------------


def _check_edges(edges: np.ndarray, name: str) -> np.ndarray:
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0.0):
        raise ValueError(f"{name} must be 1-D, strictly increasing, >= 2 entries")
    return edges


def _joint_masses(r, v, x, y, r_edges, v_edges):
    """Per-replica 4-D occupancy (r_x, v_x, r_y, v_y) on the shared bin grid."""
    sample = np.stack([r[:, x], v[:, x], r[:, y], v[:, y]], axis=1)
    hist, _ = np.histogramdd(sample, bins=(r_edges, v_edges, r_edges, v_edges))
    return hist / r.shape[0]


def chaos_defect(
    r: np.ndarray,
    v: np.ndarray,
    pair: tuple[int, int],
    r_edges: np.ndarray,
    v_edges: np.ndarray,
) -> float:
    """L2 gap between the two-site histogram of the ``(replicas, n_nodes)`` ensemble
    ``(r, v)`` and the product of its marginals.

    Works on probability masses (not densities), so the value is scale-free
    in the bin widths: 0 means the empirical two-site measure factorizes on
    the bin grid, and for i.i.d. replicas it shrinks like ``m^-1/2``.
    Marginals are taken from the joint itself, so out-of-window samples
    drop out consistently.
    """
    x, y = pair
    if x == y:
        raise ValueError("site pair must be distinct")
    if r.shape[0] < 2:
        raise ValueError("factorization defect needs at least two replicas")
    r_edges = _check_edges(r_edges, "r_edges")
    v_edges = _check_edges(v_edges, "v_edges")
    joint = _joint_masses(r, v, x, y, r_edges, v_edges)
    p_x = joint.sum(axis=(2, 3))
    p_y = joint.sum(axis=(0, 1))
    gap = joint - p_x[:, :, None, None] * p_y[None, None, :, :]
    return float(np.sqrt(np.sum(gap * gap)))


def two_site_frequency(geom: TorusGrid, fp: FractionalParams) -> float:
    """Closed-form normal-mode frequency of the two-site chain (d = 1).

    The difference coordinate obeys ``u'' = -2 h w(1/2) u`` with
    ``h = 1/2`` and ``w(1/2) = (1/2)^-(1+2a)``, i.e. frequency
    ``sqrt(2^(1+2a))``.
    """
    if geom.d != 1 or geom.m != 2:
        raise ValueError("closed form applies to the two-site d=1 chain only")
    return math.sqrt(2.0 ** (1.0 + 2.0 * fp.alpha))
