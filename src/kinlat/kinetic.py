"""Three-wave kinetic equation on a uniform torus grid.

The unknown is a nonnegative spectrum ``f(k)`` on the nodes ``k = j/m`` of
the ``d``-torus (:class:`~kinlat.lattice.TorusGrid` and its coordinate table
:func:`~kinlat.lattice.nodes`, the grid the wave lattice and the chain
share), evolving under the quadratic collision operator

    C[f](k) = int K d(k-k1-k2) d(w-w1-w2) [f1 f2 - f f1 - f f2]
            - 2 int K d(k1-k-k2) d(w1-w-w2) [f2 f - f f1 - f1 f2]

with the interaction kernel ``K = [8 w(k) w(k1) w(k2)]^-1`` and dispersion
``w(k) = sum_j sin^2(2 pi k_j)``.  On the grid the momentum delta is exact
(``k2 = k - k1 mod 1`` lands on a node) and the frequency delta is broadened
to a unit-mass profile of width ``epsilon``; refining ``epsilon`` (and the
grid) is how the sharp-resonance limit is probed.  Modes whose dispersion
falls below a floor are frozen, since ``K`` is singular there; the one
dispersion table :func:`omega_grid` and the one mask :func:`active_mask`
decide which, for the operator, its diagnostics and the oracle alike.

The operator is one sum over resonant triads.  With ``c = a + b`` (mod
``m`` per axis) and the weight
``W(a, b) = kinv_a kinv_b kinv_c phi_eps(w_c - w_a - w_b) / 8``, each pair
contributes ``T = W [f_a f_b - f_c (f_a + f_b)]`` and the rate is
``(bincount(c, T) - 2 bincount(a, T)) / m**d`` over ordered pairs.  ``W``
and ``c = a + b`` are invariant under the point group ``G`` of signed axis
permutations (``|G| = 2**d d!``), so ``C[f o g] = C[f] o g``: the plan
(:class:`_TriadPlan`) lists one pair per orbit, and an evaluation runs it
on ``f o g`` for each ``g`` and maps the result back.  Pairs whose weight,
doubled off the diagonal, is at most ``PAIR_CUT`` (1e-16) times the
largest are dropped, so the list, its memory (12 bytes a pair and 4 a run
at d = 2, m = 40, about 7 times fewer pairs than the unordered ones) and
the cost of an evaluation shrink with ``eps``.  The list is built and
pruned in blocks of rows, then re-packed into chunks of ``_BLOCK_PAIRS``
pairs, the slices an evaluation takes.  Each thread keeps only the plan it
used last.  Spectra are flattened in C order, so node ``j`` has flat index
``sum_c j_c * m**(d-1-c)``.

Stationarity anchor: the equilibrium family ``f = T/w`` annihilates both
brackets on resonance, which the tests exploit as an oracle.

A spectrum is a bare float64 array of the grid's shape, and its clock is
the caller's: :func:`evolve` starts at the run's step ``step0``, and its
step ``i`` ends at tau ``(step0 + i + 1) * dtau``.  This module only
solves: the wave ensemble's spectrum is held against a kinetic one in
:mod:`kinlat.compare`.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalBlowupError, SizeMismatchError, check_step
from .lattice import DEFAULT_OMEGA_FLOOR, RESONANCE_PROFILES, TorusGrid, dispersion, nodes

__all__ = [
    "DEFAULT_OMEGA_FLOOR",
    "RESONANCE_PROFILES",
    "omega_grid",
    "ResonanceRule",
    "active_mask",
    "CollisionDiagnostics",
    "collision",
    "collision_rate",
    "step",
    "evolve",
    "energy_moment",
    "rayleigh_jeans",
]

BLOWUP_BOUND = 1e12


@lru_cache(maxsize=64)
def _point_group(grid: TorusGrid) -> np.ndarray:
    """The point group G: row ``g`` is the flat index of ``g k`` at each node
    ``k``, ``(g k)_i = s_i k_p(i) mod m``, for the ``2**d d!`` signed axis
    permutations (row 0 the identity)."""
    j = np.indices(grid.shape).reshape(grid.d, -1)
    index = np.min_scalar_type(grid.n_nodes - 1)
    out = np.array([
        np.ravel_multi_index([(s * j[p]) % grid.m for s, p in zip(signs, perm)], grid.shape)
        for perm in itertools.permutations(range(grid.d))
        for signs in itertools.product((1, -1), repeat=grid.d)
    ]).astype(index)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def omega_grid(grid: TorusGrid) -> np.ndarray:
    """:func:`~kinlat.lattice.dispersion` at every node, shape ``(m,)*d``,
    each node taking its orbit representative's value: exactly G-invariant."""
    canon = _point_group(grid).min(axis=0)
    out = dispersion(nodes(grid)).reshape(-1)[canon].reshape(grid.shape)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ResonanceRule:
    """How the frequency delta is realized on the grid.

    ``epsilon`` is the broadening width, ``profile`` the unit-mass bump shape,
    ``omega_floor`` the dispersion level below which modes are frozen.
    """

    epsilon: float
    profile: str = "gaussian"
    omega_floor: float = DEFAULT_OMEGA_FLOOR

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError(f"broadening width must be positive, got {self.epsilon}")
        if self.profile not in RESONANCE_PROFILES:
            raise ValueError(
                f"unknown profile {self.profile!r}, expected one of {list(RESONANCE_PROFILES)}"
            )
        if not self.omega_floor > 0.0:
            raise ValueError(f"omega floor must be positive, got {self.omega_floor}")


def active_mask(grid: TorusGrid, rule: ResonanceRule) -> np.ndarray:
    """True where the mode participates in collisions (dispersion above floor)."""
    return omega_grid(grid) >= rule.omega_floor


# ---------------------------------------------------------------------------
# collision operator: a pruned list of resonant pairs
# ---------------------------------------------------------------------------

# a pair weight at or below this fraction of the largest one is dropped
PAIR_CUT = 1e-16
# pairs per block of the build and per chunk of the plan, the slice one
# evaluation step takes: the temporaries stay in cache, and the build never
# holds more than one block of unpruned candidates
_BLOCK_PAIRS = 1 << 15


def _profile_weight(du: np.ndarray, rule: ResonanceRule) -> float:
    """Overwrite ``du`` with the profile's shape; return its unit-mass constant.

    The profile is the constant times the shape: ``exp(-du**2 / 2 eps**2)``
    times ``1 / (eps sqrt(2 pi))``, or ``1 / (du**2 + eps**2)`` times
    ``eps / pi``.
    """
    eps = rule.epsilon
    np.multiply(du, du, out=du)
    if rule.profile == "gaussian":
        du *= -0.5 / (eps * eps)
        np.exp(du, out=du)
        return 1.0 / (eps * np.sqrt(2.0 * np.pi))
    du += eps * eps
    np.reciprocal(du, out=du)
    return eps / np.pi


@dataclass(frozen=True)
class _TriadPlan:
    """The resonant pairs ``(a, b)`` of live modes, one per orbit of the group.

    Row ``a`` is a live orbit representative (the smallest flat index of its
    orbit), and ``b`` runs over the live modes whose representative is no
    smaller, with ``c = a + b``.  ``chunks`` holds the pairs as
    ``(rows, counts, b, c, w)`` tuples of exactly ``_BLOCK_PAIRS`` pairs, the
    last one possibly shorter: ``counts[i]`` pairs of row ``a = rows[i]`` in
    turn, ``rows`` rising, so a row cut by a chunk boundary has a run in
    both chunks and a chunk's sum over each row is one ``np.add.reduceat``.
    Node indices are in ``np.min_scalar_type(n_nodes - 1)``, ``counts`` in
    ``np.min_scalar_type(_BLOCK_PAIRS)``.  ``w`` is ``W(a, b) / |Stab(a)|``,
    doubled when ``b`` is outside ``a``'s orbit, so that the pairs' images
    under the group count every ordered pair once.
    """

    chunks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]

    @property
    def pairs(self) -> int:
        return sum(chunk[4].size for chunk in self.chunks)

    @property
    def nbytes(self) -> int:
        return sum(x.nbytes for chunk in self.chunks for x in chunk)


def _collision_plan(grid: TorusGrid, rule: ResonanceRule) -> _TriadPlan:
    """Build the pruned pair list in blocks of rows ``a``, then re-pack it.

    Each block is cut against the largest weight seen so far, which never
    exceeds the global one, so the final cut against the global maximum,
    made once every block is scored, gives a list that does not depend on
    the block size.
    """
    blocks, top = _pruned_blocks(grid, rule)
    return _TriadPlan(_repack(_stored_weights(blocks, PAIR_CUT * top, grid)))


def _pruned_blocks(grid: TorusGrid, rule: ResonanceRule) -> tuple[list, float]:
    """The ``(rows, counts, b, c, w)`` each block of rows keeps, and the top weight.

    ``w`` is the doubled weight the cut reads.  Columns are the live modes
    in order of their representative, so row ``a`` takes the columns from
    its own, the first of its orbit, on.  A block is worked in three
    buffers allocated once and freed on return, next to ``d`` tables of
    ``m`` by ``n_live`` narrow node offsets.
    """
    m = grid.m
    index = np.min_scalar_type(grid.n_nodes - 1)
    group = _point_group(grid)
    canon = group.min(axis=0)
    omega = omega_grid(grid).reshape(-1)
    live = np.flatnonzero(active_mask(grid, rule))
    live = live[np.argsort(canon[live], kind="stable")]
    reps = live[canon[live] == live]
    first = np.searchsorted(canon[live], reps)  # the column of each row's orbit
    kinv = np.zeros(omega.size)
    kinv[live] = 1.0 / omega[live]
    omega_live, kinv_live = omega[live], kinv[live]
    # per axis, the wrap table (s % m) * stride of a coordinate sum s < 2m,
    # read at s = j + (the coordinate of each live b) for every j < m: the
    # c of a block is then one gather of rows an axis
    jl = np.unravel_index(live, grid.shape)
    jr = np.unravel_index(reps, grid.shape)
    shift = []
    for ax, j in enumerate(jl):
        wrap = ((np.arange(2 * m) % m) * m ** (grid.d - 1 - ax)).astype(index)
        shift.append(wrap[np.arange(m)[:, None] + j])
    nodes_live = live.astype(index)
    n_live = live.size
    span = max(1, _BLOCK_PAIRS // max(1, n_live))  # rows a block
    # one block's work arrays, allocated once: c, the profile argument and
    # the weight
    c_buf = np.empty(span * n_live, index)
    du_buf, w_buf = np.empty((2, c_buf.size))
    blocks = []  # (rows, counts, b, c, w) of the pairs each block kept
    top = 0.0
    for i0 in range(0, reps.size, span):
        i1 = min(reps.size, i0 + span)
        s0 = first[i0]
        shape = (i1 - i0, n_live - s0)
        c, du, w = (buf[: shape[0] * shape[1]].reshape(shape) for buf in (c_buf, du_buf, w_buf))
        c[...] = shift[0][jr[0][i0:i1], s0:]
        for ax in range(1, grid.d):
            c += shift[ax][jr[ax][i0:i1], s0:]
        np.take(omega, c, out=du, mode="clip")  # in range; "raise" would copy
        du -= omega[reps[i0:i1], None]
        du -= omega_live[None, s0:]
        unit = _profile_weight(du, rule)
        # W = kinv_a kinv_b kinv_c phi / 8, doubled: the profile's constant,
        # the 1/8 and the 2 ride on the row's kinv_a
        np.take(kinv, c, out=w, mode="clip")
        w *= du
        w *= kinv_live[None, s0:]
        w *= (0.25 * unit) * kinv[reps[i0:i1], None]
        # drop the columns before each row's own and halve the diagonal
        lo = first[i0:i1] - s0
        w[:, : lo[-1]][np.arange(lo[-1]) < lo[:, None]] = 0.0
        w[np.arange(lo.size), lo] *= 0.5
        top = max(top, float(w.max()))
        keep = np.flatnonzero(w > PAIR_CUT * top)
        counts = np.diff(np.searchsorted(keep, shape[1] * np.arange(lo.size + 1)))
        runs = counts > 0
        # one pass picks the kept pairs; their columns go in the dead du
        col = np.remainder(keep, shape[1], out=du_buf.view(np.intp)[: keep.size])
        blocks.append((
            reps[i0:i1][runs].astype(index),
            counts[runs],
            nodes_live[s0:].take(col),
            c.take(keep),
            w.take(keep),
        ))
    return blocks, top


def _stored_weights(blocks: list, cut: float, grid: TorusGrid) -> list:
    """Cut the blocks at doubled weight ``cut``, then divide by ``|Stab(a)|``,
    and by 2 where ``b != a`` is in ``a``'s orbit (its images hold both orders)."""
    group = _point_group(grid)
    canon = group.min(axis=0)
    stab_inv = 1.0 / np.count_nonzero(group == np.arange(grid.n_nodes, dtype=group.dtype), axis=0)
    for i, (rows, counts, b, c, w) in enumerate(blocks):
        keep = w > cut
        if not keep.all():
            counts = np.add.reduceat(keep, np.cumsum(counts) - counts, dtype=np.intp)
            runs = counts > 0
            rows, counts, b, c, w = rows[runs], counts[runs], b[keep], c[keep], w[keep]
        a = np.repeat(rows, counts)
        w *= stab_inv[a]
        w[(canon[b] == a) & (b != a)] *= 0.5
        blocks[i] = (rows, counts, b, c, w)
    return blocks


def _repack(blocks: list) -> tuple:
    """Re-pack the build blocks into chunks of ``_BLOCK_PAIRS`` pairs.

    Row runs are split where a chunk boundary falls inside them.  Blocks
    are consumed in order and each is released once its pairs are copied,
    so the build never holds a second copy of the whole list.
    """
    if not blocks:  # no live modes
        return ()
    ends = np.cumsum(np.concatenate([blk[1] for blk in blocks]))
    total = int(ends[-1]) if ends.size else 0
    # a run ends at the end of its row or at a chunk boundary inside it
    bounds = np.arange(0, total, _BLOCK_PAIRS)
    cuts = np.sort(np.concatenate((ends, bounds[1:])))
    cuts = cuts[np.diff(cuts, prepend=0) > 0]
    rows = np.concatenate([blk[0] for blk in blocks])[np.searchsorted(ends, cuts)]
    counts = np.diff(cuts, prepend=0).astype(np.min_scalar_type(_BLOCK_PAIRS))
    first = np.searchsorted(cuts, bounds[1:], side="right")
    runs = zip(np.split(rows, first), np.split(counts, first))
    chunks, fill = [], _BLOCK_PAIRS
    blocks.reverse()
    while blocks:
        blk = blocks.pop()[2:]
        s, n = 0, blk[2].size
        while s < n:
            if fill == _BLOCK_PAIRS:
                size = min(_BLOCK_PAIRS, total - len(chunks) * _BLOCK_PAIRS)
                chunks.append(next(runs) + tuple(np.empty(size, x.dtype) for x in blk))
                fill = 0
            take = min(n - s, size - fill)
            for dst, src in zip(chunks[-1][2:], blk):
                dst[fill:fill + take] = src[s:s + take]
            s += take
            fill += take
    return tuple(chunks)


_held = threading.local()


def _thread_plan(grid: TorusGrid, rule: ResonanceRule) -> _TriadPlan:
    """The plan of ``(grid, rule)``; each thread holds only its latest one.

    A sweep child runs on one thread and asks for one plan, so a serial
    sweep keeps one plan alive and a threaded one one per worker.
    """
    key = (grid, rule)
    if getattr(_held, "key", None) != key:
        _held.key = _held.plan = None  # free the old plan before building
        _held.plan = _collision_plan(grid, rule)
        _held.key = key
    return _held.plan


def collision_rate(f: np.ndarray, grid: TorusGrid, rule: ResonanceRule) -> np.ndarray:
    """Collision operator of ``f`` (shape ``grid.shape``) over the plan's pairs.

    Momentum deltas are resolved exactly on the grid; the frequency delta is
    broadened to the rule's unit-mass profile.  Modes outside
    :func:`active_mask` neither receive nor donate.  Quadrature weight
    ``m**-d``.  For each ``g``, a chunk adds ``bincount(c, T)`` of ``f o g``,
    less the sum of ``T`` over each row run at its row, less
    ``bincount(b, T)``, mapped back through ``g``.
    """
    flat = np.ascontiguousarray(f, dtype=np.float64).reshape(-1)
    plan = _thread_plan(grid, rule)
    group = _point_group(grid)
    n = flat.size
    rate = np.zeros(n)
    # b and c widened to intp once a chunk (np.take and np.bincount would
    # copy narrow indices), two float64 operands, and f_a's run expansion
    size = min(_BLOCK_PAIRS, plan.pairs)
    b_buf, c_buf = np.empty((2, size), np.intp)
    y_buf, t_buf = np.empty((2, size))
    for rows, counts, b, c, w in plan.chunks:
        k = w.size
        ib, ic, y, t = b_buf[:k], c_buf[:k], y_buf[:k], t_buf[:k]
        ib[...] = b
        ic[...] = c
        # a chunk's rows are unique, so the out-of-a term is one sum a run
        starts = np.cumsum(counts, dtype=np.intp)
        starts -= counts
        for g in group:
            fg = flat[g]
            x = np.repeat(fg[rows], counts)
            # mode="raise" would gather into a copy; the indices are in range
            np.take(fg, ib, out=y, mode="clip")
            # t = w * (fa * fb - fg[c] * (fa + fb))
            np.multiply(x, y, out=t)
            np.add(x, y, out=y)
            np.take(fg, ic, out=x, mode="clip")
            np.multiply(x, y, out=y)
            del x  # one run expansion alive at a time
            np.subtract(t, y, out=t)
            np.multiply(w, t, out=t)
            net = np.bincount(ic, t, n)
            net[rows] -= np.add.reduceat(t, starts)
            net -= np.bincount(ib, t, n)
            rate[g] += net
    return (rate / grid.n_nodes).reshape(f.shape)


@dataclass
class CollisionDiagnostics:
    """Mutable accumulator threaded through :func:`step` calls."""

    clipped_mass: float = 0.0
    clip_events: int = 0


def collision(f: np.ndarray, grid: TorusGrid, rule: ResonanceRule) -> np.ndarray:
    """Collision rate ``C[f]`` of the spectrum array ``f`` (shape ``grid.shape``)."""
    arr = np.asarray(f, dtype=np.float64)
    if arr.shape != grid.shape:
        raise SizeMismatchError(f"spectrum shape {arr.shape} vs grid {grid.shape}")
    return collision_rate(arr, grid, rule)


def step(
    f: np.ndarray,
    grid: TorusGrid,
    rule: ResonanceRule,
    dtau: float,
    scheme: str = "rk4",
    diag: CollisionDiagnostics | None = None,
    index: int = 0,
) -> np.ndarray:
    """One explicit time step of ``df/dtau = C[f]``, into a new array.

    ``index`` is the step's place in a run from tau 0, which it ends at
    ``(index + 1) * dtau``.  Negative values produced by the update are
    clipped to zero; the clipped mass (quadrature-weighted) is recorded on
    ``diag`` when given.  Growth beyond ``BLOWUP_BOUND``, or a NaN, aborts
    with a :class:`NumericalBlowupError` that names the step, the time it
    was to reach and the worst mode.
    """
    check_step("dtau", dtau)
    if scheme == "rk4":
        k1 = collision(f, grid, rule)
        k2 = collision(f + 0.5 * dtau * k1, grid, rule)
        k3 = collision(f + 0.5 * dtau * k2, grid, rule)
        k4 = collision(f + dtau * k3, grid, rule)
        new = f + dtau / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    elif scheme == "euler":
        new = f + dtau * collision(f, grid, rule)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    worst = int(np.argmax(np.abs(new)))  # the first NaN, if there is one
    value = float(new.flat[worst])
    if not abs(value) <= BLOWUP_BOUND:
        mode = tuple(int(i) for i in np.unravel_index(worst, new.shape))
        raise NumericalBlowupError(
            f"collision step to tau {(index + 1) * dtau:.6g} left bounds: "
            f"f = {value:.3e} at mode {mode}",
            step=index,
        )
    neg = new < 0.0
    if diag is not None and np.any(neg):
        diag.clip_events += 1
        diag.clipped_mass += float(-new[neg].sum() * grid.cell_measure)
    return np.where(neg, 0.0, new)


def evolve(
    f: np.ndarray,
    grid: TorusGrid,
    rule: ResonanceRule,
    dtau: float,
    n_steps: int,
    scheme: str = "rk4",
    diag: CollisionDiagnostics | None = None,
    step0: int = 0,
) -> np.ndarray:
    """Repeat :func:`step` from the spectrum array ``f`` at the run's step
    ``step0``; step ``i`` is the run's step ``step0 + i``, ending at
    ``(step0 + i + 1) * dtau``, and a blowup names that step and time.

    ``f`` must be finite and nonnegative, with the grid's shape; the steps
    that follow are held to ``BLOWUP_BOUND`` alone.
    """
    check_step("dtau", dtau)
    f = np.asarray(f, dtype=np.float64)
    if f.shape != grid.shape:
        raise SizeMismatchError(f"spectrum shape {f.shape} does not match grid {grid.shape}")
    if not (np.all(np.isfinite(f)) and f.min() >= 0.0):
        raise ValueError(f"spectrum must be finite and nonnegative, min value {f.min():.3e}")
    for i in range(step0, step0 + n_steps):
        f = step(f, grid, rule, dtau, scheme, diag, index=i)
    return f


def energy_moment(f: np.ndarray, grid: TorusGrid) -> float:
    """Dispersion-weighted total ``m^-d sum_k w(k) f(k)`` of the spectrum array ``f``.

    Conserved by the sharp-resonance operator; its drift under the broadened
    one is a resolution diagnostic.  A plain quadrature, it weights by
    :func:`~kinlat.lattice.dispersion` at the nodes as evaluated, not by the
    group-invariant :func:`omega_grid` the operator needs.
    """
    arr = np.asarray(f)
    if arr.shape != grid.shape:
        raise SizeMismatchError(f"spectrum shape {arr.shape} vs grid {grid.shape}")
    return float(np.sum(dispersion(nodes(grid)) * arr) * grid.cell_measure)


def rayleigh_jeans(grid: TorusGrid, temperature: float, rule: ResonanceRule) -> np.ndarray:
    """Equilibrium spectrum ``T/w`` with frozen modes set to zero."""
    w = omega_grid(grid)
    mask = active_mask(grid, rule)
    return np.where(mask, temperature / np.where(mask, w, 1.0), 0.0)
