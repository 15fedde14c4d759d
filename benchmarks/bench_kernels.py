"""Timing sheet for the hot numpy kernels and the Vlasov Strang step.

Usage::

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeats 7] [--batch 16]

Each case is called once before timing so plan building and allocator
warm-up stay out of the numbers.  It is then timed in batches of calls
that last at least ``BATCH_SECONDS`` (20 ms), so a sub-millisecond case
is not read off single calls of the clock; the sheet prints the per-call
median and quartiles over ``--repeats`` batches.  The wave interaction is
timed at d=1 on each side of ``waves.TABLE_MAX_N`` (N = 33 and 513), once
by the DFT tables and once by the FFT pair, with ``*`` on the path
``wave_nonlinear`` takes, so the crossover can be measured again with this
one command; at d=2 (N = 17) it runs by the FFT pair alone.  Each case
uses the replica block the harness steps at that size (``BLOCK_BYTES``
over the bytes of one replica's half field a(+): 124, 7 and 14 rows).  One
exponential step of the N=33 block makes four table calls.  The collision
cases at d=2, m=40 (the grid of the kinetic-sweep benchmark, dispersion floor 0.05)
time the plan build on its own, then an evaluation with the plan in hand.
A row per width then lists the order of the point group |G|, the pairs the
plan stores (one per orbit) and the unordered pairs they expand to under
the group, its chunks, MiB and bytes per pair, the build and evaluation
medians, and the tracemalloc peaks, above the plan, of one build and of
one evaluation.
The chain cases time one force evaluation at d=1, n=512 with the chain
symbol cached, one whole velocity Verlet run of 250 steps at d=1, n=512 on
64 replicas (the meanfield benchmark's chain run: one closed-form map, so
its cost does not grow with the steps), and at d=2, n=64 the symbol build
plus one evaluation.
The Vlasov cases work on the 32x128x128 grid of the meanfield benchmark,
with a density whose mean r varies with x.  They time one half-step r-sweep
(copy each slab aside, shift it back in place), one v-sweep (each slab
shifted aside, with the per-line offsets, weights and runs built from its
rows of the acceleration), one acceleration field, and one Strang step:
two half r-sweeps, one v-sweep and one field, written in place into the
density it reads, as ``vlasov_evolve`` steps its working array.  On 2 cores
a step takes about 7 ms, of which the two r-sweeps take about 3 ms, the
v-sweep about 2.7 ms and the field about 0.4 ms.  The sheet ends with the
bytes the step's workspace holds next to one density's.
"""

from __future__ import annotations

import argparse
import time
import tracemalloc

import numpy as np

from kinlat.chain import (
    ChainGeometry,
    FractionalParams,
    GaussianLaw,
    chain_force_flat,
    verlet_evolve,
)
from kinlat.harness import BLOCK_BYTES
from kinlat.kinetic import (
    ResonanceRule,
    TorusGrid,
    _collision_plan,
    _point_group,
    collision_rate,
)
from kinlat.lattice import LatticeSpec
from kinlat.vlasov import PhaseGrid, _Strang, acceleration, density_from_law
from kinlat.waves import (
    ModelParams,
    _fft_nonlinear,
    _integrate_array,
    _table_nonlinear,
    _uses_tables,
)

# the interaction on each side of the d = 1 table crossover (N = 33 | 513),
# and at d = 2, N = 17
WAVE_SPECS = (LatticeSpec(1, 16), LatticeSpec(1, 256), LatticeSpec(2, 8))
PLAN_GRID = TorusGrid(2, 40)
PLAN_RULES = tuple(ResonanceRule(eps, "gaussian", 0.05) for eps in (0.2, 0.1, 0.05, 0.02))
VLASOV_GRID = PhaseGrid(32, 128, 128, 1.0, 1.2)
BATCH_SECONDS = 0.02
VERLET_STEPS = 250  # the meanfield benchmark's chain run


def _batch_seconds(fn, calls: int) -> float:
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return time.perf_counter() - t0


def _per_call_times(fn, repeats: int) -> np.ndarray:
    """Seconds per call over ``repeats`` batches of at least ``BATCH_SECONDS``."""
    calls = 1
    while _batch_seconds(fn, calls) < BATCH_SECONDS:
        calls *= 2
    return np.array([_batch_seconds(fn, calls) / calls for _ in range(repeats)])


def _expanded_pairs(plan, grid: TorusGrid) -> int:
    """The unordered pairs the plan's pairs stand for: their images under the group."""
    n, group = grid.n_nodes, _point_group(grid).astype(np.intp)
    a = np.concatenate([np.repeat(rows, counts) for rows, counts, *_ in plan.chunks])
    b = np.concatenate([chunk[2] for chunk in plan.chunks])
    a, b = a.astype(np.intp), b.astype(np.intp)
    keys = [np.minimum(g[a], g[b]) * n + np.maximum(g[a], g[b]) for g in group]
    return int(np.unique(np.concatenate(keys)).size)


def _half_field(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _block_rows(spec: LatticeSpec) -> int:
    """Replicas in the block the harness steps: ``BLOCK_BYTES`` over one a(+)."""
    return max(1, BLOCK_BYTES // (np.dtype(np.complex128).itemsize * spec.n_sites))


def _cases(rng, batch: int):
    # shapes mirror what the pipelines actually push through the kernels:
    # the replica block the harness steps, the d=1 refinement ladder for the
    # collision operator, and a long d=1 chain
    for spec in WAVE_SPECS:
        rows = _block_rows(spec)
        b = _half_field(rng, (rows,) + spec.shape)
        paths = [("fft", _fft_nonlinear)]
        if spec.d == 1:  # the table kernel is d = 1 only
            paths.insert(0, ("tables", _table_nonlinear))
        taken = "tables" if _uses_tables(spec) else "fft"
        for path, kernel in paths:
            yield (
                f"wave interaction d={spec.d} N={spec.N} block={rows} {path}"
                + ("*" if path == taken else ""),
                lambda b=b, spec=spec, kernel=kernel: kernel(b, spec, 0.3),
            )
    spec1 = WAVE_SPECS[0]
    rows = _block_rows(spec1)
    b1 = _half_field(rng, (rows,) + spec1.shape)
    params1 = ModelParams(spec1, 0.05)
    yield (
        f"wave exponential step d=1 N={spec1.N} block={rows}",
        lambda: _integrate_array(b1, params1, 0.01, 1),
    )

    f1, g1, r1 = rng.uniform(0.1, 1.0, size=256), TorusGrid(1, 256), ResonanceRule(0.025)
    yield ("collision rate d=1 m=256", lambda: collision_rate(f1, g1, r1))

    f2, g2, r2 = rng.uniform(0.1, 1.0, size=(20, 20)), TorusGrid(2, 20), ResonanceRule(0.2)
    yield ("collision rate d=2 m=20", lambda: collision_rate(f2, g2, r2))

    f40 = rng.uniform(0.1, 1.0, size=(40, 40))
    for rule in PLAN_RULES:
        yield (
            f"collision plan build d=2 m=40 eps={rule.epsilon:g}",
            lambda rule=rule: _collision_plan(PLAN_GRID, rule),
        )
        yield (
            f"collision rate d=2 m=40 eps={rule.epsilon:g}",
            lambda rule=rule: collision_rate(f40, PLAN_GRID, rule),
        )

    r = rng.normal(size=(batch, 512))
    geom, fp = ChainGeometry(1, 512), FractionalParams(0.4)
    yield (
        f"chain force d=1 n=512 batch={batch}",
        lambda: chain_force_flat(r, geom, fp),
    )
    rv = rng.normal(scale=0.1, size=(2, 64, 512))
    yield (
        f"chain verlet run d=1 n=512 batch=64 {VERLET_STEPS} steps",
        lambda: verlet_evolve(*rv, geom, fp, 1e-3, VERLET_STEPS),
    )

    r2, geom2 = rng.normal(size=(batch, 64 * 64)), ChainGeometry(2, 64)

    def table_and_force():
        FractionalParams.chain_symbol.cache_clear()
        return chain_force_flat(r2, geom2, fp)

    yield (f"chain table + force d=2 n=64 batch={batch}", table_and_force)

    grid, fp = VLASOV_GRID, FractionalParams(0.5)
    law = GaussianLaw(lambda x: 0.2 * np.cos(2 * np.pi * x[..., 0]), 0.0, 0.1, 0.1)
    strang, g = _Strang(grid, 0.01), density_from_law(law, grid)
    s_v = (acceleration(g, grid, fp) * strang.dt / grid.dv)[:, :, None]

    def r_sweep():
        for x in strang.slabs:
            mid = strang.mid[: x.stop - x.start]
            mid[...] = g[x]
            strang.r_sweep(mid, g[x])

    def v_sweep():
        for x in strang.slabs:
            strang.v_sweep.set_shifts(s_v[x])(g[x], strang.mid[: x.stop - x.start])

    yield ("vlasov half r-sweep 32x128x128", r_sweep)
    yield ("vlasov v-sweep 32x128x128", v_sweep)
    yield ("vlasov acceleration 32x128x128", lambda: acceleration(g, grid, fp))
    yield ("vlasov strang step 32x128x128 in place", lambda: strang.step(g, fp, out=g))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--batch", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)

    width = 46
    medians = {}
    print(f"{'case':<{width}} {'median':>10} {'q1':>10} {'q3':>10}  (ms per call)")
    for name, call in _cases(rng, args.batch):
        call()  # warm up before the clock starts
        per_call = _per_call_times(call, args.repeats)
        q1, med, q3 = np.percentile(per_call, [25, 50, 75]) * 1e3
        medians[name] = med
        print(f"{name:<{width}} {med:>10.3f} {q1:>10.3f} {q3:>10.3f}")
    f40 = rng.uniform(0.1, 1.0, size=PLAN_GRID.shape)
    order = len(_point_group(PLAN_GRID))
    for rule in PLAN_RULES:
        collision_rate(f40, PLAN_GRID, rule)  # the thread now holds this plan
        tracemalloc.start()
        plan = _collision_plan(PLAN_GRID, rule)
        build = tracemalloc.get_traced_memory()[1] - plan.nbytes
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        collision_rate(f40, PLAN_GRID, rule)
        rate = tracemalloc.get_traced_memory()[1] - held
        tracemalloc.stop()
        eps = f"eps={rule.epsilon:g}"
        print(
            f"collision plan d=2 m=40 {eps}: |G| {order}, {plan.pairs} pairs stored, "
            f"{_expanded_pairs(plan, PLAN_GRID)} expanded, in {len(plan.chunks)} chunks, "
            f"{plan.nbytes / 2**20:.2f} MiB, {plan.nbytes / max(1, plan.pairs):.2f} B per pair; "
            f"build {medians[f'collision plan build d=2 m=40 {eps}']:.2f} ms, "
            f"evaluation {medians[f'collision rate d=2 m=40 {eps}']:.2f} ms; peak above the "
            f"plan: build {build / 2**20:.2f} MiB, one evaluation {rate / 2**20:.2f} MiB"
        )
    tracemalloc.start()
    strang = _Strang(VLASOV_GRID, 0.01)
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    print(
        f"vlasov strang workspace 32x128x128: {held / 2**20:.2f} MiB, "
        f"density {8 * np.prod(VLASOV_GRID.shape) / 2**20:.2f} MiB"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
