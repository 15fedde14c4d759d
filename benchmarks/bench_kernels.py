"""Timing sheet for the hot numpy kernels and the Vlasov line shifts.

Usage::

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeats 7] [--batch 16]

Each case is called once before timing so plan building and allocator
warm-up stay out of the numbers; the reported figure is the median of the
repeat wall times.  The d=1 wave cases use the replica block the harness
steps at N=33 (``BLOCK_BYTES`` over the bytes of one replica, 62 rows):
one interaction call, and one exponential step of that block, which makes
four of them.  The collision cases at d=2, m=40 (the grid of the
kinetic-sweep benchmark, dispersion floor 0.05) time the plan build on its
own, then an evaluation with the plan in hand, and list the plan's size.
The chain cases time one force evaluation at d=1, n=512 with the kernel
table cached, and at d=2, n=64 the table build plus one evaluation.
The line-shift cases time what one Strang step does on the 32x128x128 grid
of the meanfield benchmark: an r-sweep applies a table built once per run,
and a v-sweep refills its table from new shifts first.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from kinlat.chain import chain_force_flat, chain_kernel_table
from kinlat.harness import BLOCK_BYTES
from kinlat.kinetic import ResonanceRule, TorusGrid, _collision_plan, collision_rate
from kinlat.lattice import LatticeSpec
from kinlat.vlasov import PhaseGrid, _LineShift, _scratch, v_centers
from kinlat.waves import ModelParams, _integrate_array, wave_nonlinear


PLAN_GRID = TorusGrid(2, 40)
PLAN_RULES = tuple(ResonanceRule(eps, "gaussian", 0.05) for eps in (0.2, 0.05, 0.02))


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _cases(rng, batch: int):
    # shapes mirror what the pipelines actually push through the kernels:
    # the replica block the harness steps, the d=1 refinement ladder for the
    # collision operator, and a long d=1 chain
    spec1 = LatticeSpec(1, 16)
    shape1 = (2,) + spec1.shape
    rows = max(1, BLOCK_BYTES // np.empty(shape1, dtype=np.complex128).nbytes)
    a1 = rng.normal(size=(rows,) + shape1) + 1j * rng.normal(size=(rows,) + shape1)
    yield (
        f"wave interaction d=1 N={spec1.N} block={rows}",
        lambda: wave_nonlinear(a1, spec1, 0.3),
    )
    params1 = ModelParams(spec1, 0.05)
    yield (
        f"wave exponential step d=1 N={spec1.N} block={rows}",
        lambda: _integrate_array(a1, params1, 0.01, 1),
    )

    spec2 = LatticeSpec(2, 6)
    a2 = rng.normal(size=(batch, 2) + spec2.shape) + 1j * rng.normal(
        size=(batch, 2) + spec2.shape
    )
    yield (
        f"wave interaction d=2 N={spec2.N} batch={batch}",
        lambda: wave_nonlinear(a2, spec2, 0.3),
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
    yield (
        f"chain force d=1 n=512 batch={batch}",
        lambda: chain_force_flat(r, 1, 512, 0.4),
    )

    r2 = rng.normal(size=(batch, 64 * 64))

    def table_and_force():
        chain_kernel_table.cache_clear()
        return chain_force_flat(r2, 2, 64, 0.4)

    yield (f"chain table + force d=2 n=64 batch={batch}", table_and_force)

    grid = PhaseGrid(32, 128, 128, 1.0, 1.2)
    dt = 0.01
    s_r = (v_centers(grid) * (0.5 * dt) / grid.dr).reshape(1, 1, grid.mv)
    s_v = rng.uniform(-2.0, 2.0, size=(grid.mx, grid.mr, 1))
    g = rng.random(grid.shape)
    out = np.empty(grid.shape)
    scratch = _scratch(grid.shape)
    r_sweep = _LineShift(grid.shape, 1, False, scratch).set_shifts(s_r)
    r_sweep.inside[...] = g
    v_sweep = _LineShift(grid.shape, 2, True, scratch)
    v_sweep.inside[...] = g
    yield ("line shift r-sweep 32x128x128", lambda: r_sweep(out))
    yield ("line shift v-sweep 32x128x128", lambda: v_sweep.set_shifts(s_v)(out))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--batch", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)

    width = 44
    print(f"{'case':<{width}} {'median':>10}")
    for name, call in _cases(rng, args.batch):
        call()  # warm up before the clock starts
        print(f"{name:<{width}} {_median_time(call, args.repeats) * 1e3:>8.2f}ms")
    for rule in PLAN_RULES:
        plan = _collision_plan(PLAN_GRID, rule)
        print(
            f"collision plan d=2 m=40 eps={rule.epsilon:g}: "
            f"{plan.w.size} pairs, {plan.nbytes / 2**20:.1f} MiB"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
