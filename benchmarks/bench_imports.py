"""Import sheet: what each pipeline's process imports, and how long that takes.

Usage::

    python3 benchmarks/bench_imports.py [--spawns 7]

For each pipeline, ``--spawns`` fresh interpreters import numpy, then
``kinlat.cli``, then bind the lanes (wave, kinetic, chain, Vlasov modules)
that ``kinlat.harness.run`` binds for that pipeline.  The sheet prints the
median milliseconds of the numpy import and of the kinlat part, and the
kinlat modules then loaded.  The first row imports ``kinlat.cli`` and binds
no lane.  ``oracle-suite`` also imports ``kinlat._reference`` when its cases
run, which the sheet does not count.  The kinlat source is this checkout's.

When ``PYTHONDONTWRITEBYTECODE`` is set, or no ``__pycache__`` is
writable, every interpreter compiles kinlat from source; the sheet's header
says which.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import json, sys, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import kinlat.cli
from kinlat import harness
pipeline = sys.argv[1]
if pipeline != "-":
    harness._bind(*harness._DRIVERS[pipeline][1])
t2 = time.perf_counter()
loaded = sorted(m[len("kinlat."):] for m in sys.modules if m.startswith("kinlat."))
print(json.dumps({"numpy": t1 - t0, "kinlat": t2 - t1, "modules": loaded}))
"""


def _spawn(pipeline: str) -> dict:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", CHILD, pipeline],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(res.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spawns", type=int, default=7, help="interpreters per row")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from kinlat.harness import _DRIVERS

    cached = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    print(f"python {sys.version.split()[0]}, {args.spawns} spawns a row, bytecode cache {cached}")
    print(f"{'pipeline':<14}{'numpy ms':>10}{'kinlat ms':>11}  kinlat modules")
    for pipeline in ["-", *_DRIVERS]:
        runs = [_spawn(pipeline) for _ in range(args.spawns)]
        numpy_ms = 1e3 * statistics.median(r["numpy"] for r in runs)
        kinlat_ms = 1e3 * statistics.median(r["kinlat"] for r in runs)
        label = "cli only" if pipeline == "-" else pipeline
        modules = " ".join(runs[-1]["modules"])
        print(f"{label:<14}{numpy_ms:>10.1f}{kinlat_ms:>11.1f}  {modules}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
