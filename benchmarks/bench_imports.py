"""Import sheet: what each pipeline's process imports, and its time and memory.

Usage::

    python3 benchmarks/bench_imports.py [--spawns 7]

For each pipeline, ``--spawns`` fresh interpreters import ``kinlat.cli``
(which loads numpy, as the ``kinlat`` command does), then bind the lanes
(wave, kinetic, chain, Vlasov modules) that ``kinlat.harness.run`` binds
for that pipeline, then draw one replica
through the sampler its driver calls (``sample_initial`` for ``wt-sim`` and
``wt-compare``, ``sample_ensemble`` for ``chain-sim`` and ``mf-compare``),
since a sampler may import more on its first call.  The sheet prints the
median milliseconds of the numpy import (its cumulative time under
``-X importtime``) and of the rest of the kinlat import and binding, the
median peak resident memory of the interpreter after the draw
(``ru_maxrss``, in MiB), whether ``numpy.random`` and OpenSSL's binding
``_hashlib`` (and with it libcrypto, about 3.5 MiB) got loaded, and the
kinlat modules then loaded.  After the draw each interpreter idles 0.3 s
and the sheet prints the median CPU seconds its threads other than the
main one used by then (user plus system, from ``/proc/self/task``; ``-``
where that is absent): OpenBLAS's workers, which get no work from kinlat's
small GEMMs, and spin unless ``kinlat.cli``'s ``OPENBLAS_THREAD_TIMEOUT``
default lets them sleep.  The first row imports ``kinlat.cli`` and binds
no lane.  ``oracle-suite`` also imports ``kinlat._reference`` and
``kinlat._ziggurat`` when its cases run, which the sheet does not count.
The kinlat source is this checkout's.

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
import json, os, resource, sys, time
t0 = time.perf_counter()
import kinlat.cli
import numpy
from kinlat import harness
pipeline, sampler = sys.argv[1:]
if pipeline != "-":
    harness._bind(*harness._DRIVERS[pipeline][1])
t1 = time.perf_counter()
if sampler == "wave":
    harness.sample_initial(harness.EnsembleSpec(1, 0, numpy.ones(9)), harness.TorusGrid(1, 9))
elif sampler == "chain":
    from kinlat.chain import GaussianLaw
    harness.sample_ensemble(GaussianLaw(), harness.TorusGrid(1, 16), 1, 0)
time.sleep(0.3)
tasks = "/proc/self/task"
others = None
if os.path.isdir(tasks):
    ticks = 0
    for t in os.listdir(tasks):
        if int(t) != os.getpid():
            with open(f"{tasks}/{t}/stat") as fh:
                ticks += sum(map(int, fh.read().rsplit(")", 1)[1].split()[11:13]))  # utime, stime
    others = ticks / os.sysconf("SC_CLK_TCK")
loaded = sorted(m[len("kinlat."):] for m in sys.modules if m.startswith("kinlat."))
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
report = {
    "import": t1 - t0,
    "peak": peak,
    "random": "numpy.random" in sys.modules,
    "ssl": "_hashlib" in sys.modules,
    "others": others,
    "modules": loaded,
}
print(json.dumps(report))
"""

# pipeline -> the sampler its driver draws through; the others draw nothing
SAMPLER = {"wt-sim": "wave", "wt-compare": "wave", "chain-sim": "chain", "mf-compare": "chain"}


def _spawn(pipeline: str) -> dict:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", CHILD, pipeline, SAMPLER.get(pipeline, "-")],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(res.stdout)
    # "import time: self [us] | cumulative | imported package", one line a module
    (numpy_us,) = (
        int(line.split("|")[1])
        for line in res.stderr.splitlines()
        if line.startswith("import time:") and line.rsplit("|", 1)[1].strip() == "numpy"
    )
    report["numpy"] = numpy_us / 1e6
    report["kinlat"] = report.pop("import") - report["numpy"]
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spawns", type=int, default=7, help="interpreters per row")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from kinlat.harness import _DRIVERS

    cached = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    print(f"python {sys.version.split()[0]}, {args.spawns} spawns a row, bytecode cache {cached}")
    print(
        f"{'pipeline':<14}{'numpy ms':>10}{'kinlat ms':>11}{'peak MiB':>10}"
        f"{'numpy.random':>14}{'_hashlib':>10}{'others cpu s':>14}  kinlat modules"
    )
    for pipeline in ["-", *_DRIVERS]:
        runs = [_spawn(pipeline) for _ in range(args.spawns)]
        numpy_ms = 1e3 * statistics.median(r["numpy"] for r in runs)
        kinlat_ms = 1e3 * statistics.median(r["kinlat"] for r in runs)
        peak = statistics.median(r["peak"] for r in runs)
        random = "loaded" if any(r["random"] for r in runs) else "no"
        ssl = "loaded" if any(r["ssl"] for r in runs) else "no"
        spun = [r["others"] for r in runs if r["others"] is not None]
        others = f"{statistics.median(spun):.2f}" if spun else "-"
        label = "cli only" if pipeline == "-" else pipeline
        modules = " ".join(runs[-1]["modules"])
        print(
            f"{label:<14}{numpy_ms:>10.1f}{kinlat_ms:>11.1f}{peak:>10.2f}"
            f"{random:>14}{ssl:>10}{others:>14}  {modules}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
