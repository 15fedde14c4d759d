"""kinlat end-to-end benchmark.

Runs the ``kinlat`` CLI from the source tree of this checkout as one fresh
process per sample, with ``--check`` and ``--workers 1``, and prints the
end-to-end metrics of each workload as medians over its samples::

    python3 perfbench/run.py --workload meanfield --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 60

The last line of the output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 1`` the metrics are the per-layer
ones of :mod:`tracing`, from traced samples interleaved with untraced ones.
``--record-reference`` reruns every input of every workload once and rewrites
``reference.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from workloads import INPUTS, WORKLOADS, Workload, input_index, output_digests, outputs_changed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench"

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)

MIN_ROUNDS = 3  # measured rounds, even when --seconds is shorter
RUN_BUDGET_S = 150.0  # no round starts that would end after this
SAMPLE_TIMEOUT_S = 120.0


@dataclass
class Sample:
    workload: str
    traced: bool
    warmup: bool
    exit_code: int = -1
    wall_s: float = 0.0
    setup_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    failure: str = ""
    headline: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failure


def child_env() -> dict:
    """The parent's environment with BLAS/OpenMP threads capped at nproc."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        try:
            n = int(env.get(var, ""))
        except ValueError:
            n = NPROC
        env[var] = str(min(max(n, 1), NPROC))
    env["KINLAT_WORKERS"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _tail(path: Path, n: int = 2) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return " / ".join(lines[-n:])


def run_sample(
    workload: Workload,
    index: int,
    traced: bool,
    warmup: bool,
    reference: dict | None,
    sample_dir: Path,
) -> Sample:
    """Spawn one ``kinlat`` process on the workload's config and gate its outputs."""
    sample = Sample(workload.name, traced, warmup)
    sample_dir.mkdir(parents=True)
    config = sample_dir / "config.json"
    config.write_text(json.dumps(workload.config(index)))
    out, record, log = sample_dir / "out", sample_dir / "record.json", sample_dir / "log.txt"
    argv = [
        sys.executable,
        str(HERE / "child.py"),
        str(record),
        "1" if traced else "0",
        str(SRC),
        workload.command,
        "--config",
        str(config),
        "--out",
        str(out),
        "--check",
        "--workers",
        "1",
    ]
    try:
        with open(log, "wb") as log_fh:
            t0 = time.monotonic_ns()
            proc = subprocess.Popen(
                argv,
                stdin=subprocess.DEVNULL,
                stdout=log_fh,
                stderr=subprocess.STDOUT,
                env=child_env(),
                cwd=sample_dir,
            )
            timer = threading.Timer(SAMPLE_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            t1 = time.monotonic_ns()
        proc.returncode = sample.exit_code = os.waitstatus_to_exitcode(status)
        sample.wall_s = (t1 - t0) / 1e9
        sample.cpu_s = usage.ru_utime + usage.ru_stime
        sample.peak_rss_mb = usage.ru_maxrss / 1024.0
        if sample.exit_code != 0:
            sample.failure = f"exit code {sample.exit_code}: {_tail(log)}"
            return sample
        try:
            rec = json.loads(record.read_text())
            sample.headline = workload.headline(out)
        except (OSError, KeyError, IndexError, ValueError) as e:
            sample.failure = f"unreadable result: {type(e).__name__}: {e}"
            return sample
        if rec.get("setup_end_ns") is None:
            sample.failure = "the CLI never reached the harness"
            return sample
        sample.setup_s = (rec["setup_end_ns"] - t0) / 1e9
        sample.digests = output_digests(out)
        if reference is not None:
            sample.failure = workload.check(sample.headline, reference["headline"])
        if traced:
            sample.absent = rec["absent"]
            sample.layers = tracing.layer_metrics(rec["spans"], rec["absent"], workload.vlasov_steps)
        files = [p for p in out.rglob("*") if p.is_file()]
        sample.layers["io.files"] = float(len(files))
        sample.layers["io.bytes_written"] = float(sum(p.stat().st_size for p in files))
        if reference is not None:
            sample.layers["io.outputs_changed"] = float(
                outputs_changed(sample.digests, reference["digests"])
            )
        return sample
    finally:
        shutil.rmtree(sample_dir, ignore_errors=True)


def collect(
    workloads: list[Workload],
    seed: int,
    seconds: float,
    trace: bool,
    references: dict,
    work: Path,
) -> list[Sample]:
    """One warm-up round, then measured rounds until ``seconds`` would be exceeded.

    A round runs every workload once (and once more traced, with ``trace``),
    so workloads interleave and a drifting host biases none of them.
    """
    index = input_index(seed)
    samples: list[Sample] = []
    begin = time.monotonic()

    def round_(kinds, warmup):
        for traced in kinds:
            for w in workloads:
                ref = references.get(w.name, [None] * INPUTS)[index]
                sample_dir = work / f"sample-{len(samples)}"
                samples.append(run_sample(w, index, traced, warmup, ref, sample_dir))

    round_([False], warmup=True)
    kinds = [False, True] if trace else [False]
    start, rounds = time.monotonic(), 0
    while True:
        round_(kinds, warmup=False)
        rounds += 1
        now = time.monotonic()
        per_round = (now - start) / rounds
        if now - begin + per_round > RUN_BUDGET_S:
            break
        if rounds >= MIN_ROUNDS and now - start + per_round > seconds:
            break
    return samples


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(samples: list[Sample], trace: bool) -> dict[str, tuple[float, float, float, int]]:
    """Median (with quartiles and sample count) of each metric over passing samples.

    Warm-up samples, failed samples and (for end-to-end metrics) traced
    samples are left out.  Failed samples count only in ``runs_failed``.
    """
    plain = [s for s in samples if s.ok and not s.warmup and not s.traced]
    out = {}
    if not trace:
        for name in END_TO_END:
            values = [getattr(s, name) for s in plain]
            if values:
                out[name] = (*_quartiles(values), len(values))
        return out
    traced = [s for s in samples if s.ok and not s.warmup and s.traced]
    for name in tracing.PER_LAYER:
        if name == "trace.overhead_s":
            if plain and traced:
                overhead = statistics.median(s.wall_s for s in traced) - statistics.median(
                    s.wall_s for s in plain
                )
                out[name] = (overhead, overhead, overhead, len(traced))
            continue
        values = [s.layers[name] for s in traced if name in s.layers]
        if values and len(values) == len(traced):
            out[name] = (*_quartiles(values), len(values))
    return out


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
        try:
            blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        except (TypeError, KeyError):
            blas = None
    except ImportError:
        numpy_version = blas = None
    env = child_env()
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": blas,
        "threads": {var: env[var] for var in THREAD_VARS},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "workers": 1,
        "commit": _git_commit(),
    }


def report(workloads, samples, seed, trace) -> dict:
    """Print a table per workload; return the result object for the last line."""
    units = {**END_TO_END, **{k: u for k, (u, _) in tracing.PER_LAYER.items()}}
    metrics = {}
    for w in workloads:
        mine = [s for s in samples if s.workload == w.name]
        failed = [s for s in mine if not s.ok]
        measured = [s for s in mine if not s.warmup and not s.traced]
        print(
            f"{w.name}: input {input_index(seed)} (seed {seed}); "
            f"{len(measured)} untraced samples after 1 warm-up"
        )
        for name, (q1, med, q3, n) in summarize(mine, trace).items():
            print(f"  {name:<42} {med:12.6g} {units[name]:<8} q1 {q1:.6g}  q3 {q3:.6g}  n={n}")
            key = name if len(workloads) == 1 else f"{w.name}.{name}"
            metrics[key] = {"value": med, "unit": units[name]}
        print(f"  {'runs_failed':<42} {len(failed):12d} of {len(mine)} attempted")
        for s in failed:
            print(f"  FAILED sample: {s.failure}")
        absent = sorted({a for s in mine for a in s.absent})
        if absent:
            print(f"  absent layers: {', '.join(absent)}")
        changed = [s.layers["io.outputs_changed"] for s in mine if "io.outputs_changed" in s.layers]
        if not trace and changed:
            print(f"  outputs differing from reference digests: {max(changed):g}")
    failed = sum(not s.ok for s in samples)
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }


def record_reference(work: Path) -> None:
    references = {}
    for w in WORKLOADS.values():
        entries = []
        for index in range(INPUTS):
            s = run_sample(w, index, False, False, None, work / f"{w.name}-{index}")
            if not s.ok:
                raise SystemExit(f"{w.name} input {index} failed: {s.failure}")
            bad = w.check(s.headline, s.headline)
            if bad:
                raise SystemExit(f"{w.name} input {index} fails its own gate: {bad}")
            entries.append({"headline": s.headline, "digests": s.digests})
            print(f"{w.name} input {index}: {s.wall_s:.2f} s", flush=True)
        references[w.name] = entries
    doc = {"inputs": INPUTS, "commit": _git_commit(), "workloads": references}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="rerun every input of every workload once and rewrite reference.json",
    )
    args = parser.parse_args(argv)

    if not (SRC / "kinlat" / "cli.py").is_file():
        print(f"error: no kinlat source tree at {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"run-{os.getpid()}"
    try:
        if args.record_reference:
            record_reference(work)
            return 0
        try:
            references = json.loads(REFERENCE.read_text())["workloads"]
        except (OSError, ValueError, KeyError) as e:
            print(f"error: cannot read {REFERENCE}: {e}", file=sys.stderr)
            return 2
        workloads = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
        samples = collect(workloads, args.seed, args.seconds, bool(args.trace), references, work)
        result = report(workloads, samples, args.seed, bool(args.trace))
        print("env " + json.dumps(environment(), sort_keys=True))
        print(json.dumps(result))
        return 0 if result["metrics"] else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made


if __name__ == "__main__":
    sys.exit(main())
