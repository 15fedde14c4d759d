"""Byte identity against a base checkout: one command over a fixed list of runs.

Usage::

    python3 benchmarks/bytes_identical.py --base PATH

Each run in :func:`runs` is made twice in fresh interpreters, once from this
checkout's ``src/`` and once from the base checkout's, into a temporary
directory.  For every output file (``manifest.json`` excluded: it holds
timestamps and paths) the sheet prints the sha256 prefix on both sides, then
lists the files that differ or exist on one side only.  Of the manifest it
compares the results alone, ``status``, ``metrics``, ``checks`` and
``notes``, as canonical JSON: a metric such as ``wt-sim``'s
``energy_drift_rel`` is written nowhere else.
Under a file or manifest key that differs on both sides it prints, for each
numeric CSV column and each JSON number (a JSON list of numbers counts as
one column) that changed, the
largest relative change normwise (``|a - b| / |b|`` in the 2-norm) and
entrywise (``max |a_i - b_i| / max(|b_i|, 1e-12 max |b|)``, so round-off on
an entry near zero does not read as a large change), and the largest
absolute change ``max |a_i - b_i|``, ``b`` being the base side.  A single
number that is itself round-off, such as a conserved quantity's drift,
still reads as a large relative change; its absolute change shows that it
is small.  Each run names the exit code it must end with, 0 unless it is
one of the numerical failures below (2); a run fails when its exit code is
another one.  The exit code is 1 on any byte difference or failed run,
else 0.

The runs are inputs 0 and 5 of each perfbench workload (configs from
``perfbench/workloads.py``, imported, not edited), ``wt-compare`` at d = 1
(17 sites against a 32-node kinetic grid: the interpolation path) and at
d = 2 (9 sites against 9 nodes: the same-grid path), ``chain-sim`` on the
default chain block with 4 replicas saved every 100 of its 1000 steps, and
again at n = 48 with a mode-3 ``cosine-gaussian`` law (the only chain whose
site count is not a power of 2, so the only one whose site coordinates
``j / n`` differ from ``j * (1 / n)``), ``wt-sim`` at d = 1 with
half_width 32 (65 sites, the only run on the FFT side of
``waves.TABLE_MAX_N``), the default ``mf-compare`` and ``vlasov`` blocks,
``wt-kinetic`` at m = 16 for 10 steps (the only run whose kinetic series
and clock span more than 2 steps), and ``oracle-suite``, the only pipeline
that runs ``lattice.dft`` and ``lattice.inverse_dft``.

Seven runs end in a numerical failure (exit 2), one per way a lane writes
its last-good snapshot: ``wt-sim`` on its default wave block, saved only at
the end and again every 10 steps; ``wt-kinetic`` on its default block;
``chain-sim`` and ``mf-compare`` at an unstable chain dt; and ``wt-compare``
failing on its wave side and on its kinetic side, which keeps the finished
``micro_*.csv``.  Their files and manifest results are compared as those
of the other runs are.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

CHILD = "import sys; from kinlat.cli import main; sys.exit(main(sys.argv[1:]))"


class Run(NamedTuple):
    command: str
    doc: dict
    exit: int = 0  # the exit code the run must end with


def _wt_compare(d: int, half_width: int, m: int) -> dict:
    return {
        "pipeline": "wt-compare",
        "seed": 1,
        "wave": {"d": d, "half_width": half_width, "lam": 0.3, "dt": 0.02, "replicas": 4},
        "kinetic": {"d": d, "m": m, "epsilon": 0.3, "dtau": 0.01},
        "compare": {"tau_final": 0.02},
    }


def runs() -> dict[str, Run]:
    """Run name -> (kinlat command, config document, expected exit code)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    out = {
        f"{name}-{i}": Run(w.command, w.config(i))
        for name, w in WORKLOADS.items()
        for i in (0, 5)
    }
    out["wt-compare-d1"] = Run("wt-compare", _wt_compare(1, 8, 32))
    out["wt-compare-d2"] = Run("wt-compare", _wt_compare(2, 4, 9))
    out["chain-sim-saved"] = Run(
        "chain-sim",
        {"pipeline": "chain-sim", "seed": 1, "chain": {"replicas": 4, "save_every": 100}},
    )
    law = {"kind": "cosine-gaussian", "amplitude": 0.2, "mode": 3}
    out["chain-sim-n48"] = Run(
        "chain-sim",
        {
            "pipeline": "chain-sim",
            "seed": 1,
            "chain": {"n": 48, "replicas": 4, "save_every": 100, "law": law},
        },
    )
    profile = {"name": "torus-gaussian", "amplitude": 0.05, "width": 0.3}
    wave = {"d": 1, "half_width": 32, "lam": 0.01, "dt": 0.01, "n_steps": 20, "replicas": 4}
    out["wt-sim-fft-d1"] = Run(
        "wt-sim",
        {"pipeline": "wt-sim", "seed": 1, "wave": wave | {"profile": profile}},
    )
    out["mf-compare-default"] = Run(
        "mf-compare",
        {"pipeline": "mf-compare", "seed": 1, "chain": {}, "vlasov": {}, "compare": {}},
    )
    out["vlasov-default"] = Run("vlasov", {"pipeline": "vlasov", "seed": 1, "vlasov": {}})
    kinetic = {"m": 16, "omega_floor": 0.05, "dtau": 0.01, "n_steps": 10}
    out["wt-kinetic-steps"] = Run("wt-kinetic", {"pipeline": "wt-kinetic", "seed": 1, "kinetic": kinetic})
    out["oracle-suite"] = Run("oracle-suite", {"pipeline": "oracle-suite", "seed": 1})

    # numerical failures: the default wave block leaves its bound at step 99,
    # the default kinetic block on the step to tau 0.06, and chain dt 1 is
    # past velocity Verlet's stability bound
    out["wt-sim-fails"] = Run("wt-sim", {"pipeline": "wt-sim", "seed": 1, "wave": {}}, 2)
    out["wt-sim-saved-fails"] = Run(
        "wt-sim", {"pipeline": "wt-sim", "seed": 1, "wave": {"save_every": 10}}, 2
    )
    out["wt-kinetic-fails"] = Run("wt-kinetic", {"pipeline": "wt-kinetic", "seed": 1, "kinetic": {}}, 2)
    out["chain-sim-unstable"] = Run(
        "chain-sim",
        {"pipeline": "chain-sim", "seed": 1, "chain": {"dt": 1.0, "replicas": 4, "save_every": 100}},
        2,
    )
    mf = {"pipeline": "mf-compare", "seed": 1, "chain": {"dt": 1.0}, "vlasov": {}, "compare": {}}
    out["mf-compare-unstable"] = Run("mf-compare", mf, 2)
    wt = {"pipeline": "wt-compare", "seed": 1, "wave": {}, "kinetic": {}, "compare": {}}
    out["wt-compare-wave-fails"] = Run("wt-compare", wt, 2)
    wt = wt | {"wave": {"lam": 0.3, "dt": 0.02, "replicas": 4}, "compare": {"tau_final": 0.1}}
    out["wt-compare-kinetic-fails"] = Run("wt-compare", wt, 2)
    return out


def _run(src: Path, command: str, cfg: Path, out: Path, expect: int) -> str:
    """Run kinlat from ``src``; return "" or, on an exit code other than
    ``expect``, the failure."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    res = subprocess.run(
        [sys.executable, "-c", CHILD, command, "--config", str(cfg), "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
    )
    if res.returncode == expect:
        return ""
    return f"exit {res.returncode}, expected {expect}: {res.stderr.strip()}"


def _digests(out: Path) -> dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def _manifest(out: Path) -> dict[str, str]:
    """A run manifest's results, each as canonical JSON; its other keys are
    timestamps, paths and versions."""
    path = out / "manifest.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    keys = ("status", "metrics", "checks", "notes")
    return {key: json.dumps(doc.get(key), sort_keys=True) for key in keys}


def _columns(path: Path) -> dict[str, np.ndarray]:
    """The numbers of an output file by name: CSV columns, JSON numbers by key."""
    out = {}
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        for j, name in enumerate(rows[0] if rows else []):
            try:
                out[name] = np.array([float(row[j]) for row in rows[1:]])
            except (ValueError, IndexError):
                pass  # a text column
    elif path.suffix == ".json":
        out = _json_columns(json.loads(path.read_text()))
    return out


def _json_columns(doc) -> dict[str, np.ndarray]:
    """The numbers of a JSON document by dotted key."""
    out = {}

    def walk(node, key):
        if isinstance(node, list) and node and all(_is_number(v) for v in node):
            out[key] = np.array(node, dtype=float)
        elif _is_number(node):
            out[key] = np.array([node], dtype=float)
        elif isinstance(node, (dict, list)):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for k, v in items:
                walk(v, f"{key}.{k}" if key else str(k))

    walk(doc, "")
    return out


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _changes(a_cols: dict[str, np.ndarray], b_cols: dict[str, np.ndarray]) -> list[str]:
    """One line per numeric column that changed: its relative and absolute change."""
    lines = []
    for name in sorted(set(a_cols) | set(b_cols)):
        a, b = a_cols.get(name), b_cols.get(name)
        if a is None or b is None or a.shape != b.shape:
            lines.append(f"{name}: present or shaped differently on one side")
            continue
        gap = np.abs(a - b)
        if not gap.any():
            continue
        scale = np.maximum(np.abs(b), 1e-12 * np.abs(b).max())
        with np.errstate(divide="ignore", invalid="ignore"):
            entry = np.where(gap == 0, 0.0, gap / scale).max()
            norm = np.linalg.norm(gap) / np.linalg.norm(b)
        lines.append(
            f"{name}: normwise {norm:.2e}, entrywise {entry:.2e}, absolute {gap.max():.2e}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path, help="the base checkout's root")
    args = parser.parse_args(argv)
    sides = {"this": ROOT / "src", "base": args.base.resolve() / "src"}
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (command, doc, expect) in runs().items():
            cfg = Path(tmp) / f"{name}.json"
            cfg.write_text(json.dumps(doc))
            digests = {}
            for side, src in sides.items():
                out = Path(tmp) / side / name
                failed = _run(src, command, cfg, out, expect)
                if failed:
                    differ.append(f"{name}: {side} run failed, {failed}")
                digests[side] = _digests(out) if out.exists() else {}
            this, base = digests["this"], digests["base"]
            print(f"{name} ({command}): {len(this)} files")
            for path in sorted(set(this) | set(base)):
                a, b = this.get(path, "-"), base.get(path, "-")
                mark = "same" if a == b else "DIFF"
                print(f"  {mark}  {a[:12]:<12}  {b[:12]:<12}  {path}")
                if a != b:
                    differ.append(f"{name}/{path}")
                    if path in this and path in base:
                        cols = [_columns(Path(tmp) / side / name / path) for side in sides]
                        for line in _changes(*cols):
                            print(f"        {line}")
            this, base = (_manifest(Path(tmp) / side / name) for side in sides)
            for key in this:
                a, b = this[key], base[key]
                print(f"  {'same' if a == b else 'DIFF'}  manifest.json {key}")
                if a != b:
                    differ.append(f"{name}/manifest.json {key}")
                    cols = [_json_columns(json.loads(doc)) for doc in (a, b)]
                    for line in _changes(*cols):
                        print(f"        {line}")
    print(f"{len(differ)} differences" + "".join(f"\n  {d}" for d in differ))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
