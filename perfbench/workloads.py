"""The benchmark's workloads: generated configs, headline results and their gate.

``--seed n`` selects input ``n % INPUTS``.  The input index is the config's
``seed`` (the replica random streams of ``wave-ensemble`` and the chain sample
of ``meanfield``), so every seed has a stored reference in ``reference.json``
and every sample is checked exactly, not against a band.  ``kinetic-sweep``
draws no random numbers: its inputs differ only in the recorded seed.

Shapes are fixed here; step counts are set so that one sample takes a few
seconds on a 2-core host.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

INPUTS = 16

# gate tolerances; see README.md
REALITY_DEFECT_MAX = 1e-12
WAVE_MOMENT_RTOL = 1e-9
STATIONARITY_RTOL = 1e-6
DISTANCE_RTOL = 1e-6

_TORUS_GAUSSIAN_WAVE = {"name": "torus-gaussian", "amplitude": 0.05, "width": 0.3}
_TORUS_GAUSSIAN_KINETIC = {"name": "torus-gaussian", "amplitude": 0.5, "width": 0.3}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # kinlat subcommand
    config: Callable[[int], dict]  # input index -> config document
    headline: Callable[[Path], dict]  # output dir -> headline result
    check: Callable[[dict, dict], str]  # (headline, reference) -> "" or the mismatch
    vlasov_steps: int = 0


def input_index(seed: int) -> int:
    return seed % INPUTS


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------


def _wave_config(index: int) -> dict:
    return {
        "pipeline": "wt-sim",
        "seed": index,
        "wave": {
            "d": 1,
            "half_width": 16,
            "lam": 0.05,
            "dt": 0.01,
            "n_steps": 100,
            "scheme": "exponential",
            "replicas": 256,
            "save_every": 25,
            "profile": _TORUS_GAUSSIAN_WAVE,
        },
    }


def _kinetic_config(index: int) -> dict:
    return {
        "pipeline": "wt-kinetic",
        "seed": index,
        "kinetic": {
            "d": 2,
            "m": 40,
            "epsilon": 0.2,
            "shape": "gaussian",
            "omega_floor": 0.05,
            "dtau": 0.01,
            "n_steps": 1,
            "scheme": "rk4",
            "initial": _TORUS_GAUSSIAN_KINETIC,
        },
        "sweep": {"axis": "kinetic.epsilon", "values": [0.2, 0.1, 0.05]},
    }


MEANFIELD_T_FINAL = 0.25
MEANFIELD_VLASOV_DT = 0.01


def _meanfield_config(index: int) -> dict:
    return {
        "pipeline": "mf-compare",
        "seed": index,
        "chain": {
            "d": 1,
            "n": 512,
            "alpha": 0.5,
            "dt": 0.001,
            "replicas": 64,
            "force_method": "direct",
            "law": {"kind": "cosine-gaussian", "amplitude": 0.2, "mode": 1},
        },
        "vlasov": {
            "mx": 32,
            "mr": 128,
            "mv": 128,
            "r_max": 1.0,
            "v_max": 1.2,
            "alpha": 0.5,
            "dt": MEANFIELD_VLASOV_DT,
            "interp": "linear",
        },
        "compare": {"t_final": MEANFIELD_T_FINAL},
    }


# ---------------------------------------------------------------------------
# headline results and the gate
# ---------------------------------------------------------------------------


def _manifest_metrics(out: Path) -> dict:
    manifest = json.loads((out / "manifest.json").read_text())
    if manifest.get("status") != "ok":
        raise ValueError(f"manifest status {manifest.get('status')!r}")
    return manifest["metrics"]


def _last_csv_row(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return {k: float(v) for k, v in rows[-1].items()}


def _wave_headline(out: Path) -> dict:
    last = _last_csv_row(out / "series.csv")
    return {
        "reality_defect": _manifest_metrics(out)["reality_defect"],
        "mass_final": last["mass"],
        "energy_final": last["energy"],
    }


def _kinetic_headline(out: Path) -> dict:
    return {"stationarity_l1": _manifest_metrics(out)["stationarity_l1"]}


def _meanfield_headline(out: Path) -> dict:
    return {"distance_l2": _manifest_metrics(out)["distance_l2"]}


def _rel_mismatch(name: str, got, want, rtol: float) -> str:
    if not (isinstance(got, (int, float)) and math.isfinite(got)):
        return f"{name}={got!r} is not a finite number"
    if abs(got - want) > rtol * abs(want):
        return f"{name}={got!r}, reference {want!r} (rtol {rtol:g})"
    return ""


def _wave_check(got: dict, ref: dict) -> str:
    defect = got["reality_defect"]
    if not defect <= REALITY_DEFECT_MAX:
        return f"reality_defect={defect!r} above {REALITY_DEFECT_MAX:g}"
    for key in ("mass_final", "energy_final"):
        bad = _rel_mismatch(key, got[key], ref[key], WAVE_MOMENT_RTOL)
        if bad:
            return bad
    return ""


def _kinetic_check(got: dict, ref: dict) -> str:
    series, want = got["stationarity_l1"], ref["stationarity_l1"]
    if not isinstance(series, list) or len(series) != len(want):
        return f"stationarity_l1={series!r}, reference has {len(want)} values"
    for i, (g, w) in enumerate(zip(series, want)):
        bad = _rel_mismatch(f"stationarity_l1[{i}]", g, w, STATIONARITY_RTOL)
        if bad:
            return bad
    return ""


def _meanfield_check(got: dict, ref: dict) -> str:
    return _rel_mismatch("distance_l2", got["distance_l2"], ref["distance_l2"], DISTANCE_RTOL)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wave-ensemble", "wt-sim", _wave_config, _wave_headline, _wave_check),
        Workload("kinetic-sweep", "sweep", _kinetic_config, _kinetic_headline, _kinetic_check),
        Workload(
            "meanfield",
            "mf-compare",
            _meanfield_config,
            _meanfield_headline,
            _meanfield_check,
            vlasov_steps=round(MEANFIELD_T_FINAL / MEANFIELD_VLASOV_DT),
        ),
    )
}


# ---------------------------------------------------------------------------
# output digests
# ---------------------------------------------------------------------------


def output_digests(out: Path) -> dict[str, str]:
    """sha256 of every output file except the manifests, which hold timestamps."""
    digests = {}
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            digests[p.relative_to(out).as_posix()] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digests


def outputs_changed(got: dict[str, str], want: dict[str, str]) -> int:
    return sum(got.get(k) != want.get(k) for k in set(got) | set(want))
