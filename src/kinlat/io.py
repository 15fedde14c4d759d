"""Deterministic result files: CSV tables, JSON reports, flat binary grids.

Every writer here is byte-deterministic: fixed float formatting (``%.17g``,
round-trip exact for float64), sorted JSON keys, explicit ``\\n`` newlines.
Nothing in these files depends on wall clock or platform, which is what
lets a manifest promise bit-identical reruns.  Timestamps live only in the
run manifest, which is excluded from its own checksum list.  The writers
take bare arrays; the grid and the time come from the caller.

Manifest digests and config hashes are SHA-256 from the interpreter's
built-in module (``_sha2``, or ``_sha256`` before Python 3.12), the one the
standard library's hash front end falls back to when it has no OpenSSL.
That front end loads OpenSSL's libcrypto on import, about 3.5 MiB of
resident memory in a process that does no other hashing, for digests that
are the same function either way.  The built-in hashes more slowly (about
5 ms/MiB on a 2-core x86-64 host, against 0.9 for OpenSSL), which only
multi-MiB phase densities notice.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import SizeMismatchError
from .lattice import LatticeSpec, wavenumbers

if sys.version_info >= (3, 12):
    from _sha2 import sha256
else:
    from _sha256 import sha256

if TYPE_CHECKING:  # the writers and readers import their lane when called
    from .kinetic import TorusGrid
    from .vlasov import PhaseGrid

__all__ = [
    "format_float",
    "write_csv",
    "write_json",
    "write_spectrum_csv",
    "write_amplitude_snapshot",
    "write_chain_snapshot_csv",
    "write_moments_csv",
    "write_phase_density",
    "read_phase_density",
    "sha256",
    "sha256_file",
]


def format_float(x: float) -> str:
    return "%.17g" % float(x)


def _cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format_float(x)
    return str(x)


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    comments: Sequence[str] = (),
) -> Path:
    """Write a table with mandatory column header and '#' comment lines."""
    lines = []
    for row in rows:
        if len(row) != len(header):
            raise SizeMismatchError(
                f"row with {len(row)} cells under {len(header)} columns"
            )
        lines.append(",".join(_cell(x) for x in row))
    return _write_lines(path, header, lines, comments)


def _write_lines(
    path: str | Path, header: Sequence[str], lines: list[str], comments: Sequence[str]
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = [f"# {c}" for c in comments] + [",".join(header)] + lines
    path.write_text("\n".join(text) + "\n", newline="\n")
    return path


def _json_default(x):
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON-serializable: {type(x).__name__}")


def write_json(path: str | Path, obj) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(obj, sort_keys=True, indent=2, default=_json_default) + "\n",
        newline="\n",
    )
    return path


def write_spectrum_csv(path: str | Path, f: np.ndarray, grid: TorusGrid, tau: float) -> Path:
    """One row per torus node of ``grid``: coordinates then the value of the
    spectrum array ``f``; the comment records the time ``tau``.

    Every cell is a float64, so each row fills one ``%.17g`` template,
    the bytes :func:`format_float` gives cell by cell.
    """
    from .kinetic import nodes

    table = np.column_stack([nodes(grid).reshape(-1, grid.d), np.reshape(f, -1)])
    row = ",".join(["%.17g"] * (grid.d + 1))
    header = [f"kappa_{c}" for c in range(grid.d)] + ["f"]
    return _write_lines(
        path,
        header,
        [row % tuple(cells) for cells in table.tolist()],
        comments=[
            "spectrum sample on the unit torus; kappa in cycles (dimensionless)",
            f"d={grid.d} m={grid.m} tau={format_float(tau)}",
        ],
    )


def write_amplitude_snapshot(
    path_stem: str | Path, b: np.ndarray, spec: LatticeSpec, meta: dict
) -> tuple[Path, Path]:
    """Amplitude dump of one replica's ``a(+)`` (FFT order), plus a JSON sidecar.

    One CSV row per (mode, sign): ascending ``k`` for sigma = +1, then the
    same modes with the exact conjugates for sigma = -1.  Ascending order is
    the file format; ``b`` must have the lattice's shape, one replica.
    """
    b = np.asarray(b)
    if b.shape != spec.shape:
        raise SizeMismatchError(f"amplitude field shape {b.shape}, expected {spec.shape}")
    stem = Path(path_stem)
    kvecs = np.fft.fftshift(wavenumbers(spec), axes=tuple(range(spec.d))).reshape(-1, spec.d)
    header = [f"k_{c}" for c in range(spec.d)] + ["sigma", "re_a", "im_a"]
    plus = np.fft.fftshift(b).reshape(-1)
    rows = []
    for sigma, vals in ((1, plus), (-1, np.conj(plus))):
        for i in range(vals.size):
            rows.append(tuple(kvecs[i]) + (sigma, vals[i].real, vals[i].imag))
    csv_path = write_csv(
        stem.with_suffix(".csv"),
        header,
        rows,
        comments=["amplitude snapshot; k integer wavenumbers, sigma the sign pair"],
    )
    json_path = write_json(stem.with_suffix(".json"), meta)
    return csv_path, json_path


def write_chain_snapshot_csv(path: str | Path, x, r, v, t: float) -> Path:
    """Per-site chain snapshot: site index, coordinate, displacement, velocity.

    ``x`` holds the site coordinates, shape ``(n_sites, d)``.
    """
    x = np.asarray(x, dtype=np.float64)
    r = np.asarray(r).reshape(-1)
    v = np.asarray(v).reshape(-1)
    header = ["site"] + [f"x_{c}" for c in range(x.shape[1])] + ["r", "v"]
    rows = [(i, *x[i], r[i], v[i]) for i in range(r.size)]
    return write_csv(
        path,
        header,
        rows,
        comments=["chain snapshot; x on the unit torus", f"t={format_float(t)}"],
    )


def write_moments_csv(path: str | Path, x_nodes, columns: dict[str, np.ndarray]) -> Path:
    """Per-x-node moment table (used by the mean-field comparison)."""
    names = sorted(columns)
    header = ["x"] + names
    xs = np.asarray(x_nodes).reshape(-1)
    rows = [
        (xs[i], *(columns[name][i] for name in names)) for i in range(xs.size)
    ]
    return write_csv(path, header, rows, comments=["per-cell moments; x on the unit torus"])


def write_phase_density(
    path_stem: str | Path, g: np.ndarray, grid: PhaseGrid, t: float, alpha: float
) -> tuple[Path, Path]:
    """The density array ``g`` as flat float64 binary (C order), plus a JSON
    sidecar holding ``grid``, the time ``t`` and the kernel exponent ``alpha``."""
    stem = Path(path_stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    bin_path = stem.with_suffix(".bin")
    with open(bin_path, "wb") as fh:
        # the array's own buffer when it already is C-ordered <f8: no copy
        fh.write(np.ascontiguousarray(g, dtype="<f8").data)
    header = {
        "layout": "C-order float64 little-endian, shape (mx, mr, mv)",
        "mx": grid.mx,
        "mr": grid.mr,
        "mv": grid.mv,
        "r_max": grid.r_max,
        "v_max": grid.v_max,
        "t": t,
        "alpha": alpha,
    }
    json_path = stem.with_suffix(".json")
    write_json(json_path, header)
    return bin_path, json_path


def read_phase_density(path_stem: str | Path) -> tuple[np.ndarray, PhaseGrid, float]:
    """``(g, grid, t)`` as :func:`write_phase_density` wrote them, ``g``
    held to :func:`~kinlat.vlasov.check_density`."""
    from .vlasov import PhaseGrid, check_density

    stem = Path(path_stem)
    header = json.loads(stem.with_suffix(".json").read_text())
    grid = PhaseGrid(
        header["mx"], header["mr"], header["mv"], header["r_max"], header["v_max"]
    )
    bin_path = stem.with_suffix(".bin")
    n_bytes, want = bin_path.stat().st_size, 8 * grid.mx * grid.mr * grid.mv
    if n_bytes != want:
        raise SizeMismatchError(
            f"binary payload holds {n_bytes} bytes, grid {grid.shape} wants {want}"
        )
    g = np.fromfile(bin_path, dtype="<f8").reshape(grid.shape)
    return check_density(g, grid), grid, header["t"]


def sha256_file(path: str | Path) -> str:
    h = sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
