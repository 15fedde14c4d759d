"""Layer spans for the traced benchmark run, and the per-layer metrics made from them.

The child process calls :func:`install` before it hands control to the kinlat
CLI.  Each layer entry point is wrapped *where its caller looks it up*: the
wrapper replaces the name in the calling module (``kinlat.waves.wave_nonlinear``,
not ``kinlat.kernels.wave_nonlinear``), so every call the pipeline makes goes
through it.  A wrapper appends one span per call to an in-memory list:
``[name, parent_index, start_ns, end_ns, replicas]``.  The list is written out
once, when the child exits.

The parent process turns the spans into the metrics named in
:data:`PER_LAYER`.  Only the standard library is used here, so importing this
module costs the traced child almost nothing.
"""

from __future__ import annotations

import functools
import importlib
import math
import time

# span name -> (module, attribute) bindings that calling code uses to reach the layer
LAYERS = {
    "config.load_config": [("kinlat.cli", "_effective_config")],
    "harness.run": [("kinlat.cli", "run"), ("kinlat.harness", "run"), ("kinlat.harness", "sweep")],
    "waves.sample_initial": [("kinlat.harness", "sample_initial")],
    "waves.stepper": [("kinlat.harness", "_integrate_array")],
    "waves.empirical_spectrum": [("kinlat.harness", "empirical_spectrum")],
    "kernels.wave_nonlinear": [("kinlat.waves", "wave_nonlinear")],
    "kernels.collision_rate": [("kinlat.kinetic", "collision_rate")],
    "kernels.chain_force_flat": [("kinlat.chain", "chain_force_flat")],
    "kinetic.evolve": [("kinlat.harness", "evolve")],
    "chain.verlet_evolve": [("kinlat.harness", "verlet_evolve")],
    "chain.sample_ensemble": [("kinlat.harness", "sample_ensemble")],
    "vlasov.vlasov_evolve": [("kinlat.harness", "vlasov_evolve")],
    "vlasov.acceleration": [("kinlat.vlasov", "acceleration")],
    "vlasov.compare": [
        ("kinlat.harness", "meanfield_distance"),
        ("kinlat.harness", "cell_moments_of_density"),
        ("kinlat.harness", "cell_moments_of_ensemble"),
    ],
    "io.write": [
        ("kinlat.harness", name)
        for name in (
            "write_amplitude_snapshot",
            "write_chain_snapshot_csv",
            "write_csv",
            "write_json",
            "write_moments_csv",
            "write_phase_density",
            "write_spectrum_csv",
        )
    ],
    "io.sha256": [("kinlat.harness", "sha256_file")],
}

# per-layer metric -> (unit, better); the order is the order of the report
PER_LAYER = {
    "config.load_config.s": ("s", "lower"),
    "waves.sample_initial.s": ("s", "lower"),
    "waves.stepper.self_s": ("s", "lower"),
    "waves.empirical_spectrum.s": ("s", "lower"),
    "kernels.wave_nonlinear.calls": ("count", "lower"),
    "kernels.wave_nonlinear.s": ("s", "lower"),
    "kernels.wave_nonlinear.replicas_per_call": ("replicas", "higher"),
    "kernels.collision_rate.calls": ("count", "lower"),
    "kernels.collision_rate.s": ("s", "lower"),
    "kernels.collision_rate.first_s": ("s", "lower"),
    "kernels.chain_force_flat.calls": ("count", "lower"),
    "kernels.chain_force_flat.s": ("s", "lower"),
    "kernels.chain_force_flat.first_s": ("s", "lower"),
    "kinetic.evolve.self_s": ("s", "lower"),
    "chain.verlet_evolve.self_s": ("s", "lower"),
    "chain.sample_ensemble.s": ("s", "lower"),
    "vlasov.vlasov_evolve.self_s": ("s", "lower"),
    "vlasov.acceleration.calls": ("count", "lower"),
    "vlasov.acceleration.s": ("s", "lower"),
    "vlasov.acceleration.calls_per_step": ("1/step", "lower"),
    "vlasov.compare.s": ("s", "lower"),
    "io.write.s": ("s", "lower"),
    "io.files": ("count", "lower"),
    "io.bytes_written": ("B", "lower"),
    "io.sha256.s": ("s", "lower"),
    "io.outputs_changed": ("count", "lower"),
    "harness.run.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# metrics the parent measures itself rather than reading from spans
MEASURED_OUTSIDE = ("io.files", "io.bytes_written", "io.outputs_changed", "trace.overhead_s")


def _replicas(args, kwargs) -> int:
    """Replica batch of one ``wave_nonlinear(a, spec, ...)`` call."""
    a, spec = args[0], args[1]
    return math.prod(a.shape[: a.ndim - spec.d - 1])


_EXTRA = {"kernels.wave_nonlinear": _replicas}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.absent: list[str] = []

    def _wrap(self, name, fn):
        spans, stack, extra = self.spans, self.stack, _EXTRA.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            if extra is not None:
                try:
                    span[4] = extra(args, kwargs)
                except (AttributeError, IndexError, TypeError):
                    pass
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self) -> "Tracer":
        for name, bindings in LAYERS.items():
            found = False
            for module_name, attr in bindings:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if callable(fn):
                    setattr(module, attr, self._wrap(name, fn))
                    found = True
            if not found:
                self.absent.append(name)
        return self

    def dump(self) -> dict:
        return {"spans": self.spans, "absent": self.absent}


def install() -> Tracer:
    return Tracer().install()


# ---------------------------------------------------------------------------
# parent side: spans -> per-layer metrics
# ---------------------------------------------------------------------------


def _self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[3] - s[2]
    return out


def _outermost(spans, i: int) -> bool:
    """True when no ancestor of span ``i`` carries the same name."""
    name, p = spans[i][0], spans[i][1]
    while p >= 0:
        if spans[p][0] == name:
            return False
        p = spans[p][1]
    return True


def _enclosing(spans, i: int, name: str) -> int:
    p = spans[i][1]
    while p >= 0 and spans[p][0] != name:
        p = spans[p][1]
    return p


def _first_calls_s(spans, idx: list[int]) -> float:
    """Summed duration of the first call inside each (innermost) pipeline run.

    The first call of a kernel in a run is the one that builds the run's
    cached tables (collision plan, chain kernel), so a sweep of three
    children pays it three times.
    """
    first: dict[int, int] = {}
    for i in idx:
        run = _enclosing(spans, i, "harness.run")
        if run not in first:
            first[run] = i
    return sum(spans[i][3] - spans[i][2] for i in first.values()) / 1e9


def layer_metrics(spans, absent, vlasov_steps: int) -> dict[str, float]:
    """Per-layer metrics of one traced run; metrics of absent layers are left out.

    A metric is named ``<layer>.<kind>``; the kind says how the layer's spans
    are reduced.
    """
    by_name: dict[str, list[int]] = {name: [] for name in LAYERS}
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
    self_ns = _self_times(spans)
    out = {}
    for metric in PER_LAYER:
        layer, kind = metric.rsplit(".", 1)
        if metric in MEASURED_OUTSIDE or layer in absent:
            continue
        idx = by_name[layer]
        if kind == "calls":
            value = len(idx)
        elif kind == "s":
            value = sum(spans[i][3] - spans[i][2] for i in idx if _outermost(spans, i)) / 1e9
        elif kind == "self_s":
            value = sum(self_ns[i] for i in idx) / 1e9
        elif kind == "first_s":
            value = _first_calls_s(spans, idx)
        elif kind == "replicas_per_call":
            replicas = [spans[i][4] for i in idx if spans[i][4] is not None]
            value = sum(replicas) / len(replicas) if replicas else 0.0
        elif kind == "calls_per_step":
            in_evolve = sum(_enclosing(spans, i, "vlasov.vlasov_evolve") >= 0 for i in idx)
            value = in_evolve / vlasov_steps if vlasov_steps else 0.0
        else:
            raise ValueError(f"no reduction for {metric!r}")
        out[metric] = float(value)
    return out
