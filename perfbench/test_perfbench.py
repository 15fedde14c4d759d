"""Self-tests of the benchmark: failure accounting, sampling order, metric names.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys

import pytest

import run
import tracing
import workloads
from workloads import Workload

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny_wave(index: int) -> dict:
    return {
        "pipeline": "wt-sim",
        "seed": index,
        "wave": {"d": 1, "half_width": 4, "lam": 0.05, "dt": 0.01, "n_steps": 10, "replicas": 4, "save_every": 5},
    }


def _no_gate(headline: dict, reference: dict) -> str:
    return ""


GOOD = Workload("tiny-wave", "wt-sim", _tiny_wave, lambda out: {}, _no_gate)
# wt-sim on its own defaults blows up at step 99 and exits 2
BAD = Workload(
    "wt-sim-defaults", "wt-sim", lambda i: {"pipeline": "wt-sim", "seed": i, "wave": {}}, lambda out: {}, _no_gate
)


def test_metric_names_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == run.END_TO_END
    layers = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert layers == tracing.PER_LAYER
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)

    from_spans = set(tracing.layer_metrics([], [], 0))
    assert from_spans | set(tracing.MEASURED_OUTSIDE) == set(tracing.PER_LAYER)
    assert not from_spans & set(tracing.MEASURED_OUTSIDE)


def test_failed_run_is_counted_and_left_out_of_medians(tmp_path):
    samples = [
        run.run_sample(GOOD, 0, False, True, None, tmp_path / "warm"),
        run.run_sample(GOOD, 0, False, False, None, tmp_path / "a"),
        run.run_sample(BAD, 0, False, False, None, tmp_path / "bad"),
        run.run_sample(GOOD, 0, False, False, None, tmp_path / "b"),
    ]
    bad = samples[2]
    assert bad.exit_code == 2 and not bad.ok and "step 99" in bad.failure
    good = [s for s in samples if s.ok]
    assert len(good) == 3

    measured = [samples[1], samples[3]]
    summary = run.summarize(samples, trace=False)
    for name in run.END_TO_END:
        assert summary[name][1] == statistics.median(getattr(s, name) for s in measured)
        assert summary[name][3] == 2

    result = run.report([GOOD, BAD], samples, 0, trace=False)
    assert result["attempted"] == 4 and result["failed"] == 1 and result["correct"] is False


def test_headline_mismatch_fails_the_gate(tmp_path):
    wave = workloads.WORKLOADS["wave-ensemble"]
    ref = json.loads(run.REFERENCE.read_text())["workloads"]["wave-ensemble"][0]
    wrong = {
        "headline": {**ref["headline"], "energy_final": ref["headline"]["energy_final"] * (1 + 1e-8)},
        "digests": {**ref["digests"], "series.csv": "0" * 64},
    }
    s = run.run_sample(wave, 0, False, False, wrong, tmp_path / "s")
    assert not s.ok and "energy_final" in s.failure
    assert s.layers["io.outputs_changed"] == 1


def test_rounds_interleave_workloads_after_one_warmup(tmp_path):
    other = Workload("tiny-wave-2", "wt-sim", _tiny_wave, lambda out: {}, _no_gate)
    samples = run.collect([GOOD, other], 0, 0.0, True, {}, tmp_path)
    assert [s.warmup for s in samples[:2]] == [True, True]
    measured = samples[2:]
    assert len(measured) == 4 * run.MIN_ROUNDS
    assert [s.workload for s in measured[:4]] == ["tiny-wave", "tiny-wave-2"] * 2
    assert [s.traced for s in measured[:4]] == [False, False, True, True]
    assert all(s.ok for s in samples)

    traced = run.summarize(samples, trace=True)
    assert traced["kernels.wave_nonlinear.calls"][1] == 40.0
    assert traced["kernels.collision_rate.calls"][1] == 0.0
    assert "trace.overhead_s" in traced


def test_self_time_and_first_call_accounting():
    ms = 1_000_000
    spans = [
        ["harness.run", -1, 0, 100 * ms, None],
        ["harness.run", 0, 10 * ms, 50 * ms, None],
        ["kernels.collision_rate", 1, 12 * ms, 30 * ms, None],
        ["kernels.collision_rate", 1, 30 * ms, 35 * ms, None],
        ["harness.run", 0, 50 * ms, 90 * ms, None],
        ["kernels.collision_rate", 4, 55 * ms, 70 * ms, None],
    ]
    m = tracing.layer_metrics(spans, [], 0)
    assert m["kernels.collision_rate.calls"] == 3
    assert m["kernels.collision_rate.s"] == pytest.approx(0.038)
    assert m["kernels.collision_rate.first_s"] == pytest.approx(0.018 + 0.015)
    assert m["harness.run.self_s"] == pytest.approx(0.100 - 0.038)

    m = tracing.layer_metrics(spans, ["kernels.collision_rate"], 0)
    assert "kernels.collision_rate.calls" not in m


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "meanfield", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
