"""Run orchestration: manifests, replica-block independence, CLI exits, lane loading."""

import builtins
import datetime
import dis
import gc
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kinlat import _reference as ref
from kinlat import cli, harness, kinetic
from kinlat.chain import (
    FractionalParams,
    GaussianLaw,
    chain_energy,
    sample_ensemble,
    verlet_evolve,
)
from kinlat.config import build_law, build_profile, config_hash, parse_config
from kinlat.errors import CheckFailure, NumericalBlowupError
from kinlat.harness import BLOCK_BYTES, Budget, _integrate_ensemble, run
from kinlat.io import sha256_file, write_amplitude_snapshot, write_spectrum_csv
from kinlat.lattice import TorusGrid
from kinlat.profiles import FACTORIES
from kinlat.vlasov import PhaseGrid, vlasov_evolve
from kinlat.waves import (
    EnsembleSpec,
    ModelParams,
    _integrate_array,
    empirical_spectrum,
    integrate,
    sample_initial,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def _wave_doc(**wave):
    base = {
        "d": 1,
        "half_width": 4,
        "lam": 0.3,
        "dt": 0.02,
        "n_steps": 40,
        "replicas": 10,
        "save_every": 20,
    }
    base.update(wave)
    return {"pipeline": "wt-sim", "seed": 42, "wave": base}


BLOWUP_WAVE = {
    "pipeline": "wt-sim",
    "seed": 3,
    "wave": {
        "d": 1,
        "half_width": 8,
        "lam": 1.0,
        "dt": 0.05,
        "n_steps": 2000,
        "replicas": 1,
        "profile": {"name": "omega-bump", "amplitude": 40.0, "center": 1.0, "width": 0.5},
    },
}


def _manifest_of(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


class TestRun:
    def test_oracle_suite_is_green(self, tmp_path):
        cfg = parse_config({"pipeline": "oracle-suite", "seed": 5})
        man = run(cfg, out=tmp_path, check=True)
        assert man.status == "ok"
        assert man.metrics["n_failed"] == 0
        assert man.metrics["n_cases"] >= 8
        assert all(c.passed for c in man.checks)

    def test_manifest_contents_and_checksums(self, tmp_path):
        cfg = parse_config(_wave_doc())
        man = run(cfg, out=tmp_path, workers=1)
        disk = _manifest_of(tmp_path)
        assert disk["status"] == "ok"
        assert disk["config_hash"] == config_hash(cfg)
        assert disk["versions"]["numpy"]
        assert disk["started"] and disk["finished"]
        assert disk["metrics"]["reality_defect"] == 0.0
        assert disk["metrics"]["energy_drift_rel"] <= 1e-8
        names = [f["path"] for f in disk["files"]]
        assert "spectrum_final.csv" in names and "series.csv" in names
        # the manifest never lists itself: it is written after the digests
        assert "manifest.json" not in names
        for entry in disk["files"]:
            p = tmp_path / entry["path"]
            assert sha256_file(p) == entry["sha256"]
            assert p.stat().st_size == entry["bytes"]
        assert man.checks[0].name == "energy-conserved"

    def test_replica_results_do_not_depend_on_block(self):
        # replica i integrated alone must be bit-identical to its row in an
        # ensemble that spans more than one replica block
        spec = TorusGrid(2, 9)
        params = ModelParams(spec, 0.3)
        ones = np.ones(spec.shape)
        rows = BLOCK_BYTES // sample_initial(EnsembleSpec(1, 42, ones), spec)[0].nbytes
        a = sample_initial(EnsembleSpec(rows + 3, 42, ones), spec)
        assert 1 < rows < a.shape[0]
        for scheme in ("exponential", "rk4"):
            together = _integrate_ensemble(a, params, 0.02, 20, scheme)
            for i in (0, rows - 1, rows, rows + 2):
                alone = _integrate_array(a[i : i + 1], params, 0.02, 20, scheme)
                assert np.array_equal(alone[0], together[i]), (scheme, i)
        # d = 1 at N = 33 and at N = 61, the largest chain the table kernel
        # takes: a full block (124 and 67 rows), then a tail of 1, 2, 3 or 7
        # rows, where a GEMM on unpadded rows rounds differently.  The flat
        # profile grows as 1/omega_bar does, so N = 61 steps at a smaller
        # coupling and step to stay finite
        for D, full, lam, dt in ((16, 124, 0.3, 0.02), (30, 67, 0.1, 0.01)):
            spec = TorusGrid(1, 2 * D + 1)
            params = ModelParams(spec, lam)
            ones = np.ones(spec.shape)
            a = sample_initial(EnsembleSpec(full + 7, 42, ones), spec)
            assert BLOCK_BYTES // a[0].nbytes == full
            for tail in (1, 2, 3, 7):
                for scheme in ("exponential", "rk4"):
                    together = _integrate_ensemble(a[: full + tail], params, dt, 20, scheme)
                    for i in (0, full - 1, *range(full, full + tail)):
                        alone = _integrate_array(a[i : i + 1], params, dt, 20, scheme)
                        assert np.array_equal(alone[0], together[i]), (D, tail, scheme, i)

    def test_blowup_leaves_a_failure_manifest(self, tmp_path):
        with pytest.raises(NumericalBlowupError):
            run(parse_config(BLOWUP_WAVE), out=tmp_path)
        disk = _manifest_of(tmp_path)
        assert disk["status"] == "numerical-failure"
        assert disk["metrics"]["error"]
        assert disk["snapshot"].endswith("last_good.csv")
        assert (tmp_path / "last_good.csv").exists()
        assert disk["metrics"]["error"].endswith("in the block of replica 0")

    def test_wave_blowup_names_its_replica_block(self, monkeypatch):
        # replica 3 carries BLOWUP_WAVE's data and the others a millionth of
        # it; in blocks of two replicas the block 2-3 fails, and 4 never runs
        w = BLOWUP_WAVE["wave"]
        spec = TorusGrid(w["d"], 2 * w["half_width"] + 1)
        params = dict(w["profile"])
        prof = FACTORIES[params.pop("name")](**params)
        a = sample_initial(EnsembleSpec(5, BLOWUP_WAVE["seed"], prof), spec)
        a[[0, 1, 2, 4]] *= 1e-6
        monkeypatch.setattr(harness, "BLOCK_BYTES", 2 * a[0].nbytes)
        with pytest.raises(NumericalBlowupError) as err:
            _integrate_ensemble(a, ModelParams(spec, w["lam"]), w["dt"], 100, "exponential")
        text = str(err.value)
        assert text.startswith(f"step {err.value.step}: amplitude peak ")
        assert text.endswith(
            "in the block of replicas 2-3; later blocks (replica 4) were not stepped"
        )

    def test_wave_blowup_reports_the_run_step_and_time(self, tmp_path):
        # the bound is checked every 50 steps and at each saved segment's end;
        # the step and the time reported count from the start of the run
        doc = {**BLOWUP_WAVE, "wave": {**BLOWUP_WAVE["wave"], "save_every": 10}}
        with pytest.raises(NumericalBlowupError) as err:
            run(parse_config(doc), out=tmp_path)
        step = err.value.step
        assert step >= 10 and (step + 1) % 10 == 0  # a later segment's end
        t = float(re.search(r"at t (\S+)", str(err.value)).group(1))
        assert t == pytest.approx((step + 1) * BLOWUP_WAVE["wave"]["dt"])

    def test_kinetic_blowup_leaves_the_last_accepted_spectrum(self, tmp_path):
        # the default kinetic block leaves its bounds on the step to tau 0.06
        doc = {"pipeline": "wt-kinetic", "seed": 0, "kinetic": {}}
        with pytest.raises(NumericalBlowupError):
            run(parse_config(doc), out=tmp_path)
        disk = _manifest_of(tmp_path)
        assert disk["status"] == "numerical-failure"
        assert disk["snapshot"].endswith("last_good.csv")
        text = (tmp_path / "last_good.csv").read_text()
        assert float(re.search(r"tau=(\S+)", text).group(1)) == pytest.approx(0.04, rel=1e-12)

    def test_check_mode_raises_and_records(self, tmp_path):
        # dt large enough that the velocity-Verlet energy wobble blows the
        # built-in 1e-4 budget, small enough to stay stable (omega*dt ~ 0.25)
        doc = {
            "pipeline": "chain-sim",
            "seed": 9,
            "chain": {
                "n": 32,
                "alpha": 0.5,
                "dt": 0.02,
                "n_steps": 100,
                "save_every": 10,
                "law": {"kind": "gaussian", "sigma_r": 0.1, "sigma_v": 0.1},
            },
        }
        with pytest.raises(CheckFailure, match="energy-bounded-drift") as err:
            run(parse_config(doc), out=tmp_path, check=True)
        disk = _manifest_of(tmp_path)
        assert disk["status"] == "checks-failed"
        by_name = {c["name"]: c["passed"] for c in disk["checks"]}
        assert by_name["momentum-conserved"] is True
        assert by_name["energy-bounded-drift"] is False
        drift = next(c for c in disk["checks"] if c["name"] == "energy-bounded-drift")
        assert drift["limit"] == 1e-4 and drift["value"] == disk["metrics"]["energy_drift_rel"]
        assert str(err.value) == f"energy-bounded-drift {drift['value']:.3e} > 1.000e-04"

    def test_same_doc_without_check_is_ok_status(self, tmp_path):
        doc = {
            "pipeline": "chain-sim",
            "seed": 9,
            "chain": {"n": 16, "alpha": 0.5, "dt": 1e-3, "n_steps": 50},
        }
        man = run(parse_config(doc), out=tmp_path)
        assert man.status == "ok"
        assert man.metrics["energy_drift_rel"] < 1e-4

    def test_chain_series_rows_when_save_every_does_not_divide_the_run(self, tmp_path):
        # segments of 10, 10 and 5 steps: one row per segment end, at the run's
        # clock, with the invariants of a literal real-space Verlet run
        dt, law = 0.01, {"kind": "gaussian", "sigma_r": 0.1, "sigma_v": 0.1}
        doc = {
            "pipeline": "chain-sim",
            "seed": 9,
            "chain": {"n": 16, "dt": dt, "n_steps": 25, "save_every": 10, "replicas": 2, "law": law},
        }
        run(parse_config(doc), out=tmp_path)
        lines = (tmp_path / "series.csv").read_text().splitlines()
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines if ln[0].isdigit()])
        assert rows[:, 0].tolist() == [k * dt for k in (0, 10, 20, 25)]
        geom, fp = TorusGrid(1, 16), FractionalParams(0.5)
        r, v = sample_ensemble(GaussianLaw(0.0, 0.0, 0.1, 0.1), geom, 2, 9)
        done = 0
        for row, k in zip(rows, (0, 10, 20, 25)):
            r, v = ref.verlet_pairs(r, v, geom, fp, dt, k - done)
            done = k
            e = float(np.mean(chain_energy(r, v, geom, fp)))
            assert row[1] == pytest.approx(e, rel=1e-12)
            assert abs(row[2] - float(np.mean(v.sum(axis=-1)))) < 1e-12

    def test_wave_series_rows_when_save_every_does_not_divide_the_run(self, tmp_path):
        # segments of 10, 10 and 5 steps: one row per segment end, at the run's
        # clock, and the final state of the same run saved only at its end
        dt = _wave_doc()["wave"]["dt"]
        run(parse_config(_wave_doc(n_steps=25, save_every=10)), out=tmp_path / "saved")
        run(parse_config(_wave_doc(n_steps=25, save_every=0)), out=tmp_path / "once")
        lines = (tmp_path / "saved" / "series.csv").read_text().splitlines()
        assert [float(ln.split(",")[0]) for ln in lines if ln[0].isdigit()] == [
            k * dt for k in (10, 20, 25)
        ]
        for name in ("spectrum_final.csv", "amplitudes_final_r0.csv", "amplitudes_final_r0.json"):
            saved, once = (tmp_path / side / name for side in ("saved", "once"))
            assert saved.read_bytes() == once.read_bytes(), name

    def test_chain_unstable_dt_fails_before_any_step(self, tmp_path):
        # dt sqrt(-s) is far past the Verlet stability bound of 2 on the top
        # modes; the run fails on its first segment before any step, and
        # last_good.csv holds the sampled t = 0 state
        law = {"kind": "gaussian", "sigma_r": 0.1, "sigma_v": 0.1}
        doc = {
            "pipeline": "chain-sim",
            "seed": 18,
            "chain": {"n": 16, "dt": 1.0, "n_steps": 1000, "save_every": 50, "replicas": 3, "law": law},
        }
        with pytest.raises(NumericalBlowupError) as err:
            run(parse_config(doc), out=tmp_path)
        assert err.value.step is None
        assert str(err.value).startswith("velocity Verlet is unstable at dt 1: mode ")
        disk = _manifest_of(tmp_path)
        assert disk["status"] == "numerical-failure"
        assert disk["snapshot"].endswith("last_good.csv")
        text = (tmp_path / "last_good.csv").read_text()
        assert float(re.search(r"t=(\S+)", text).group(1)) == 0.0
        r, v = sample_ensemble(GaussianLaw(0.0, 0.0, 0.1, 0.1), TorusGrid(1, 16), 3, 18)
        rows = [ln.split(",") for ln in text.splitlines() if ln[0].isdigit()]
        assert [float(row[2]) for row in rows] == r[0].tolist()
        assert [float(row[3]) for row in rows] == v[0].tolist()

    def test_mf_compare_unstable_dt_fails_before_the_density(self, tmp_path, monkeypatch):
        # the chain side is refused before the Vlasov density is built, and
        # last_good.csv holds replica 0 of the sampled t = 0 ensemble
        doc = {"pipeline": "mf-compare", "seed": 1, "chain": {"dt": 1.0}}
        doc |= {"vlasov": {}, "compare": {}}
        cfgp = tmp_path / "run.json"
        cfgp.write_text(json.dumps(doc))
        built = []
        monkeypatch.setattr(harness, "density_from_law", lambda *a: built.append(a))
        out = tmp_path / "o"
        assert cli.main(["mf-compare", "--config", str(cfgp), "--out", str(out)]) == 2
        assert built == []
        disk = _manifest_of(out)
        assert disk["status"] == "numerical-failure"
        assert disk["metrics"]["error"].startswith("velocity Verlet is unstable at dt 1: mode ")
        assert disk["snapshot"].endswith("last_good.csv")
        text = (out / "last_good.csv").read_text()
        assert float(re.search(r"t=(\S+)", text).group(1)) == 0.0
        c = parse_config(doc).chain
        r, v = sample_ensemble(build_law(c.law), TorusGrid(c.d, c.n), c.replicas, 1)
        rows = [ln.split(",") for ln in text.splitlines() if ln[0].isdigit()]
        assert [float(row[2]) for row in rows] == r[0].tolist()
        assert [float(row[3]) for row in rows] == v[0].tolist()

    def test_wt_compare_wave_blowup_leaves_the_sampled_replica_0(self, tmp_path):
        # the default wave block leaves its bound at step 99; last_good holds
        # replica 0 of the sampled a(+) at t = 0, as wt-sim would write it
        doc = {"pipeline": "wt-compare", "seed": 1, "wave": {}, "kinetic": {}, "compare": {}}
        with pytest.raises(NumericalBlowupError) as err:
            run(parse_config(doc), out=tmp_path / "o")
        assert err.value.step == 99
        assert _manifest_of(tmp_path / "o")["snapshot"].endswith("last_good.csv")
        w = parse_config(doc).wave
        spec = TorusGrid(w.d, 2 * w.half_width + 1)
        a = sample_initial(EnsembleSpec(w.replicas, 1, build_profile(w.profile)), spec)
        meta = {"t": 0.0, "lam": w.lam, "seed": 1, "d": w.d, "half_width": w.half_width}
        for want in write_amplitude_snapshot(tmp_path / "last_good", a[0], spec, meta):
            assert (tmp_path / "o" / want.name).read_bytes() == want.read_bytes()

    def test_wt_compare_kinetic_blowup_leaves_the_last_accepted_spectrum(self, tmp_path):
        # the wave side runs; the default kinetic block then leaves its bounds
        # on the step to tau 0.06
        doc = {"pipeline": "wt-compare", "seed": 1, "kinetic": {}, "compare": {"tau_final": 0.1}}
        doc["wave"] = {"lam": 0.3, "dt": 0.02, "replicas": 4}
        with pytest.raises(NumericalBlowupError) as err:
            run(parse_config(doc), out=tmp_path)
        assert err.value.step == 2
        assert _manifest_of(tmp_path)["snapshot"].endswith("last_good.csv")
        text = (tmp_path / "last_good.csv").read_text()
        assert float(re.search(r"tau=(\S+)", text).group(1)) == pytest.approx(0.04, rel=1e-12)

    def test_wt_compare_kinetic_blowup_keeps_the_finished_wave_side(self, tmp_path):
        # the kinetic side fails at step 2 after the wave side has finished;
        # the micro spectra are written and listed in the failure manifest
        doc = {"pipeline": "wt-compare", "seed": 1, "kinetic": {}, "compare": {"tau_final": 0.1}}
        doc["wave"] = {"lam": 0.3, "dt": 0.02, "replicas": 4}
        with pytest.raises(NumericalBlowupError):
            run(parse_config(doc), out=tmp_path / "o")
        disk = _manifest_of(tmp_path / "o")
        assert disk["status"] == "numerical-failure"
        assert [f["path"] for f in disk["files"]] == ["micro_final.csv", "micro_initial.csv"]
        for f in disk["files"]:
            assert f["sha256"] == sha256_file(tmp_path / "o" / f["path"])
        w = parse_config(doc).wave
        spec = TorusGrid(w.d, 2 * w.half_width + 1)
        a = sample_initial(EnsembleSpec(w.replicas, 1, build_profile(w.profile)), spec)
        n_steps = round(0.1 / w.lam**2 / w.dt)
        final = empirical_spectrum(
            _integrate_ensemble(a, ModelParams(spec, w.lam), w.dt, n_steps, w.scheme), spec
        )
        grid, tau = TorusGrid(w.d, spec.m), w.lam**2 * (n_steps * w.dt)
        for name, f, t in (("micro_initial", empirical_spectrum(a, spec), 0.0), ("micro_final", final, tau)):
            want = write_spectrum_csv(tmp_path / f"{name}.csv", f, grid, t)
            assert (tmp_path / "o" / want.name).read_bytes() == want.read_bytes()

    def test_wt_compare_reports_the_two_slow_times_it_compares(self, tmp_path):
        # lam 0.3, dt 0.02: 11 steps reach tau 0.0198; dtau 0.01: 2 steps reach 0.02
        doc = LANE_RUNS["wt-compare"][0]
        man = run(parse_config(doc), out=tmp_path / "apart")
        summary = json.loads((tmp_path / "apart" / "compare.json").read_text())
        for metrics in (man.metrics, summary):
            assert metrics["tau_micro"] == pytest.approx(0.0198, rel=1e-12)
            assert metrics["tau_kinetic"] == pytest.approx(0.02, rel=1e-12)
        assert man.notes == [
            "the spectra are compared at different slow times: tau_micro 0.0198, tau_kinetic 0.02"
        ]
        # one kinetic step of 0.0198 meets the micro time: no note
        doc = {**doc, "kinetic": {**doc["kinetic"], "dtau": 0.0198}}
        man = run(parse_config(doc), out=tmp_path / "met")
        assert man.metrics["tau_kinetic"] == pytest.approx(man.metrics["tau_micro"], abs=1e-15)
        assert man.notes == []

    def test_mf_compare_reports_its_sampling_floor(self, tmp_path):
        doc = {
            "pipeline": "mf-compare",
            "seed": 3,
            "chain": {
                "n": 32,
                "dt": 1e-3,
                "replicas": 4,
                "law": {"kind": "cosine-gaussian", "amplitude": 0.1, "sigma_v": 0.05},
            },
            "vlasov": {"mx": 8, "mr": 16, "mv": 16, "r_max": 0.5, "v_max": 1.0},
            "compare": {"t_final": 0.05},
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the PDE's advisory is a note, not a warning
            man = run(parse_config(doc), out=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        for metrics in (man.metrics, summary):
            floor = metrics["distance_l2_initial"]
            assert 0.0 < floor < np.inf
            assert np.isfinite(metrics["excess"])
            assert metrics["excess"] == pytest.approx(metrics["distance_l2"] / floor, rel=1e-15)
        notes = json.loads((tmp_path / "manifest.json").read_text())["notes"]
        assert any("truncation boundary" in n for n in notes)
        assert "notes" not in summary

    def test_vlasov_notes_are_in_the_manifest_only(self, tmp_path):
        # a window narrower than the default law's support raises the boundary note
        doc = {
            "pipeline": "vlasov",
            "seed": 0,
            "vlasov": {"mx": 4, "mr": 16, "mv": 16, "r_max": 0.3, "v_max": 0.3, "n_steps": 5},
        }
        man = run(parse_config(doc), out=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "notes" not in summary and "notes" not in man.metrics
        notes = _manifest_of(tmp_path)["notes"]
        assert notes == man.notes and len(notes) == 1
        assert notes[0].startswith("support reached the (r, v) truncation boundary")

    def test_a_vlasov_run_reports_steps_times_step(self, tmp_path):
        # 100 steps of 0.01 summed one by one would give 1.0000000000000007
        cfg = parse_config({"pipeline": "vlasov", "seed": 1, "vlasov": {}})
        assert (cfg.vlasov.n_steps, cfg.vlasov.dt) == (100, 0.01)
        man = run(cfg, out=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        density = json.loads((tmp_path / "density_final.json").read_text())
        assert man.metrics["t_final"] == summary["t_final"] == density["t"] == 1.0

    def test_a_kinetic_series_is_stamped_at_steps_times_step(self, tmp_path):
        doc = {
            "pipeline": "wt-kinetic",
            "seed": 1,
            "kinetic": {"m": 8, "epsilon": 0.3, "dtau": 0.01, "n_steps": 10},
        }
        man = run(parse_config(doc), out=tmp_path)
        lines = (tmp_path / "series.csv").read_text().splitlines()
        taus = [float(ln.split(",")[0]) for ln in lines if ln[0].isdigit()]
        assert taus == [0.0] + [(i + 1) * 0.01 for i in range(10)]
        # a running sum of the steps drifts off that clock
        sums = np.cumsum([0.0] + [0.01] * 10).tolist()
        assert sums != taus
        assert man.metrics["tau_final"] == taus[-1] == 0.1

    def test_manifest_records_the_resolved_config(self, tmp_path):
        # a law or profile block lists every parameter of its kind, defaults filled in
        doc = LANE_RUNS["mf-compare"][0]
        run(parse_config(doc), out=tmp_path / "mf")
        disk = _manifest_of(tmp_path / "mf")
        assert disk["config_hash"] == config_hash(parse_config(doc))
        # the step fields the comparison derives from compare.t_final are left out
        assert "n_steps" not in disk["config_resolved"]["chain"]
        law = disk["config_resolved"]["chain"]["law"]
        assert law == {"kind": "cosine-gaussian", "amplitude": 0.2, "mode": 1, "sigma_r": 0.0, "sigma_v": 0.1}
        doc = _wave_doc(n_steps=2, profile={"name": "rayleigh-jeans", "temperature": 0.1})
        run(parse_config(doc), out=tmp_path / "wt")
        resolved = _manifest_of(tmp_path / "wt")["config_resolved"]
        assert resolved["wave"]["profile"] == {"name": "rayleigh-jeans", "temperature": 0.1, "floor": 1e-12}
        assert resolved["wave"]["n_steps"] == 2 and "chain" not in resolved
        assert "raw" not in resolved


# lane stepper -> a call of it on a small valid state with (step, n_steps)
STEPPERS = {
    "chain.verlet_evolve": lambda dt, n: verlet_evolve(
        np.zeros(4), np.zeros(4), TorusGrid(1, 4), FractionalParams(0.5), dt, n
    ),
    "kinetic.evolve": lambda dt, n: kinetic.evolve(
        np.ones(8),
        TorusGrid(1, 8),
        kinetic.ResonanceRule(0.3),
        dt,
        n,
    ),
    "waves.integrate": lambda dt, n: integrate(
        np.zeros(9, complex), ModelParams(TorusGrid(1, 9), 0.1), dt, n
    ),
    "vlasov.vlasov_evolve": lambda dt, n: vlasov_evolve(
        np.ones((2, 4, 4)), PhaseGrid(2, 4, 4, 1.0, 1.0), FractionalParams(0.5), dt, n
    ),
}


@pytest.mark.parametrize("n_steps", [0, 2])
@pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
@pytest.mark.parametrize("stepper", sorted(STEPPERS))
def test_every_stepper_rejects_a_bad_step_before_any_work(stepper, dt, n_steps):
    with pytest.raises(ValueError, match=r"^dt(au)? must be finite and positive, got "):
        STEPPERS[stepper](dt, n_steps)
    STEPPERS[stepper](0.01, n_steps)  # the same call with a good step runs


class TestSweep:
    def test_run_dispatches_to_sweep(self, tmp_path):
        doc = {
            "pipeline": "wt-kinetic",
            "seed": 1,
            "kinetic": {"m": 8, "epsilon": 0.3, "dtau": 0.02, "n_steps": 5},
            "sweep": {"axis": "kinetic.epsilon", "values": [0.3, 0.2]},
        }
        man = run(parse_config(doc), out=tmp_path)
        assert man.metrics["axis"] == "kinetic.epsilon"
        assert man.metrics["verdict"] in ("non-increasing", "violated")
        report = json.loads((tmp_path / "sweep.json").read_text())
        assert [r["value"] for r in report["results"]] == [0.3, 0.2]
        for r in report["results"]:
            child = tmp_path / r["dir"]
            assert (child / "manifest.json").exists()
            assert r["status"] == "ok"
        assert (tmp_path / "sweep.csv").exists()
        assert len(man.metrics["stationarity_l1"]) == 2
        assert man.checks == [Budget("sweep-complete", 0.0, 0.0)]

    def test_a_failed_child_fails_the_sweep_complete_budget(self, tmp_path):
        # the default kinetic block (m = 32) leaves its bounds at step 2; m = 8 runs
        doc = {
            "pipeline": "wt-kinetic",
            "seed": 1,
            "kinetic": {"n_steps": 5},
            "sweep": {"axis": "kinetic.m", "values": [8, 32]},
        }
        with pytest.raises(CheckFailure) as err:
            run(parse_config(doc), out=tmp_path, check=True)
        assert str(err.value) == "sweep-complete 1.000e+00 > 0.000e+00"
        disk = _manifest_of(tmp_path)
        assert disk["status"] == "partial"
        assert disk["checks"] == [
            {"name": "sweep-complete", "value": 1.0, "limit": 0.0, "passed": False}
        ]

    def test_check_holds_each_child_to_its_own_budgets(self, tmp_path):
        # at dt 0.3 the child drifts past the energy budget; alone it exits 3
        doc = {
            "pipeline": "wt-sim",
            "seed": 1,
            "wave": {
                "lam": 0.3,
                "half_width": 4,
                "replicas": 2,
                "n_steps": 20,
                "profile": {"name": "torus-gaussian", "amplitude": 0.05, "width": 0.3},
            },
            "sweep": {"axis": "wave.dt", "values": [0.3, 0.1]},
        }
        cfgp = tmp_path / "sweep.json"
        cfgp.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", str(cfgp), "--out", str(out), "--check"]) == 3
        child = _manifest_of(out / "wave-dt=0.3")
        assert child["status"] == "checks-failed"
        budget = next(c for c in child["checks"] if not c["passed"])
        assert budget["name"] == "energy-conserved"
        assert _manifest_of(out / "wave-dt=0.1")["status"] == "ok"
        disk = _manifest_of(out)
        assert disk["status"] == "checks-failed"
        assert disk["checks"][1:] == [budget | {"name": "wave-dt=0.3/energy-conserved"}]
        report = json.loads((out / "sweep.json").read_text())
        assert [r["status"] for r in report["results"]] == ["checks-failed", "ok"]
        with pytest.raises(CheckFailure) as err:
            run(parse_config(doc), out=tmp_path / "again", check=True)
        assert str(err.value).startswith("wave-dt=0.3/energy-conserved ")
        # without check the child's budget is still listed, and nothing fails
        man = run(parse_config(doc), out=tmp_path / "plain")
        assert man.status == "ok" and _manifest_of(tmp_path / "plain" / "wave-dt=0.3")["status"] == "ok"
        assert [b.name for b in man.checks] == ["sweep-complete", "wave-dt=0.3/energy-conserved"]

    def test_manifests_record_the_directory_each_run_wrote(self, tmp_path):
        # the resolved config's out is the directory written, not the config's
        doc = {
            "pipeline": "wt-kinetic",
            "seed": 1,
            "out": str(tmp_path / "x"),
            "kinetic": {"m": 8, "epsilon": 0.3, "dtau": 0.02, "n_steps": 1},
        }
        cfgp = tmp_path / "run.json"
        cfgp.write_text(json.dumps(doc))
        out = tmp_path / "cout"
        assert cli.main(["wt-kinetic", "--config", str(cfgp), "--out", str(out)]) == 0
        disk = _manifest_of(out)
        assert disk["config_resolved"]["out"] == disk["out_dir"] == str(out)
        assert not (tmp_path / "x").exists()
        doc["sweep"] = {"axis": "kinetic.epsilon", "values": [0.3, 0.2]}
        run(parse_config(doc), out=tmp_path / "sw")
        dirs = [tmp_path / "sw"] + sorted((tmp_path / "sw").glob("kinetic-epsilon=*"))
        assert len(dirs) == 3
        for d in dirs:
            disk = _manifest_of(d)
            assert disk["config_resolved"]["out"] == disk["out_dir"] == str(d)

    def test_sweep_manifest_spans_its_children(self, tmp_path):
        doc = {
            "pipeline": "wt-kinetic",
            "seed": 1,
            "kinetic": {"m": 8, "epsilon": 0.3, "dtau": 0.02, "n_steps": 2},
            "sweep": {"axis": "kinetic.epsilon", "values": [0.3, 0.2, 0.1]},
        }
        run(parse_config(doc), out=tmp_path)

        def stamps(d):
            disk = _manifest_of(d)
            return [datetime.datetime.fromisoformat(disk[k]) for k in ("started", "finished")]

        started, finished = stamps(tmp_path)
        children = [stamps(d) for d in tmp_path.glob("kinetic-epsilon=*")]
        assert len(children) == 3
        assert all(started <= s and f <= finished for s, f in children)

    @staticmethod
    def _kinetic_sweep(m, values):
        return parse_config(
            {
                "pipeline": "wt-kinetic",
                "seed": 1,
                "kinetic": {"d": 2, "m": m, "omega_floor": 0.05, "dtau": 0.01, "n_steps": 2},
                "sweep": {"axis": "kinetic.epsilon", "values": values},
            }
        )

    def test_serial_sweep_keeps_one_collision_plan(self, tmp_path):
        run(self._kinetic_sweep(8, [0.3, 0.2, 0.1]), out=tmp_path)
        gc.collect()
        plans = [o for o in gc.get_objects() if isinstance(o, kinetic._TriadPlan)]
        assert len(plans) <= 1

    def test_threaded_sweep_builds_each_plan_once(self, tmp_path, monkeypatch):
        built = []
        build = kinetic._collision_plan

        def counted(grid, rule):
            built.append(rule.epsilon)
            return build(grid, rule)

        monkeypatch.setattr(kinetic, "_collision_plan", counted)
        values = [0.3, 0.2, 0.1]
        man = run(self._kinetic_sweep(10, values), out=tmp_path, workers=2)
        assert man.status == "ok"
        # each child evaluates its operator nine times (four RK4 stages in each
        # of two steps, then the final rate) but builds its plan once
        assert sorted(built) == sorted(values)


def _python(args, cwd, **env):
    # the child runs in cwd, so a relative src entry on PYTHONPATH would miss;
    # env entries override the inherited environment, and None unsets one
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env)
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env={k: v for k, v in env.items() if v is not None},
        capture_output=True,
        text=True,
        timeout=300,
    )


def _cli(args, cwd):
    return _python(["-m", "kinlat.cli", *args], cwd)


# CPU seconds of every thread but the main one, 0.3 s after importing the CLI
_IDLE_THREADS = """
import json, os, time
import kinlat.cli
time.sleep(0.3)
tasks = "/proc/self/task"
others = [t for t in os.listdir(tasks) if int(t) != os.getpid()] if os.path.isdir(tasks) else []
ticks = 0
for t in others:
    with open(f"{tasks}/{t}/stat") as fh:
        ticks += sum(map(int, fh.read().rsplit(")", 1)[1].split()[11:13]))  # utime, stime
cpu_s = ticks / os.sysconf("SC_CLK_TCK")
print(json.dumps({"timeout": os.environ.get("OPENBLAS_THREAD_TIMEOUT"), "others": len(others), "cpu_s": cpu_s}))
"""


class TestCli:
    def test_success_exit_and_headline(self, tmp_path):
        cfgp = tmp_path / "run.json"
        cfgp.write_text(json.dumps({"pipeline": "oracle-suite", "seed": 2}))
        res = _cli(
            ["oracle-suite", "--config", str(cfgp), "--out", str(tmp_path / "o"), "--check"],
            tmp_path,
        )
        assert res.returncode == 0, res.stderr
        assert "oracle-suite ok" in res.stdout
        assert "n_failed=0" in res.stdout

    def test_config_errors_exit_1(self, tmp_path):
        res = _cli(["wt-sim", "--config", str(tmp_path / "absent.json")], tmp_path)
        assert res.returncode == 1
        assert "config error" in res.stderr

        cfgp = tmp_path / "mismatch.json"
        cfgp.write_text(json.dumps(_wave_doc()))
        res = _cli(["chain-sim", "--config", str(cfgp)], tmp_path)
        assert res.returncode == 1
        assert "does not match" in res.stderr

        res = _cli(["sweep", "--config", str(cfgp)], tmp_path)
        assert res.returncode == 1  # no sweep block

    def test_usage_errors_exit_1(self, tmp_path):
        # exit 2 is kept for numerical failure; --help and --version still exit 0
        (tmp_path / "run.json").write_text(json.dumps({"pipeline": "oracle-suite", "seed": 2}))
        run_ = ["oracle-suite", "--config", "run.json", "--out", "o", "--workers"]
        usage = ([], ["oracle-suite"], ["bogus", "--config", "run.json"])
        usage += tuple(run_ + [n] for n in ("two", "0", "-3"))
        for args in usage:
            res = _cli(args, tmp_path)
            assert (res.returncode, res.stdout) == (1, ""), args
            assert "error" in res.stderr, args
        for args in (["--help"], ["--version"], ["wt-sim", "--help"]):
            assert _cli(args, tmp_path).returncode == 0, args

    def test_numerical_blowup_exits_2(self, tmp_path):
        cfgp = tmp_path / "hot.json"
        cfgp.write_text(json.dumps(BLOWUP_WAVE))
        res = _cli(
            ["wt-sim", "--config", str(cfgp), "--out", str(tmp_path / "o")], tmp_path
        )
        assert res.returncode == 2
        assert "numerical failure" in res.stderr
        assert "last-good snapshot" in res.stderr

    def test_failed_checks_exit_3(self, tmp_path):
        doc = {
            "pipeline": "chain-sim",
            "seed": 9,
            "chain": {"n": 32, "alpha": 0.5, "dt": 0.02, "n_steps": 100, "save_every": 10},
        }
        cfgp = tmp_path / "wobble.json"
        cfgp.write_text(json.dumps(doc))
        res = _cli(
            ["chain-sim", "--config", str(cfgp), "--out", str(tmp_path / "o"), "--check"],
            tmp_path,
        )
        assert res.returncode == 3
        assert "checks failed" in res.stderr
        # without --check the same run reports instead of failing
        res = _cli(
            ["chain-sim", "--config", str(cfgp), "--out", str(tmp_path / "o2")], tmp_path
        )
        assert res.returncode == 0

    @pytest.mark.parametrize(
        "pipeline, doc",
        [
            ("vlasov", {"vlasov": {"law": {"kind": "gaussian", "mean_r": 50, "sigma_r": 0.1, "sigma_v": 0.1}}}),
            ("mf-compare", {"chain": {"law": {"kind": "cosine-gaussian", "amplitude": 50}}, "vlasov": {}, "compare": {}}),
        ],
    )
    def test_a_law_with_no_mass_in_the_window_fails_before_any_output(self, tmp_path, pipeline, doc):
        # the law's whole mass lies outside |r| <= 1 at x cell 0: refused
        # while the density is built, as a numerical failure
        cfgp = tmp_path / "run.json"
        cfgp.write_text(json.dumps({"seed": 1} | doc))
        out = tmp_path / "o"
        res = _cli([pipeline, "--config", str(cfgp), "--out", str(out)], tmp_path)
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        error = "the law has no mass in the (r, v) window |r| <= 1, |v| <= 1 at x cell 0 (x = 0.03125)"
        assert res.stderr.startswith(f"numerical failure: {error}")
        disk = _manifest_of(out)
        assert disk["status"] == "numerical-failure"
        assert disk["metrics"] == {"error": error}
        assert disk["files"] == []
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    def test_idle_blas_workers_sleep(self, tmp_path):
        # kinlat's GEMMs are too small for OpenBLAS to split, so its workers
        # never get work; by default each would spin 0.06-0.10 s of CPU first
        res = _python(["-c", _IDLE_THREADS], tmp_path, OPENBLAS_THREAD_TIMEOUT=None)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        if not report["others"]:
            pytest.skip("no /proc/self/task, or no thread besides the main one")
        assert report["cpu_s"] <= 0.02
        assert report["timeout"] == "4"

    def test_a_callers_openblas_thread_timeout_wins(self, tmp_path):
        res = _python(["-c", _IDLE_THREADS], tmp_path, OPENBLAS_THREAD_TIMEOUT="12")
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["timeout"] == "12"

    def test_seed_override_changes_hash(self, tmp_path):
        cfgp = tmp_path / "run.json"
        cfgp.write_text(json.dumps({"pipeline": "oracle-suite", "seed": 2}))
        res = _cli(
            ["oracle-suite", "--config", str(cfgp), "--seed", "7", "--out", str(tmp_path / "o")],
            tmp_path,
        )
        assert res.returncode == 0
        assert "seed=7" in res.stdout


# pipeline -> (small config, kinlat modules its process must not load)
LANE_RUNS = {
    "wt-sim": (_wave_doc(), {"chain", "vlasov", "compare", "_reference", "_ziggurat"}),
    "wt-compare": (
        {
            "pipeline": "wt-compare",
            "seed": 1,
            "wave": {"d": 1, "half_width": 4, "lam": 0.3, "dt": 0.02, "replicas": 4},
            "kinetic": {"d": 1, "m": 8, "epsilon": 0.3, "dtau": 0.01},
            "compare": {"tau_final": 0.02},
        },
        {"chain", "vlasov", "_reference", "_ziggurat"},
    ),
    "wt-kinetic": (
        {
            "pipeline": "wt-kinetic",
            "seed": 1,
            "kinetic": {"d": 1, "m": 8, "epsilon": 0.3, "dtau": 0.01, "n_steps": 2},
        },
        {"chain", "vlasov", "waves", "rng", "compare", "_reference", "_ziggurat"},
    ),
    "chain-sim": (
        {"pipeline": "chain-sim", "seed": 9, "chain": {"n": 16, "dt": 1e-3, "n_steps": 5}},
        {"waves", "kinetic", "compare", "_reference"},
    ),
    "vlasov": (
        {
            "pipeline": "vlasov",
            "seed": 0,
            "vlasov": {"mx": 4, "mr": 16, "mv": 16, "r_max": 0.5, "v_max": 0.5, "n_steps": 2},
        },
        {"waves", "rng", "kinetic", "_reference", "_ziggurat"},
    ),
    "mf-compare": (
        {
            "pipeline": "mf-compare",
            "seed": 3,
            "chain": {"n": 32, "dt": 1e-3, "replicas": 2, "law": {"kind": "cosine-gaussian"}},
            "vlasov": {"mx": 8, "mr": 16, "mv": 16, "r_max": 0.5, "v_max": 1.0},
            "compare": {"t_final": 0.05},
        },
        {"waves", "kinetic", "_reference"},
    ),
    "oracle-suite": ({"pipeline": "oracle-suite", "seed": 5}, set()),
}

_MODULES_AFTER_RUN = """
import json, sys
from kinlat import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"exit": code, "modules": sorted(sys.modules)}))
"""


# mf-compare with its density builder and sampler watched from the harness globals
_PHASE_ORDER = """
import json, sys, weakref
from kinlat import cli, harness
seen, build, sample = {}, harness.density_from_law, harness.sample_ensemble
def watched_build(*args):
    seen["random_at_density"] = "numpy.random" in sys.modules
    g = build(*args)
    seen["density"] = weakref.ref(g)
    return g
def watched_sample(*args):
    ref = seen.get("density")
    seen["density_at_sampling"] = "unbuilt" if ref is None else "freed" if ref() is None else "alive"
    return sample(*args)
harness.density_from_law, harness.sample_ensemble = watched_build, watched_sample
code = cli.main(sys.argv[1:])
seen.pop("density", None)
print(json.dumps({"exit": code} | seen))
"""

def _globals_read(fn, seen=None) -> set[str]:
    """Global names ``fn`` loads, through its nested code and the harness functions it calls."""
    seen = set() if seen is None else seen
    seen.add(fn)
    names, stack = set(), [fn.__code__]
    while stack:
        code = stack.pop()
        names |= {i.argval for i in dis.get_instructions(code) if i.opname == "LOAD_GLOBAL"}
        stack += [c for c in code.co_consts if inspect.iscode(c)]
    for name in list(names):
        obj = vars(harness).get(name)
        if inspect.isfunction(obj) and obj.__module__ == harness.__name__ and obj not in seen:
            names |= _globals_read(obj, seen)
    return names


class TestLanes:
    @pytest.mark.parametrize("pipeline", sorted(LANE_RUNS))
    def test_a_run_loads_only_its_own_lanes(self, tmp_path, pipeline):
        doc, absent = LANE_RUNS[pipeline]
        cfgp = tmp_path / "run.json"
        cfgp.write_text(json.dumps(doc))
        args = [pipeline, "--config", str(cfgp), "--out", str(tmp_path / "o")]
        res = _python(["-c", _MODULES_AFTER_RUN, *args], tmp_path)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout.splitlines()[-1])
        assert report["exit"] == 0
        loaded = set(report["modules"])
        assert "kinlat.harness" in loaded
        assert sorted(loaded & {f"kinlat.{m}" for m in absent}) == []
        if pipeline == "wt-sim":
            assert "concurrent.futures" not in loaded

    @pytest.mark.parametrize("pipeline", sorted([*LANE_RUNS, "wt-sim sweep"]))
    def test_no_run_loads_numpy_random_or_hashlib(self, tmp_path, pipeline):
        # manifest digests and the config hash come from the built-in SHA-256,
        # and every draw from kinlat.rng; numpy.random would add OpenSSL's
        # binding (_hashlib, libcrypto) through secrets -> hashlib
        if pipeline == "wt-sim sweep":
            doc = _wave_doc() | {"sweep": {"axis": "wave.lam", "values": [0.3, 0.2]}}
        else:
            doc = LANE_RUNS[pipeline][0]
        cfgp = tmp_path / "run.json"
        cfgp.write_text(json.dumps(doc))
        args = [doc["pipeline"], "--config", str(cfgp), "--out", str(tmp_path / "o")]
        res = _python(["-c", _MODULES_AFTER_RUN, *args], tmp_path)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout.splitlines()[-1])
        assert report["exit"] == 0
        loaded = set(report["modules"])
        assert "kinlat.io" in loaded
        assert "numpy.random" not in loaded
        assert "_hashlib" not in loaded

    def test_mf_compare_drops_the_density_before_the_chain_side(self, tmp_path):
        # the PDE side runs first: no numpy.random while the density is built,
        # and the density is freed before the ensemble is sampled
        doc, _ = LANE_RUNS["mf-compare"]
        cfgp = tmp_path / "run.json"
        cfgp.write_text(json.dumps(doc))
        args = ["mf-compare", "--config", str(cfgp), "--out", str(tmp_path / "o")]
        res = _python(["-c", _PHASE_ORDER, *args], tmp_path)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout.splitlines()[-1])
        assert report == {"exit": 0, "random_at_density": False, "density_at_sampling": "freed"}

    def test_the_wave_lane_loads_no_kinetic_lane(self, tmp_path):
        code = "import sys, kinlat.waves; print('kinlat.kinetic' in sys.modules)"
        res = _python(["-c", code], tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["False"]

    def test_writing_a_spectrum_loads_no_kinetic_lane(self, tmp_path):
        code = (
            "import sys, numpy; from kinlat.io import write_spectrum_csv; "
            "from kinlat.lattice import TorusGrid; "
            "write_spectrum_csv('f.csv', numpy.ones(5), TorusGrid(1, 5), 0.0); "
            "print('kinlat.kinetic' in sys.modules)"
        )
        res = _python(["-c", code], tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["False"]
        assert (tmp_path / "f.csv").read_text().splitlines()[4] == "0.20000000000000001,1"

    def test_oracle_cases_bind_their_own_lanes(self, tmp_path):
        # a fresh interpreter that has not called run has bound no lane yet
        code = "from kinlat.harness import _oracle_cases; _oracle_cases(1)"
        res = _python(["-c", code], tmp_path)
        assert res.returncode == 0, res.stderr

    def test_lane_names_resolve_to_the_lanes_own_objects(self):
        for lane, names in harness._LANES.items():
            module = importlib.import_module(f"kinlat.{lane}")
            for name in names:
                assert getattr(harness, name) is getattr(module, name), (lane, name)
        with pytest.raises(AttributeError):
            harness.no_such_name

    def test_each_driver_binds_every_lane_name_it_reads(self):
        lane_of = {n: lane for lane, names in harness._LANES.items() for n in names}
        own = set(vars(harness)) - set(lane_of)
        for pipeline, (driver, lanes) in harness._DRIVERS.items():
            read = _globals_read(driver) - own - set(dir(builtins))
            # every other global a driver reads is one of its own lanes' names
            assert sorted(n for n in read if lane_of.get(n) not in lanes) == [], pipeline

    def test_a_patched_binding_survives_run(self, tmp_path, monkeypatch):
        calls = []
        real = harness.sample_initial

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "sample_initial", counted)
        run(parse_config(_wave_doc()), out=tmp_path)
        assert calls == [1]
        assert harness.sample_initial is counted


# a window wide enough that the default law loses only round-off through its edge
WIDE_VLASOV = {"mx": 4, "mr": 32, "mv": 32, "r_max": 2, "v_max": 2, "n_steps": 20}


class TestBudgets:
    def test_a_budget_passes_at_its_limit_and_fails_on_nan(self):
        assert Budget("b", 1e-8, 1e-8).passed
        assert Budget("b", 0.0, 0.0).passed
        assert not Budget("b", float("nan"), 1.0).passed
        assert not Budget("b", float("inf"), sys.float_info.max).passed

    @pytest.mark.parametrize("pipeline", sorted(LANE_RUNS))
    def test_every_check_is_a_value_under_a_finite_limit(self, tmp_path, pipeline):
        run(parse_config(LANE_RUNS[pipeline][0]), out=tmp_path)
        checks = _manifest_of(tmp_path)["checks"]
        assert checks
        for c in checks:
            assert sorted(c) == ["limit", "name", "passed", "value"], c
            assert math.isfinite(c["limit"]), c
            assert c["passed"] == (c["value"] <= c["limit"]), c

    def test_default_vlasov_fails_mass_conserved_through_the_cli(self, tmp_path):
        # the default window lets about 1e-3 of the mass flow out per 100 steps,
        # and outflow counts as drift
        cfgp = tmp_path / "run.json"
        cfgp.write_text(json.dumps({"pipeline": "vlasov", "seed": 1, "vlasov": {}}))
        res = _cli(
            ["vlasov", "--config", str(cfgp), "--out", str(tmp_path / "o"), "--check"], tmp_path
        )
        assert res.returncode == 3, res.stderr
        checks = _manifest_of(tmp_path / "o")["checks"]
        mass = next(c for c in checks if c["name"] == "mass-conserved")
        assert mass["limit"] == 1e-8 and mass["value"] > 1e-4
        assert f"mass-conserved {mass['value']:.3e} > 1.000e-08" in res.stderr

    def test_a_wide_vlasov_window_conserves_mass(self, tmp_path):
        doc = {"pipeline": "vlasov", "seed": 1, "vlasov": WIDE_VLASOV}
        man = run(parse_config(doc), out=tmp_path, check=True)
        assert man.status == "ok"
        mass = next(b for b in man.checks if b.name == "mass-conserved")
        assert mass.passed and mass.value < 1e-11
