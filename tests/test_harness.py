"""Run orchestration: manifests, replica-block independence, CLI exits, lane loading."""

import builtins
import dis
import gc
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kinlat import harness, kinetic
from kinlat.config import config_hash, parse_config
from kinlat.errors import CheckFailure, NumericalBlowupError
from kinlat.harness import BLOCK_BYTES, _integrate_ensemble, run
from kinlat.io import sha256_file
from kinlat.lattice import LatticeSpec
from kinlat.waves import EnsembleSpec, ModelParams, _integrate_array, sample_initial, stack_ensemble

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
        assert "reality_defect" in disk["metrics"]
        assert disk["metrics"]["energy_drift_rel"] <= 1e-8
        names = [f["path"] for f in disk["files"]]
        assert "spectrum_final.csv" in names and "series.csv" in names
        # the manifest never lists itself: it is written after the digests
        assert "manifest.json" not in names
        for entry in disk["files"]:
            p = tmp_path / entry["path"]
            assert sha256_file(p) == entry["sha256"]
            assert p.stat().st_size == entry["bytes"]
        assert [c.name for c in man.checks[:2]] == ["reality-pair-preserved", "energy-conserved"]

    def test_replica_results_do_not_depend_on_block(self):
        # replica i integrated alone must be bit-identical to its row in an
        # ensemble that spans more than one replica block
        spec = LatticeSpec(2, 4)
        params = ModelParams(spec, 0.3)
        ones = np.ones(spec.shape)
        a, _ = stack_ensemble(sample_initial(EnsembleSpec(1, 42, ones), spec))
        rows = BLOCK_BYTES // a[0].nbytes
        a, _ = stack_ensemble(sample_initial(EnsembleSpec(rows + 3, 42, ones), spec))
        assert 1 < rows < a.shape[0]
        for scheme in ("exponential", "rk4"):
            together = _integrate_ensemble(a, params, 0.02, 20, scheme)
            for i in (0, rows - 1, rows, rows + 2):
                alone = _integrate_array(a[i : i + 1], params, 0.02, 20, scheme)
                assert np.array_equal(alone[0], together[i]), (scheme, i)

    def test_blowup_leaves_a_failure_manifest(self, tmp_path):
        with pytest.raises(NumericalBlowupError):
            run(parse_config(BLOWUP_WAVE), out=tmp_path)
        disk = _manifest_of(tmp_path)
        assert disk["status"] == "numerical-failure"
        assert disk["metrics"]["error"]
        assert disk["snapshot"].endswith("last_good.csv")
        assert (tmp_path / "last_good.csv").exists()

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
        with pytest.raises(CheckFailure, match="energy-bounded-drift"):
            run(parse_config(doc), out=tmp_path, check=True)
        disk = _manifest_of(tmp_path)
        assert disk["status"] == "checks-failed"
        by_name = {c["name"]: c["passed"] for c in disk["checks"]}
        assert by_name["momentum-conserved"] is True
        assert by_name["energy-bounded-drift"] is False

    def test_same_doc_without_check_is_ok_status(self, tmp_path):
        doc = {
            "pipeline": "chain-sim",
            "seed": 9,
            "chain": {"n": 16, "alpha": 0.5, "dt": 1e-3, "n_steps": 50},
        }
        man = run(parse_config(doc), out=tmp_path)
        assert man.status == "ok"
        assert man.metrics["energy_drift_rel"] < 1e-4

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


def _cli(args, cwd):
    # the child runs in cwd, so a relative src entry on PYTHONPATH would miss
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "kinlat.cli", *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )


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
    "wt-sim": (_wave_doc(), {"chain", "vlasov", "_reference"}),
    "wt-kinetic": (
        {
            "pipeline": "wt-kinetic",
            "seed": 1,
            "kinetic": {"d": 1, "m": 8, "epsilon": 0.3, "dtau": 0.01, "n_steps": 2},
        },
        {"chain", "vlasov", "waves", "_reference"},
    ),
    "chain-sim": (
        {"pipeline": "chain-sim", "seed": 9, "chain": {"n": 16, "dt": 1e-3, "n_steps": 5}},
        {"waves", "_reference"},
    ),
    "vlasov": (
        {
            "pipeline": "vlasov",
            "seed": 0,
            "vlasov": {"mx": 4, "mr": 16, "mv": 16, "r_max": 0.5, "v_max": 0.5, "n_steps": 2},
        },
        {"waves", "_reference"},
    ),
    "mf-compare": (
        {
            "pipeline": "mf-compare",
            "seed": 3,
            "chain": {"n": 32, "dt": 1e-3, "replicas": 2, "law": {"kind": "cosine-gaussian"}},
            "vlasov": {"mx": 8, "mr": 16, "mv": 16, "r_max": 0.5, "v_max": 1.0},
            "compare": {"t_final": 0.05},
        },
        {"waves", "_reference"},
    ),
}

_MODULES_AFTER_RUN = """
import json, sys
from kinlat import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"exit": code, "modules": sorted(sys.modules)}))
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
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        res = subprocess.run(
            [sys.executable, "-c", _MODULES_AFTER_RUN, pipeline, "--config", str(cfgp),
             "--out", str(tmp_path / "o")],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout.splitlines()[-1])
        assert report["exit"] == 0
        loaded = set(report["modules"])
        assert "kinlat.harness" in loaded
        assert sorted(loaded & {f"kinlat.{m}" for m in absent}) == []
        if pipeline == "wt-sim":
            assert "concurrent.futures" not in loaded

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
