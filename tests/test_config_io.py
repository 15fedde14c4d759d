"""Config parsing/validation and the deterministic file writers."""

import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kinlat import cli
from kinlat.chain import LAWS, GaussianLaw, PointLaw
from kinlat.config import (
    _REQUIRED_BLOCKS,
    LawConfig,
    VlasovConfig,
    build_law,
    build_profile,
    config_hash,
    load_config,
    parse_config,
    resolved,
)
from kinlat.errors import ConfigError, SizeMismatchError
from kinlat.harness import _paired_laws, run
from kinlat.io import (
    format_float,
    read_phase_density,
    write_amplitude_snapshot,
    sha256,
    sha256_file,
    write_csv,
    write_json,
    write_phase_density,
    write_spectrum_csv,
)
from kinlat.lattice import TorusGrid, nodes
from kinlat.profiles import FACTORIES
from kinlat.rng import normals
from kinlat.vlasov import PhaseGrid


def _wave_doc():
    return {
        "pipeline": "wt-sim",
        "seed": 7,
        "wave": {"d": 1, "half_width": 4, "lam": 0.2, "dt": 0.01, "n_steps": 10},
    }


def _mf_doc():
    return {
        "pipeline": "mf-compare",
        "seed": 3,
        "chain": {
            "n": 32,
            "alpha": 0.5,
            "dt": 1e-3,
            "n_steps": 100,
            "replicas": 4,
            "law": {"kind": "cosine-gaussian", "amplitude": 0.1, "sigma_v": 0.05},
        },
        "vlasov": {"mx": 8, "mr": 16, "mv": 16, "r_max": 0.5, "v_max": 1.0},
        "compare": {"t_final": 0.25},
    }


class TestParse:
    def test_minimal_doc_fills_defaults(self):
        cfg = parse_config(_wave_doc())
        assert cfg.pipeline == "wt-sim"
        assert cfg.seed == 7
        assert cfg.out == "runs/out"
        # the worker count is a CLI/run() argument, not part of a config
        with pytest.raises(ConfigError):
            parse_config({**_wave_doc(), "workers": 2})
        assert cfg.wave.scheme == "exponential"
        assert cfg.wave.replicas == 8
        assert cfg.wave.profile.name == "torus-gaussian"
        assert cfg.kinetic is None and cfg.chain is None and cfg.vlasov is None

    def test_compound_pipeline_builds_all_blocks(self):
        cfg = parse_config(_mf_doc())
        assert cfg.chain.law.kind == "cosine-gaussian"
        assert cfg.chain.law.params["amplitude"] == 0.1
        assert cfg.vlasov.law.kind == "gaussian"  # default law
        assert cfg.compare.t_final == 0.25

    def test_missing_required_block(self):
        doc = _mf_doc()
        del doc["vlasov"]
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.field == "vlasov"

    def test_unknown_key_is_rejected(self):
        doc = _wave_doc()
        doc["wave"]["halfwidth"] = 4
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert "wave" in (err.value.field or "")

    def test_out_of_range_values_carry_field_path(self):
        doc = {"pipeline": "wt-kinetic", "seed": 1, "kinetic": {"m": 3}}
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.field == "kinetic.m"

        doc = _mf_doc()
        doc["chain"]["alpha"] = 1.0  # open interval
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.field == "chain.alpha"

    def test_missing_seed_reports_root(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"pipeline": "wt-sim", "wave": {}})
        assert err.value.field == "<root>"

    def test_unknown_pipeline(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"pipeline": "wt-magic", "seed": 1})
        assert err.value.field == "pipeline"

    def test_sweep_axis_must_target_existing_block(self):
        doc = _wave_doc()
        doc["sweep"] = {"axis": "kinetic.epsilon", "values": [0.1, 0.2]}
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.field == "sweep.axis"

        doc["sweep"] = {"axis": "wave.lam", "values": [0.1, 0.2]}
        cfg = parse_config(doc)
        assert cfg.sweep.values == (0.1, 0.2)

    def test_integral_floats_in_int_fields_become_ints(self):
        doc = _wave_doc()
        doc["seed"] = 3.0
        doc["wave"].update(n_steps=10.0, half_width=4.0)
        cfg = parse_config(doc)
        assert cfg.wave.n_steps == 10 and type(cfg.wave.n_steps) is int
        assert type(cfg.wave.half_width) is int and type(cfg.seed) is int
        # a float field keeps the number it was given
        doc["wave"]["lam"] = 1
        assert type(parse_config(doc).wave.lam) is int
        assert config_hash(cfg) == config_hash(parse_config(json.loads(json.dumps(doc))))

    def test_absent_law_takes_the_block_default(self):
        cfg = parse_config({"pipeline": "vlasov", "seed": 0, "vlasov": {}})
        assert cfg.vlasov == VlasovConfig()
        assert cfg.vlasov.law.params == {"sigma_r": 0.2, "sigma_v": 0.2}

    @pytest.mark.parametrize(
        "axis, values, where",
        [
            ("wave.replicas", [2, 4.5], "sweep.values.1"),
            ("wave.lam", [0.1, -0.1], "sweep.values.1"),
            ("wave.profile.width", [0.1], "sweep.axis"),
            ("wave.scheme", [1], "sweep.axis"),
            ("wave", [1], "sweep.axis"),
            ("sweep.values", [1], "sweep.axis"),
        ],
    )
    def test_sweep_values_are_checked_against_the_axis_field(self, axis, values, where):
        doc = {**_wave_doc(), "sweep": {"axis": axis, "values": values}}
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.field == where

    def test_sweep_axis_may_name_a_defaulted_field(self, tmp_path):
        doc = _wave_doc()
        doc["wave"]["n_steps"] = 2
        doc["sweep"] = {"axis": "wave.replicas", "values": [2, 3.0]}
        man = run(parse_config(doc), out=tmp_path)
        assert man.status == "ok"
        for n in (2, 3):
            # the child doc holds the int the field holds, so its hash is that of this doc
            child = {**_wave_doc(), "wave": {**doc["wave"], "replicas": n}}
            disk = json.loads((tmp_path / f"wave-replicas={n}" / "manifest.json").read_text())
            assert disk["config_hash"] == config_hash(parse_config(child))

    def test_bad_sweep_value_fails_before_any_child_runs(self, tmp_path):
        doc = _wave_doc()
        doc["sweep"] = {"axis": "wave.replicas", "values": [2, 4.5]}
        cfgp = tmp_path / "sweep.json"
        cfgp.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfgp), "--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "block, key, value, where, message",
        [
            ("chain", "alpha", 0.4, "vlasov.alpha", "chain and transport blocks must share alpha"),
            (
                "chain",
                "dt",
                0.003,
                "compare.t_final",
                "chain.dt and vlasov.dt must both divide compare.t_final",
            ),
            (
                "chain",
                "law",
                {"kind": "point"},
                "chain.law.kind",
                "mean-field comparison needs a law with a density (gaussian kinds)",
            ),
            # both sides agree (250 and 25 steps) but neither reaches 0.2505
            (
                "compare",
                "t_final",
                0.2505,
                "compare.t_final",
                "chain.dt and vlasov.dt must both divide compare.t_final",
            ),
        ],
    )
    def test_mf_compare_block_rules_are_checked_at_parse(self, block, key, value, where, message):
        doc = _mf_doc()
        doc[block][key] = value
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert (err.value.field, err.value.message) == (where, message)

    def test_wt_compare_needs_coupling_at_parse(self):
        doc = {"pipeline": "wt-compare", "seed": 1, "wave": {"lam": 0}}
        doc.update(kinetic={}, compare={})
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert (err.value.field, err.value.message) == (
            "wave.lam",
            "the kinetic comparison needs lam > 0",
        )

    def test_block_rules_are_checked_per_sweep_child(self):
        doc = {**_mf_doc(), "sweep": {"axis": "chain.alpha", "values": [0.5, 0.4]}}
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.field == "sweep.values.1"
        assert err.value.message == "vlasov.alpha: chain and transport blocks must share alpha"
        # the base value is not run by a sweep, so only the children are held to the rule
        doc = {**_mf_doc(), "sweep": {"axis": "vlasov.alpha", "values": [0.4]}}
        doc["chain"] = {**doc["chain"], "alpha": 0.4}
        assert parse_config(doc).sweep.values == (0.4,)

    def test_mf_compare_block_error_makes_no_directory(self, tmp_path):
        doc = _mf_doc()
        doc["chain"]["alpha"] = 0.4
        cfgp = tmp_path / "mf.json"
        cfgp.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["mf-compare", "--config", str(cfgp), "--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "axis, values, where",
        [
            ("kinetic.epsilon", [0.1, 0.1000001], "sweep.values.1"),
            ("kinetic.epsilon", [0.2, 0.3, 0.2], "sweep.values.2"),
            ("kinetic.m", [8, 8.0], "sweep.values.1"),
        ],
    )
    def test_sweep_children_may_not_share_a_directory(self, tmp_path, axis, values, where):
        doc = {"pipeline": "wt-kinetic", "seed": 1, "kinetic": {"m": 8}}
        doc["sweep"] = {"axis": axis, "values": values}
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.field == where
        assert "child directory" in err.value.message
        cfgp = tmp_path / "sweep.json"
        cfgp.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfgp), "--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()


_ALL_BLOCKS = {
    "pipeline": "wt-compare",
    "seed": 1,
    "wave": {},
    "kinetic": {},
    "compare": {},
    "chain": {},
    "vlasov": {},
}
_DROP = object()

# (dotted key, the value put there or _DROP to delete it, expected error path);
# a tuple of keys takes a tuple of values
INVALID = [
    ("pipeline", "wt-magic", "pipeline"),
    ("seed", -1, "seed"),
    ("seed", 1.5, "seed"),
    ("seed", _DROP, "<root>"),
    ("workers", 2, "<root>"),
    ("out", "", "out"),
    ("out", 7, "out"),
    ("wave", [], "wave"),
    ("wave.scheme", "leapfrog", "wave.scheme"),
    ("wave.d", 3, "wave.d"),
    ("wave.half_width", 0, "wave.half_width"),
    ("wave.dt", 0, "wave.dt"),
    ("wave.lam", -0.1, "wave.lam"),
    ("wave.replicas", True, "wave.replicas"),
    ("wave.n_steps", "10", "wave.n_steps"),
    ("wave.profile", {"name": "torus-gaussian", "amplitude": 1, "widht": 0.5}, "wave.profile"),
    ("wave.profile", {"amplitude": 1}, "wave.profile"),
    ("wave.profile", {"name": "sawtooth"}, "wave.profile.name"),
    ("wave.profile", {"name": "torus-gaussian", "amplitude": 1, "width": 0}, "wave.profile.width"),
    ("wave.profile", {"name": "constant", "level": -1}, "wave.profile.level"),
    ("wave.profile", {"name": "constant", "level": "high"}, "wave.profile.level"),
    ("kinetic.shape", "cauchy", "kinetic.shape"),
    ("kinetic.scheme", "rk45", "kinetic.scheme"),
    ("kinetic.d", 3, "kinetic.d"),
    ("kinetic.m", 3, "kinetic.m"),
    ("kinetic.epsilon", 0, "kinetic.epsilon"),
    ("kinetic.omega_floor", 0.0, "kinetic.omega_floor"),
    ("kinetic.omega_floor", None, "kinetic.omega_floor"),
    ("kinetic.initial", {"name": "rayleigh-jeans", "temperature": 1, "cap": 2}, "kinetic.initial"),
    ("kinetic.initial", {"name": "rayleigh-jeans", "temperature": 1, "floor": 0}, "kinetic.initial.floor"),
    ("compare.t_final", None, "compare.t_final"),
    ("compare.tau_final", "long", "compare.tau_final"),
    ("compare.tau_final", None, "compare.tau_final"),
    ("compare.t_final", 0, "compare.t_final"),
    ("compare.tau_final", -1, "compare.tau_final"),
    ("compare.horizon", 1, "compare"),
    ("chain.force_method", "fft", "chain.force_method"),
    ("chain.alpha", 1.0, "chain.alpha"),
    ("chain.alpha", 0, "chain.alpha"),
    ("chain.n", 1, "chain.n"),
    ("chain.law", {"kind": "gaussian", "sigma": 1}, "chain.law"),
    ("chain.law", {"kind": "delta-comb"}, "chain.law.kind"),
    ("chain.law", {"sigma_r": 0.1}, "chain.law"),
    ("chain.law", {"kind": "gaussian", "sigma_r": -1}, "chain.law.sigma_r"),
    ("chain.law", {"kind": "cosine-gaussian", "mode": 0}, "chain.law.mode"),
    ("chain.law", {"kind": "cosine-gaussian", "mode": 1.5}, "chain.law.mode"),
    ("chain.law", {"kind": "point", "r0": "left"}, "chain.law.r0"),
    ("vlasov.interp", "cubic", "vlasov.interp"),
    ("vlasov.mr", 1, "vlasov.mr"),
    ("vlasov.r_max", 0, "vlasov.r_max"),
    ("vlasov.alpha", 1.5, "vlasov.alpha"),
    ("vlasov.cfl_fraction", 0, "vlasov"),
    ("vlasov.law", {"kind": "uniform"}, "vlasov.law.kind"),
    ("vlasov.law", {"kind": "point", "v0": 1, "r1": 0}, "vlasov.law"),
    ("sweep", {"axis": "wave.lam", "values": []}, "sweep.values"),
    ("sweep", {"axis": "wave.lam", "values": [0.1, "a"]}, "sweep.values.1"),
    ("sweep", {"values": [0.1]}, "sweep"),
    ("sweep", {"axis": "wave.lam", "values": [0.1], "repeat": 2}, "sweep"),
    ("vlasov.interp", "cubic-clamped", "vlasov.interp"),
    # the base doc is a wt-compare, whose kinetic side starts from wave.profile
    ("kinetic.initial", {"name": "constant", "level": 1}, "kinetic.initial"),
    # mf-compare: its transport side runs at d = 1, and every x cell needs a site
    (("pipeline", "chain.d"), ("mf-compare", 2), "chain.d"),
    (("pipeline", "chain.n"), ("mf-compare", 8), "vlasov.mx"),
    # a law the transport equation starts from must give a density
    (("pipeline", "vlasov.law"), ("vlasov", {"kind": "point"}), "vlasov.law.kind"),
    (("pipeline", "vlasov.law"), ("vlasov", {"kind": "cosine-gaussian"}), "vlasov.law.sigma_r"),
    (("pipeline", "vlasov.law"), ("vlasov", {"kind": "gaussian", "sigma_v": 0}), "vlasov.law.sigma_v"),
    (("pipeline", "chain.law"), ("mf-compare", {"kind": "gaussian", "sigma_v": 0}), "chain.law.sigma_v"),
    # mf-compare's transport side starts from chain.law's twin, not its own law
    (("pipeline", "vlasov.law"), ("mf-compare", {"kind": "gaussian"}), "vlasov.law"),
    # one site either side leaves a 3-node torus, below the spectrum grid's 4
    ("wave.half_width", 1, "wave.half_width"),
    # wt-compare holds both spectra on one dimension; at d = 2 on one grid
    ("wave.d", 2, "kinetic.d"),
    (("wave.d", "kinetic.d"), (2, 2), "kinetic.m"),
]


def invalid_doc(key, value):
    """The base doc with ``value`` put at ``key``, or each of a tuple of
    values at each of a tuple of keys."""
    doc = json.loads(json.dumps(_ALL_BLOCKS))
    pairs = zip(key, value) if isinstance(key, tuple) else [(key, value)]
    for k, val in pairs:
        *parents, leaf = k.split(".")
        node = doc
        for p in parents:
            node = node[p]
        if val is _DROP:
            del node[leaf]
        else:
            node[leaf] = val
    return doc


class TestInvalid:
    def test_base_doc_is_valid(self):
        parse_config(_ALL_BLOCKS)

    @pytest.mark.parametrize("key, value, where", INVALID)
    def test_rejected_with_field_path(self, key, value, where):
        with pytest.raises(ConfigError) as err:
            parse_config(invalid_doc(key, value))
        assert err.value.field == where

    @pytest.mark.parametrize(
        "text, where",
        [
            ('"wave": {"dt": NaN}', "wave.dt"),
            ('"wave": {"lam": Infinity}', "wave.lam"),
            ('"wave": {"profile": {"name": "constant", "level": -Infinity}}', "wave.profile.level"),
            ('"wave": {}, "chain": {"law": {"kind": "gaussian", "mean_v": NaN}}', "chain.law.mean_v"),
            ('"wave": {}, "sweep": {"axis": "wave.lam", "values": [0.1, NaN]}', "sweep.values.1"),
        ],
    )
    def test_non_finite_numbers_are_rejected(self, tmp_path, text, where):
        p = tmp_path / "run.json"
        p.write_text('{"pipeline": "wt-sim", "seed": 1, ' + text + "}")
        with pytest.raises(ConfigError) as err:
            load_config(p)
        assert err.value.field == where

    def test_cli_import_needs_nothing_beyond_numpy_and_the_standard_library(self):
        # validation walks the config dataclasses, so no schema library is imported
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        code = (
            "import sys; before = set(sys.modules); import kinlat.cli; "
            "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(new - set(sys.stdlib_module_names) - {'numpy', 'kinlat'}))"
        )
        res = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"


class TestLoadAndHash:
    def test_load_config_roundtrip(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps(_wave_doc()))
        cfg = load_config(p)
        assert cfg.wave.half_width == 4

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(tmp_path / "absent.json")
        assert err.value.field == "<path>"

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(p)
        p.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError) as err:
            load_config(p)
        assert err.value.field == "<root>"

    def test_hash_ignores_key_order_but_not_values(self):
        a = parse_config(_wave_doc())
        shuffled = {k: _wave_doc()[k] for k in ("wave", "seed", "pipeline")}
        b = parse_config(shuffled)
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 64

        changed = _wave_doc()
        changed["seed"] = 8
        assert config_hash(parse_config(changed)) != config_hash(a)

    @pytest.mark.parametrize("pipeline", sorted(_REQUIRED_BLOCKS))
    def test_resolved_config_parses_back(self, pipeline):
        # a manifest's config_resolved is a config: a minimal doc's resolved
        # tree, through JSON, parses and resolves to itself
        doc = {"pipeline": pipeline, "seed": 0} | {b: {} for b in _REQUIRED_BLOCKS[pipeline]}
        tree = json.loads(json.dumps(resolved(parse_config(doc))))
        assert resolved(parse_config(tree)) == tree
        assert set(tree) == {"pipeline", "seed", "out", *_REQUIRED_BLOCKS[pipeline]}


class TestBuilders:
    def test_gaussian_law(self):
        law = build_law(LawConfig("gaussian", {"mean_r": 0.3, "sigma_v": 0.1}))
        assert isinstance(law, GaussianLaw)
        assert law.mean_r == 0.3 and law.sigma_v == 0.1

    def test_sigma_override_widens_degenerate_law(self):
        doc = _mf_doc()
        doc["chain"]["law"] = {"kind": "gaussian", "sigma_r": 0.0, "sigma_v": 0.05}
        grid = PhaseGrid(8, 16, 16, 0.5, 1.0)
        chain_law, pde_law, sigma = _paired_laws(parse_config(doc), grid)
        assert chain_law.sigma_r == 0.0
        assert pde_law.sigma_r == sigma == 2.0 * grid.dr
        assert pde_law.sigma_v == chain_law.sigma_v == 0.05

    def test_cosine_gaussian_mean_profile(self):
        law = build_law(LawConfig("cosine-gaussian", {"amplitude": 0.1, "mode": 2}))
        x = nodes(TorusGrid(1, 8))
        np.testing.assert_allclose(
            law.mean_r(x), 0.1 * np.cos(4.0 * np.pi * x[:, 0]), atol=1e-15
        )
        assert law.sigma_r == 0.0

    def test_point_law_and_unknown_kind(self):
        assert isinstance(build_law(LawConfig("point", {"v0": 2.0})), PointLaw)
        with pytest.raises(ConfigError):
            build_law(LawConfig("delta-comb", {}))

    def test_build_profile_is_callable(self):
        prof = build_profile(parse_config(_wave_doc()).wave.profile)
        vals = prof(np.linspace(-0.5, 0.5, 11))
        assert np.all(vals >= 0) and vals.max() > 0


# (block path, factory table, tag, doc holding the block at that path)
_TAGGED_HOMES = {
    "wave.profile": (FACTORIES, "name", lambda b: {"pipeline": "wt-sim", "seed": 1, "wave": {"profile": b}}),
    "chain.law": (LAWS, "kind", lambda b: {"pipeline": "chain-sim", "seed": 1, "chain": {"law": b}}),
}
_TAGGED_KINDS = [(path, kind) for path, (table, _, _) in _TAGGED_HOMES.items() for kind in table]


def _probe(built):
    """What a profile or a law produces, for comparing two of them."""
    if callable(built):
        return built(nodes(TorusGrid(2, 6)))
    return built.sample_sites(normals(0, [0], (built.draws, 8))[0], nodes(TorusGrid(1, 8)))


class TestDeclarations:
    """Each profile name and law kind is declared by its factory's signature."""

    @pytest.mark.parametrize("path, kind", _TAGGED_KINDS)
    def test_factory_signature_is_the_block_format(self, path, kind):
        table, tag, doc = _TAGGED_HOMES[path]
        block, _, leaf = path.partition(".")
        sig = inspect.signature(table[kind]).parameters
        # a required parameter takes 0.5, which every factory accepts
        required = {k: 0.5 for k, p in sig.items() if p.default is p.empty}
        cfg = getattr(getattr(parse_config(doc({tag: kind, **required})), block), leaf)
        assert cfg.params == required
        built = (build_profile if tag == "name" else build_law)(cfg)
        np.testing.assert_array_equal(_probe(built), _probe(table[kind](**required)))
        others = {k for f in table.values() for k in inspect.signature(f).parameters}
        for key in sorted(others - set(sig)) + ["bogus"]:
            with pytest.raises(ConfigError) as err:
                parse_config(doc({tag: kind, **required, key: 0.5}))
            assert err.value.field == path, key
        for key in sig:
            for bad in ("x", math.nan, True, None):
                with pytest.raises(ConfigError) as err:
                    parse_config(doc({tag: kind, **required, key: bad}))
                assert err.value.field == f"{path}.{key}", (key, bad)

    def test_integral_mode_is_held_as_an_int(self):
        doc = {"pipeline": "chain-sim", "seed": 1, "chain": {"law": {"kind": "cosine-gaussian", "mode": 2.0}}}
        mode = parse_config(doc).chain.law.params["mode"]
        assert mode == 2 and type(mode) is int


class TestWriters:
    def test_format_float_roundtrips(self):
        for x in (1 / 3, 0.1, -2.5e17, 1e-300, 7.0, 0.0):
            assert float(format_float(x)) == x

    def test_write_csv_bytes_and_cells(self, tmp_path):
        header = ["i", "ok", "val"]
        rows = [(1, True, 1 / 3), (2, False, 0.5)]
        p1 = write_csv(tmp_path / "a.csv", header, rows, comments=["demo"])
        p2 = write_csv(tmp_path / "b.csv", header, rows, comments=["demo"])
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "# demo"
        assert lines[1] == "i,ok,val"
        assert lines[2] == "1,true," + format_float(1 / 3)

    def test_write_csv_rejects_ragged_rows(self, tmp_path):
        with pytest.raises(SizeMismatchError):
            write_csv(tmp_path / "bad.csv", ["a", "b"], [(1, 2), (3,)])

    def test_write_json_sorted_and_numpy_safe(self, tmp_path):
        p = write_json(
            tmp_path / "r.json",
            {"zeta": np.float64(0.5), "alpha": np.int64(3), "arr": np.arange(3)},
        )
        text = p.read_text()
        assert text.index('"alpha"') < text.index('"arr"') < text.index('"zeta"')
        assert json.loads(text)["arr"] == [0, 1, 2]
        with pytest.raises(TypeError):
            write_json(tmp_path / "x.json", {"f": object()})

    def test_spectrum_csv_shape(self, tmp_path):
        grid = TorusGrid(1, 8)
        p = write_spectrum_csv(tmp_path / "spec.csv", np.full(grid.shape, 2.0), grid, 0.25)
        lines = p.read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == "kappa_0,f"
        assert len(data) == 1 + 8
        assert all(ln.endswith("," + format_float(2.0)) for ln in data[1:])

    @pytest.mark.parametrize("d,m", [(1, 16), (2, 6)])
    def test_spectrum_csv_bytes_are_the_per_cell_format(self, tmp_path, d, m):
        grid = TorusGrid(d, m)
        f = np.random.default_rng(d).uniform(0.0, 3.0, grid.n_nodes)
        f[:4] = [0.0, 5e-324, 1e300, 1 / 3]
        coords = nodes(grid).reshape(-1, d)
        lines = [
            "# spectrum sample on the unit torus; kappa in cycles (dimensionless)",
            f"# d={d} m={m} tau={format_float(0.1)}",
            ",".join([f"kappa_{c}" for c in range(d)] + ["f"]),
        ]
        lines += [",".join(format_float(x) for x in (*coords[i], f[i])) for i in range(f.size)]
        got = write_spectrum_csv(tmp_path / "spec.csv", f.reshape(grid.shape), grid, 0.1).read_bytes()
        assert got == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("d,D", [(1, 3), (2, 2)])
    def test_amplitude_snapshot_rows_are_the_doubled_shifted_layout(self, tmp_path, d, D):
        # a(+) in FFT order goes in; out come the rows of the doubled shifted
        # array built here by hand: ascending k for sigma = +1, then sigma = -1
        # with the exact conjugates
        spec = TorusGrid(d, 2 * D + 1)
        rng = np.random.default_rng(d)
        b = rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
        ks = [np.array(k) for k in np.ndindex(spec.shape)]  # shifted index, C order
        rows = []
        for sigma in (1, -1):
            for idx in ks:
                val = b[tuple((idx - D) % spec.m)]  # a(+)(k) sits at k mod N
                val = val if sigma == 1 else np.conj(val)
                rows.append((*(idx - D), sigma, val.real, val.imag))
        want = write_csv(
            tmp_path / "want.csv",
            [f"k_{c}" for c in range(d)] + ["sigma", "re_a", "im_a"],
            rows,
            comments=["amplitude snapshot; k integer wavenumbers, sigma the sign pair"],
        )
        csv_p, json_p = write_amplitude_snapshot(tmp_path / "snap", b, spec, {"t": 0.5})
        assert csv_p.read_bytes() == want.read_bytes()
        assert json.loads(json_p.read_text()) == {"t": 0.5}

    @pytest.mark.parametrize("shape", [(2, 5), (4,)])
    def test_amplitude_snapshot_takes_one_replica_of_the_lattice(self, tmp_path, shape):
        # a replica stack would be written as its first row's modes, and a
        # short array would fail part way through the rows
        spec = TorusGrid(1, 5)
        with pytest.raises(SizeMismatchError, match="expected"):
            write_amplitude_snapshot(tmp_path / "snap", np.zeros(shape, complex), spec, {})
        assert not any(tmp_path.iterdir())

    def test_phase_density_roundtrip(self, tmp_path):
        grid = PhaseGrid(2, 6, 5, 0.8, 1.1)
        rng = np.random.default_rng(5)
        g = rng.uniform(0.1, 1.0, grid.shape)
        write_phase_density(tmp_path / "g", g, grid, 0.75, 0.4)
        back, back_grid, back_t = read_phase_density(tmp_path / "g")
        np.testing.assert_array_equal(back, g)
        assert back_t == 0.75 and back_grid == grid
        header = json.loads((tmp_path / "g.json").read_text())
        assert header["alpha"] == 0.4

    def test_phase_density_truncated_payload(self, tmp_path):
        grid = PhaseGrid(1, 4, 4, 1.0, 1.0)
        bin_path, _ = write_phase_density(tmp_path / "g", np.ones(grid.shape), grid, 0.0, 0.5)
        bin_path.write_bytes(bin_path.read_bytes()[:-8])
        with pytest.raises(SizeMismatchError):
            read_phase_density(tmp_path / "g")

    def test_phase_density_payload_of_the_wrong_byte_count(self, tmp_path):
        grid = PhaseGrid(1, 4, 4, 1.0, 1.0)
        bin_path, _ = write_phase_density(tmp_path / "g", np.ones(grid.shape), grid, 0.0, 0.5)
        payload = bin_path.read_bytes()
        # one value too many, and a partial value, are both mismatches
        for wrong in (payload + payload[:8], payload[:-3]):
            bin_path.write_bytes(wrong)
            with pytest.raises(SizeMismatchError):
                read_phase_density(tmp_path / "g")

    def test_sha256_matches_hashlib(self, tmp_path):
        import hashlib

        p = tmp_path / "blob.bin"
        # sha256_file reads 1 MiB blocks, so the last payload spans two
        for payload in (b"", b"\x00", bytes(range(256)) * 7, bytes(range(256)) * 4097):
            p.write_bytes(payload)
            want = hashlib.sha256(payload).hexdigest()
            assert sha256_file(p) == want
            assert sha256(payload).hexdigest() == want

    def test_config_hash_is_sha256_of_the_canonical_document(self):
        import hashlib

        cfg = parse_config(_wave_doc())
        blob = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":")).encode()
        assert config_hash(cfg) == hashlib.sha256(blob).hexdigest()
