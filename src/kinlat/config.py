"""Run configuration: JSON in, validated dataclass tree out.

Configurations are plain JSON documents checked against ``RUN_SCHEMA``
(unknown keys are rejected at every level, ranges are enforced in the
schema where JSON can express them and in the constructors where it
cannot).  A :class:`RunConfig` is canonically serializable, so its hash
identifies a run: two configs with the same hash produce byte-identical
outputs for the same seed.

Pipelines and the blocks they require:

==============  ==========================================
``wt-sim``      ``wave``
``wt-kinetic``  ``kinetic``
``wt-compare``  ``wave``, ``kinetic``, ``compare``
``chain-sim``   ``chain``
``vlasov``      ``vlasov``
``mf-compare``  ``chain``, ``vlasov``, ``compare``
``oracle-suite``  (none)
==============  ==========================================
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

from .chain import GaussianLaw, PointLaw
from .errors import ConfigError
from .profiles import PROFILE_NAMES, make_profile

__all__ = [
    "PIPELINES",
    "RUN_SCHEMA",
    "RunConfig",
    "WaveConfig",
    "KineticConfig",
    "CompareConfig",
    "ChainConfig",
    "VlasovConfig",
    "SweepConfig",
    "LawConfig",
    "ProfileConfig",
    "read_doc",
    "load_config",
    "parse_config",
    "config_hash",
    "build_law",
    "build_profile",
]

PIPELINES = (
    "wt-sim",
    "wt-kinetic",
    "wt-compare",
    "chain-sim",
    "vlasov",
    "mf-compare",
    "oracle-suite",
)

_REQUIRED_BLOCKS = {
    "wt-sim": ("wave",),
    "wt-kinetic": ("kinetic",),
    "wt-compare": ("wave", "kinetic", "compare"),
    "chain-sim": ("chain",),
    "vlasov": ("vlasov",),
    "mf-compare": ("chain", "vlasov", "compare"),
    "oracle-suite": (),
}

_PROFILE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name"],
    "properties": {
        "name": {"enum": list(PROFILE_NAMES)},
        "level": {"type": "number", "minimum": 0},
        "amplitude": {"type": "number", "minimum": 0},
        "width": {"type": "number", "exclusiveMinimum": 0},
        "center": {"type": "number"},
        "temperature": {"type": "number", "minimum": 0},
        "floor": {"type": "number", "exclusiveMinimum": 0},
    },
}

_LAW_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"const": "gaussian"},
                "mean_r": {"type": "number"},
                "mean_v": {"type": "number"},
                "sigma_r": {"type": "number", "minimum": 0},
                "sigma_v": {"type": "number", "minimum": 0},
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"const": "cosine-gaussian"},
                "amplitude": {"type": "number"},
                "mode": {"type": "integer", "minimum": 1},
                "sigma_r": {"type": "number", "minimum": 0},
                "sigma_v": {"type": "number", "minimum": 0},
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"const": "point"},
                "r0": {"type": "number"},
                "v0": {"type": "number"},
            },
        },
    ]
}

RUN_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["pipeline", "seed"],
    "properties": {
        "pipeline": {"enum": list(PIPELINES)},
        "seed": {"type": "integer", "minimum": 0},
        "out": {"type": "string", "minLength": 1},
        "wave": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "d": {"type": "integer", "minimum": 1, "maximum": 2},
                "half_width": {"type": "integer", "minimum": 1},
                "lam": {"type": "number", "minimum": 0},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "n_steps": {"type": "integer", "minimum": 0},
                "scheme": {"enum": ["exponential", "rk4"]},
                "replicas": {"type": "integer", "minimum": 1},
                "profile": _PROFILE_SCHEMA,
                "save_every": {"type": "integer", "minimum": 0},
            },
        },
        "kinetic": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "d": {"type": "integer", "minimum": 1, "maximum": 2},
                "m": {"type": "integer", "minimum": 4},
                "epsilon": {"type": "number", "exclusiveMinimum": 0},
                "shape": {"enum": ["gaussian", "lorentzian"]},
                "omega_floor": {"type": "number", "exclusiveMinimum": 0},
                "dtau": {"type": "number", "exclusiveMinimum": 0},
                "n_steps": {"type": "integer", "minimum": 0},
                "scheme": {"enum": ["rk4", "euler"]},
                "initial": _PROFILE_SCHEMA,
            },
        },
        "compare": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tau_final": {"type": "number", "exclusiveMinimum": 0},
                "t_final": {"type": "number", "exclusiveMinimum": 0},
                "pde_sigma_r": {
                    "oneOf": [
                        {"type": "number", "exclusiveMinimum": 0},
                        {"const": "auto"},
                    ]
                },
            },
        },
        "chain": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "d": {"type": "integer", "minimum": 1},
                "n": {"type": "integer", "minimum": 2},
                "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "n_steps": {"type": "integer", "minimum": 0},
                "replicas": {"type": "integer", "minimum": 1},
                "force_method": {"enum": ["direct", "circulant"]},
                "law": _LAW_SCHEMA,
                "save_every": {"type": "integer", "minimum": 0},
            },
        },
        "vlasov": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mx": {"type": "integer", "minimum": 1},
                "mr": {"type": "integer", "minimum": 2},
                "mv": {"type": "integer", "minimum": 2},
                "r_max": {"type": "number", "exclusiveMinimum": 0},
                "v_max": {"type": "number", "exclusiveMinimum": 0},
                "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "n_steps": {"type": "integer", "minimum": 0},
                "interp": {"enum": ["linear", "cubic-clamped"]},
                "cfl_fraction": {"type": "number", "exclusiveMinimum": 0},
                "law": _LAW_SCHEMA,
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["axis", "values"],
            "properties": {
                "axis": {"type": "string", "pattern": r"^[a-z_]+(\.[a-z_]+)+$"},
                "values": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "number"},
                },
            },
        },
    },
}


@dataclass(frozen=True)
class ProfileConfig:
    name: str = "torus-gaussian"
    params: dict = field(default_factory=lambda: {"amplitude": 1.0, "width": 0.5})


@dataclass(frozen=True)
class WaveConfig:
    d: int = 1
    half_width: int = 8
    lam: float = 0.1
    dt: float = 0.05
    n_steps: int = 100
    scheme: str = "exponential"
    replicas: int = 8
    profile: ProfileConfig = field(default_factory=ProfileConfig)
    save_every: int = 0


@dataclass(frozen=True)
class KineticConfig:
    d: int = 1
    m: int = 32
    epsilon: float = 0.3
    shape: str = "gaussian"
    omega_floor: float | None = None
    dtau: float = 0.02
    n_steps: int = 25
    scheme: str = "rk4"
    initial: ProfileConfig = field(default_factory=ProfileConfig)


@dataclass(frozen=True)
class CompareConfig:
    tau_final: float = 0.5
    t_final: float = 1.0
    pde_sigma_r: float | str = "auto"


@dataclass(frozen=True)
class LawConfig:
    kind: str = "gaussian"
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ChainConfig:
    d: int = 1
    n: int = 64
    alpha: float = 0.5
    dt: float = 1e-3
    n_steps: int = 1000
    replicas: int = 1
    force_method: str = "direct"
    law: LawConfig = field(default_factory=LawConfig)
    save_every: int = 0


@dataclass(frozen=True)
class VlasovConfig:
    mx: int = 16
    mr: int = 64
    mv: int = 64
    r_max: float = 1.0
    v_max: float = 1.0
    alpha: float = 0.5
    dt: float = 0.01
    n_steps: int = 100
    interp: str = "linear"
    cfl_fraction: float | None = None
    law: LawConfig = field(default_factory=lambda: LawConfig("gaussian", {"sigma_r": 0.2, "sigma_v": 0.2}))


@dataclass(frozen=True)
class SweepConfig:
    axis: str
    values: tuple


@dataclass(frozen=True)
class RunConfig:
    pipeline: str
    seed: int
    out: str = "runs/out"
    wave: WaveConfig | None = None
    kinetic: KineticConfig | None = None
    compare: CompareConfig | None = None
    chain: ChainConfig | None = None
    vlasov: VlasovConfig | None = None
    sweep: SweepConfig | None = None
    raw: dict = field(default_factory=dict, compare=False, repr=False)


def _profile_cfg(obj: dict | None, default: ProfileConfig) -> ProfileConfig:
    if obj is None:
        return default
    params = {k: v for k, v in obj.items() if k != "name"}
    return ProfileConfig(obj["name"], params)


def _law_cfg(obj: dict | None) -> LawConfig:
    if obj is None:
        return LawConfig()
    params = {k: v for k, v in obj.items() if k != "kind"}
    return LawConfig(obj["kind"], params)


def parse_config(doc: dict) -> RunConfig:
    """Validate a raw JSON document and build the typed tree.

    Schema violations surface as :class:`ConfigError` carrying the JSON
    path of the offending field.
    """
    try:
        jsonschema.validate(doc, RUN_SCHEMA)
    except jsonschema.ValidationError as e:
        path = ".".join(str(p) for p in e.absolute_path) or "<root>"
        raise ConfigError(e.message, field=path) from e
    pipeline = doc["pipeline"]
    for block in _REQUIRED_BLOCKS[pipeline]:
        if block not in doc:
            raise ConfigError(
                f"pipeline {pipeline!r} needs a {block!r} block", field=block
            )

    wave = None
    if "wave" in doc:
        wave = WaveConfig(
            **{**doc["wave"], "profile": _profile_cfg(doc["wave"].get("profile"), ProfileConfig())}
        )
    kinetic = None
    if "kinetic" in doc:
        kinetic = KineticConfig(
            **{**doc["kinetic"], "initial": _profile_cfg(doc["kinetic"].get("initial"), ProfileConfig())}
        )
    chain = None
    if "chain" in doc:
        chain = ChainConfig(**{**doc["chain"], "law": _law_cfg(doc["chain"].get("law"))})
    vlasov = None
    if "vlasov" in doc:
        vlasov = VlasovConfig(**{**doc["vlasov"], "law": _law_cfg(doc["vlasov"].get("law"))})
    compare = CompareConfig(**doc["compare"]) if "compare" in doc else None
    sweep = None
    if "sweep" in doc:
        sweep = SweepConfig(doc["sweep"]["axis"], tuple(doc["sweep"]["values"]))
        head = sweep.axis.split(".", 1)[0]
        if head not in doc:
            raise ConfigError(
                f"sweep axis {sweep.axis!r} points at a missing block", field="sweep.axis"
            )
    return RunConfig(
        pipeline=pipeline,
        seed=doc["seed"],
        out=doc.get("out", "runs/out"),
        wave=wave,
        kinetic=kinetic,
        compare=compare,
        chain=chain,
        vlasov=vlasov,
        sweep=sweep,
        raw=doc,
    )


def read_doc(path: str | Path) -> dict:
    """Read a config file into its raw JSON object, unvalidated."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}", field="<path>")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}", field="<root>")
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object", field="<root>")
    return doc


def load_config(path: str | Path) -> RunConfig:
    return parse_config(read_doc(path))


def config_hash(cfg: RunConfig) -> str:
    """Stable content hash of the raw document (canonical JSON, sorted keys)."""
    blob = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def build_profile(pc: ProfileConfig):
    return make_profile(pc.name, **pc.params)


def build_law(lc: LawConfig, sigma_r_override: float | None = None):
    """Materialize a sampling law; ``sigma_r_override`` widens degenerate laws."""
    p = dict(lc.params)
    if lc.kind == "gaussian":
        if sigma_r_override is not None:
            p["sigma_r"] = sigma_r_override
        return GaussianLaw(
            p.get("mean_r", 0.0), p.get("mean_v", 0.0), p.get("sigma_r", 1.0), p.get("sigma_v", 1.0)
        )
    if lc.kind == "cosine-gaussian":
        amp = p.get("amplitude", 0.2)
        mode = int(p.get("mode", 1))
        sr = p.get("sigma_r", 0.0) if sigma_r_override is None else sigma_r_override
        sv = p.get("sigma_v", 0.1)

        def mean_r(x):
            return amp * np.cos(2.0 * np.pi * mode * x[..., 0])

        return GaussianLaw(mean_r, 0.0, sr, sv)
    if lc.kind == "point":
        return PointLaw(p.get("r0", 0.0), p.get("v0", 0.0))
    raise ConfigError(f"unknown law kind {lc.kind!r}", field="law.kind")
