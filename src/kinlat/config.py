"""Run configuration: JSON in, validated dataclass tree out.

The dataclasses below are the one declaration of the config format, and
:func:`parse_config` builds the tree by walking them.  A JSON object maps
onto a dataclass: an unknown key is rejected, an absent key takes the
field's default, and each value is checked against the field's annotation
and the rule in its ``metadata`` (bounds ``ge``/``gt``/``le``/``lt`` on
numbers, ``choices`` on strings).  Integer fields take integral numbers and
hold ints; no field takes NaN or an infinity.  Profile and law blocks are
flat objects, checked by :func:`~kinlat.profiles.make_profile` and by
``_LAW_PARAMS``.  Rules that tie two blocks of a pipeline together, and
the rule that no two sweep children share an output directory, are checked
on the built tree, once per sweep child.  A rejection is a
:class:`ConfigError` carrying the dotted path of the offending field.

A :class:`RunConfig` keeps its raw document, and its hash identifies a run:
two configs with the same hash produce byte-identical outputs for the same
seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError
from .kinetic import DEFAULT_OMEGA_FLOOR, RESONANCE_PROFILES
from .profiles import PROFILE_NAMES, make_profile

__all__ = [
    "PIPELINES",
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
    "sweep_dir",
    "sweep_children",
    "mf_steps",
    "config_hash",
    "build_law",
    "build_profile",
]

# pipeline -> the blocks it requires
_REQUIRED_BLOCKS = {
    "wt-sim": ("wave",),
    "wt-kinetic": ("kinetic",),
    "wt-compare": ("wave", "kinetic", "compare"),
    "chain-sim": ("chain",),
    "vlasov": ("vlasov",),
    "mf-compare": ("chain", "vlasov", "compare"),
    "oracle-suite": (),
}
PIPELINES = tuple(_REQUIRED_BLOCKS)


def _field(default, **rule):
    """A field with its default and its rule: number bounds or string ``choices``."""
    return field(default=default, metadata=rule)


@dataclass(frozen=True)
class ProfileConfig:
    name: str = "torus-gaussian"
    params: dict = field(default_factory=lambda: {"amplitude": 1.0, "width": 0.5})


@dataclass(frozen=True)
class WaveConfig:
    d: int = _field(1, ge=1, le=2)
    half_width: int = _field(8, ge=1)
    lam: float = _field(0.1, ge=0)
    dt: float = _field(0.05, gt=0)
    n_steps: int = _field(100, ge=0)
    scheme: str = _field("exponential", choices=("exponential", "rk4"))
    replicas: int = _field(8, ge=1)
    profile: ProfileConfig = field(default_factory=ProfileConfig)
    save_every: int = _field(0, ge=0)


@dataclass(frozen=True)
class KineticConfig:
    d: int = _field(1, ge=1, le=2)
    m: int = _field(32, ge=4)
    epsilon: float = _field(0.3, gt=0)
    shape: str = _field("gaussian", choices=RESONANCE_PROFILES)
    omega_floor: float = _field(DEFAULT_OMEGA_FLOOR, gt=0)
    dtau: float = _field(0.02, gt=0)
    n_steps: int = _field(25, ge=0)
    scheme: str = _field("rk4", choices=("rk4", "euler"))
    initial: ProfileConfig = field(default_factory=ProfileConfig)


@dataclass(frozen=True)
class CompareConfig:
    tau_final: float = _field(0.5, gt=0)
    t_final: float = _field(1.0, gt=0)
    pde_sigma_r: float | str = _field("auto", gt=0, choices=("auto",))


@dataclass(frozen=True)
class LawConfig:
    kind: str = "gaussian"
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ChainConfig:
    d: int = _field(1, ge=1)
    n: int = _field(64, ge=2)
    alpha: float = _field(0.5, gt=0, lt=1)
    dt: float = _field(1e-3, gt=0)
    n_steps: int = _field(1000, ge=0)
    replicas: int = _field(1, ge=1)
    # no effect: the chain force has one path; kept because existing configs set it
    force_method: str = _field("direct", choices=("direct", "circulant"))
    law: LawConfig = field(default_factory=LawConfig)
    save_every: int = _field(0, ge=0)


@dataclass(frozen=True)
class VlasovConfig:
    mx: int = _field(16, ge=1)
    mr: int = _field(64, ge=2)
    mv: int = _field(64, ge=2)
    r_max: float = _field(1.0, gt=0)
    v_max: float = _field(1.0, gt=0)
    alpha: float = _field(0.5, gt=0, lt=1)
    dt: float = _field(0.01, gt=0)
    n_steps: int = _field(100, ge=0)
    # one interpolant (linear); kept because existing configs set it
    interp: str = _field("linear", choices=("linear",))
    cfl_fraction: float | None = _field(None, gt=0)
    law: LawConfig = field(default_factory=lambda: LawConfig("gaussian", {"sigma_r": 0.2, "sigma_v": 0.2}))


@dataclass(frozen=True)
class SweepConfig:
    axis: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class RunConfig:
    pipeline: str = field(metadata={"choices": PIPELINES})
    seed: int = field(metadata={"ge": 0})
    out: str = "runs/out"
    wave: WaveConfig | None = None
    kinetic: KineticConfig | None = None
    compare: CompareConfig | None = None
    chain: ChainConfig | None = None
    vlasov: VlasovConfig | None = None
    sweep: SweepConfig | None = None
    raw: dict = field(default_factory=dict, compare=False, repr=False)


# the blocks a sweep axis may name
_BLOCKS = {
    "wave": WaveConfig,
    "kinetic": KineticConfig,
    "compare": CompareConfig,
    "chain": ChainConfig,
    "vlasov": VlasovConfig,
}

_BOUNDS = {
    "ge": (operator.ge, ">="),
    "gt": (operator.gt, ">"),
    "le": (operator.le, "<="),
    "lt": (operator.lt, "<"),
}
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}
_hints = cache(get_type_hints)


def _build(cls, obj, path: str, **given):
    """Build dataclass ``cls`` from the JSON object ``obj`` found at dotted ``path``.

    Unknown keys are rejected and absent ones take the field default;
    ``given`` sets fields that are not JSON keys.
    """
    where = path or "<root>"
    if not isinstance(obj, dict):
        raise ConfigError(f"must be an object, got {obj!r}", field=where)
    spec = {f.name: f for f in fields(cls) if f.name not in given}
    unknown = sorted(set(obj) - set(spec))
    if unknown:
        raise ConfigError(f"unknown keys {unknown}", field=where)
    hints = _hints(cls)
    for name, f in spec.items():
        if name in obj:
            given[name] = _value(hints[name], f.metadata, obj[name], f"{path}.{name}".lstrip("."))
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required key {name!r}", field=where)
    return cls(**given)


def _value(tp, rule, v, path: str):
    """Check the JSON value ``v`` at ``path`` against annotation ``tp`` and ``rule``."""
    if get_origin(tp) is tuple:  # tuple[float, ...] is a non-empty JSON list
        if not isinstance(v, list) or not v:
            raise ConfigError(f"must be a non-empty list, got {v!r}", field=path)
        return tuple(_value(get_args(tp)[0], rule, x, f"{path}.{i}") for i, x in enumerate(v))
    kinds = [t for t in get_args(tp) if t is not type(None)] or [tp]
    if kinds[0] in _FLAT:
        return _FLAT[kinds[0]](v, path)
    if is_dataclass(kinds[0]):
        return _build(kinds[0], v, path)
    if isinstance(v, str) and str in kinds:
        choices = rule.get("choices")
        if not v or choices and v not in choices:
            msg = f"must be one of {choices}" if choices else "must not be empty"
            raise ConfigError(f"{msg}, got {v!r}", field=path)
        return v
    if isinstance(v, (int, float)) and not isinstance(v, bool) and {int, float} & set(kinds):
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigError(f"must be finite, got {v}", field=path)
        if float not in kinds:
            if v != int(v):
                raise ConfigError(f"must be an integer, got {v}", field=path)
            v = int(v)
        for op, bound in rule.items():
            if op in _BOUNDS and not _BOUNDS[op][0](v, bound):
                raise ConfigError(f"must be {_BOUNDS[op][1]} {bound}, got {v}", field=path)
        return v
    expected = " or ".join(_KIND_NAMES[k] for k in kinds)
    raise ConfigError(f"must be {expected}, got {v!r}", field=path)


def _profile_cfg(obj, path: str) -> ProfileConfig:
    """A flat ``{"name": ..., <param>: number}`` object, checked by ``make_profile``."""
    if not isinstance(obj, dict) or "name" not in obj:
        raise ConfigError(f"must be an object with a name, got {obj!r}", field=path)
    name = _value(str, {"choices": PROFILE_NAMES}, obj["name"], f"{path}.name")
    params = {k: _value(float, {}, v, f"{path}.{k}") for k, v in obj.items() if k != "name"}
    try:
        make_profile(name, **params)
    except ConfigError as e:
        sub = "" if e.field == "profile" else f".{e.field}"
        raise ConfigError(e.message, field=path + sub) from None
    return ProfileConfig(name, params)


def _law_cfg(obj, path: str) -> LawConfig:
    """A flat ``{"kind": ..., <param>: number}`` object, checked by ``_LAW_PARAMS``."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    table = _LAW_PARAMS.get(kind) if isinstance(kind, str) else None
    if table is None:
        raise ConfigError(f"needs a kind out of {tuple(_LAW_PARAMS)}, got {obj!r}", field=path)
    params = {}
    for k, v in obj.items():
        if k == "kind":
            continue
        if k not in table:
            raise ConfigError(f"law {kind!r} does not take {k!r}", field=path)
        try:
            params[k] = _value(*table[k], v, path)
        except ConfigError as e:
            raise ConfigError(f"{k} {e.message}", field=path) from None
    return LawConfig(kind, params)


# dataclasses whose JSON form is one flat object rather than one key per field
_FLAT = {ProfileConfig: _profile_cfg, LawConfig: _law_cfg}


def _axis_field(axis: str):
    """Annotation and rule of the numeric block field that sweep ``axis`` names."""
    block, _, name = axis.partition(".")
    cls = _BLOCKS.get(block)
    tp = _hints(cls).get(name) if cls else None
    if tp is None or not {int, float} & {tp, *get_args(tp)}:
        raise ConfigError(
            f"sweep axis {axis!r} is not a numeric field of a config block", field="sweep.axis"
        )
    return tp, next(f.metadata for f in fields(cls) if f.name == name)


def parse_config(doc: dict) -> RunConfig:
    """Validate a raw JSON document and build the typed tree.

    A violation surfaces as :class:`ConfigError` carrying the dotted path of
    the offending field.  Sweep values are checked by the rule of their
    axis field here, before any child runs, and so are the rules that tie
    blocks together, once per sweep child.
    """
    cfg = _build(RunConfig, doc, "", raw=doc)
    for block in _REQUIRED_BLOCKS[cfg.pipeline]:
        if getattr(cfg, block) is None:
            raise ConfigError(f"pipeline {cfg.pipeline!r} needs a {block!r} block", field=block)
    if cfg.sweep is None:
        _check_blocks(cfg)
        return cfg
    dirs = {}
    for i, (_, child_dir, child) in enumerate(sweep_children(cfg)):
        path = f"sweep.values.{i}"
        if child_dir in dirs:
            raise ConfigError(
                f"child directory {child_dir!r} is also that of sweep.values.{dirs[child_dir]}",
                field=path,
            )
        dirs[child_dir] = i
        try:
            _check_blocks(child)
        except ConfigError as e:
            raise ConfigError(f"{e.field}: {e.message}", field=path) from None
    return cfg


def sweep_children(cfg: RunConfig):
    """Yield ``(value, directory, config)`` of each child of ``cfg``'s sweep.

    A child is the base config with the axis field set to the value, held as
    the field holds it (an int, or a float even when the JSON value is
    integral), and without the sweep block; its raw document is the base
    document changed the same way, so its hash names the child run.
    """
    axis = cfg.sweep.axis
    tp, rule = _axis_field(axis)
    block, _, name = axis.partition(".")
    if getattr(cfg, block) is None:
        raise ConfigError(f"sweep axis {axis!r} points at a missing block", field="sweep.axis")
    base = {k: v for k, v in cfg.raw.items() if k != "sweep"}
    for i, v in enumerate(cfg.sweep.values):
        typed = _value(tp, rule, v, f"sweep.values.{i}")
        typed = typed if tp is int else float(typed)
        raw = base | {block: base[block] | {name: typed}}
        child_block = replace(getattr(cfg, block), **{name: typed})
        yield v, sweep_dir(axis, v), replace(cfg, sweep=None, raw=raw, **{block: child_block})


def mf_steps(chain: ChainConfig, vlasov: VlasovConfig, t_final: float) -> tuple[int, int]:
    """Chain and Vlasov step counts of an ``mf-compare`` run to ``t_final``."""
    return max(1, round(t_final / chain.dt)), max(1, round(t_final / vlasov.dt))


def _check_blocks(cfg: RunConfig) -> None:
    """The rules of a pipeline that tie two of its blocks together."""
    if cfg.pipeline == "wt-compare":
        if cfg.wave.lam <= 0.0:
            raise ConfigError("the kinetic comparison needs lam > 0", field="wave.lam")
        if "initial" in cfg.raw["kinetic"]:
            raise ConfigError(
                "the kinetic comparison starts from wave.profile, not its own profile",
                field="kinetic.initial",
            )
    if cfg.pipeline != "mf-compare":
        return
    from .chain import GaussianLaw

    c, v, t_final = cfg.chain, cfg.vlasov, cfg.compare.t_final
    if not isinstance(build_law(c.law), GaussianLaw):
        raise ConfigError(
            "mean-field comparison needs a law with a density (gaussian kinds)",
            field="chain.law.kind",
        )
    if c.alpha != v.alpha:
        raise ConfigError("chain and transport blocks must share alpha", field="vlasov.alpha")
    n_chain, n_pde = mf_steps(c, v, t_final)
    if abs(n_chain * c.dt - n_pde * v.dt) > 1e-9:
        raise ConfigError(
            "chain.dt and vlasov.dt must both divide compare.t_final",
            field="compare.t_final",
        )


def sweep_dir(axis: str, value: float) -> str:
    """Name of the output directory of the sweep child at ``value`` on ``axis``."""
    return f"{axis.replace('.', '-')}={value:g}"


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


_REAL = (float, {})
_WIDTH = (float, {"ge": 0})

# law kind -> its parameters, each an (annotation, rule) pair
_LAW_PARAMS = {
    "gaussian": {"mean_r": _REAL, "mean_v": _REAL, "sigma_r": _WIDTH, "sigma_v": _WIDTH},
    "cosine-gaussian": {
        "amplitude": _REAL,
        "mode": (int, {"ge": 1}),
        "sigma_r": _WIDTH,
        "sigma_v": _WIDTH,
    },
    "point": {"r0": _REAL, "v0": _REAL},
}


def build_law(lc: LawConfig, sigma_r_override: float | None = None):
    """Materialize a sampling law; ``sigma_r_override`` widens degenerate laws."""
    from .chain import GaussianLaw, PointLaw

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
