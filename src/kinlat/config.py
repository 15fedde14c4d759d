"""Run configuration: JSON in, validated dataclass tree out.

The dataclasses below are the one declaration of the config format, and
:func:`parse_config` builds the tree by walking them.  A JSON object maps
onto a dataclass: an unknown key is rejected, an absent key takes the
field's default, and each value is checked against the field's annotation
and the rule in its ``metadata`` (bounds ``ge``/``gt``/``le``/``lt`` on
numbers, ``choices`` on strings).  Integer fields take integral numbers and
hold ints; no field takes NaN or an infinity.  Profile and law blocks are
tagged: a flat object whose ``name`` or ``kind`` picks a factory out of
:data:`~kinlat.profiles.FACTORIES` or :data:`~kinlat.chain.LAWS`, and whose
other keys are that factory's keyword parameters, read from its signature
and checked by the factory itself.  Rules that tie two blocks of a pipeline together, and
the rule that no two sweep children share an output directory, are checked
on the built tree, once per sweep child.  A rejection is a
:class:`ConfigError` carrying the dotted path of the offending field.

A :class:`RunConfig` keeps its raw document, and its hash identifies a run:
two configs with the same hash produce byte-identical outputs for the same
seed.
"""

from __future__ import annotations

import inspect
import json
import math
import operator
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError
from .io import sha256
from .lattice import DEFAULT_OMEGA_FLOOR, RESONANCE_PROFILES
from .profiles import FACTORIES

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
    "resolved",
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
# pipeline -> its (block, field, reason) triples: each a field the pipeline
# derives from another one, so a config must not give it and the resolved
# config omits it
_BORROWED = {
    "wt-compare": (
        (
            "kinetic",
            "initial",
            "the kinetic comparison starts from wave.profile, not its own profile",
        ),
        ("wave", "n_steps", "the wave side runs to compare.tau_final / wave.lam**2"),
        ("wave", "save_every", "the wave side of the comparison saves only at its end"),
        ("kinetic", "n_steps", "the kinetic side runs to compare.tau_final"),
    ),
    "mf-compare": (
        (
            "vlasov",
            "law",
            "the mean-field comparison starts the transport side from chain.law, not its own law",
        ),
        ("chain", "n_steps", "the chain side runs to compare.t_final"),
        ("chain", "save_every", "the chain side of the comparison saves only at its end"),
        ("vlasov", "n_steps", "the transport side runs to compare.t_final"),
    ),
}


def _field(default, **rule):
    """A field with its default and its rule: number bounds or string ``choices``."""
    return field(default=default, metadata=rule)


@dataclass(frozen=True)
class ProfileConfig:
    name: str = "torus-gaussian"
    params: dict = field(default_factory=lambda: {"amplitude": 1.0, "width": 0.5})

    @staticmethod
    def factories() -> dict:
        return FACTORIES


@dataclass(frozen=True)
class WaveConfig:
    d: int = _field(1, ge=1, le=2)
    half_width: int = _field(8, ge=2)
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


@dataclass(frozen=True)
class LawConfig:
    kind: str = "gaussian"
    params: dict = field(default_factory=dict)

    @staticmethod
    def factories() -> dict:
        from .chain import LAWS  # imported here, so a wt-* run never loads the chain lane

        return LAWS


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
# a profile or law factory -> its keyword parameters, annotations evaluated
_params = cache(lambda factory: inspect.signature(factory, eval_str=True).parameters)


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
    if hasattr(kinds[0], "factories"):
        return _tagged(kinds[0], v, path)
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


def _tagged(cls, obj, path: str):
    """Build the tagged block ``cls`` from the flat JSON object ``obj`` at ``path``.

    The tag (the first field, ``name`` or ``kind``) picks a factory out of
    ``cls.factories()``; every other key is one of its keyword parameters, a
    finite number (an int where it is annotated ``int``).  The factory is
    called once, and an error it raises is reported at ``<path>.<param>``.
    """
    tag = fields(cls)[0].name
    if not isinstance(obj, dict) or tag not in obj:
        raise ConfigError(f"must be an object with a {tag}, got {obj!r}", field=path)
    table = cls.factories()
    kind = _value(str, {"choices": tuple(table)}, obj[tag], f"{path}.{tag}")
    sig = _params(table[kind])
    unknown = sorted(set(obj) - {tag} - set(sig))
    missing = [k for k, p in sig.items() if p.default is p.empty and k not in obj]
    if unknown or missing:
        raise ConfigError(f"takes {list(sig)}: unknown {unknown}, missing {missing}", field=path)
    params = {
        k: _value(int if sig[k].annotation is int else float, {}, v, f"{path}.{k}")
        for k, v in obj.items()
        if k != tag
    }
    try:
        table[kind](**params)
    except ConfigError as e:
        raise ConfigError(e.message, field=f"{path}.{e.field}") from None
    return cls(kind, params)


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
        w, k = cfg.wave, cfg.kinetic
        if w.lam <= 0.0:
            raise ConfigError("the kinetic comparison needs lam > 0", field="wave.lam")
        if k.d != w.d:
            raise ConfigError(f"kinetic.d {k.d} is not wave.d {w.d}", field="kinetic.d")
        n = 2 * w.half_width + 1  # only d = 1 spectra are interpolated between grids
        if k.d > 1 and k.m != n:
            msg = f"kinetic.m {k.m} must be the {n} wave sites per axis at d > 1"
            raise ConfigError(msg, field="kinetic.m")
    for block, name, reason in _BORROWED.get(cfg.pipeline, ()):
        if name in cfg.raw[block]:
            raise ConfigError(reason, field=f"{block}.{name}")
    if cfg.pipeline == "vlasov":
        _check_density(cfg.vlasov.law, "vlasov.law", "the transport solve", ("sigma_r", "sigma_v"))
    if cfg.pipeline != "mf-compare":
        return
    c, v, t_final = cfg.chain, cfg.vlasov, cfg.compare.t_final
    if c.d != 1:
        raise ConfigError("the transport equation runs at d = 1 only", field="chain.d")
    if c.n < v.mx:
        raise ConfigError(f"x cells without chain sites: mx {v.mx} > n {c.n}", field="vlasov.mx")
    # the PDE twin's r-width is widened to the grid (harness._paired_laws)
    _check_density(c.law, "chain.law", "mean-field comparison", ("sigma_v",))
    if c.alpha != v.alpha:
        raise ConfigError("chain and transport blocks must share alpha", field="vlasov.alpha")
    n_chain, n_pde = mf_steps(c, v, t_final)
    if max(abs(n_chain * c.dt - t_final), abs(n_pde * v.dt - t_final)) > 1e-9:
        raise ConfigError(
            "chain.dt and vlasov.dt must both divide compare.t_final",
            field="compare.t_final",
        )


def _check_density(lc: LawConfig, path: str, user: str, widths: tuple[str, ...]) -> None:
    """Reject the law block ``lc`` at ``path`` unless it gives a density: a
    gaussian kind whose ``widths`` are positive."""
    from .chain import GaussianLaw

    law = build_law(lc)
    if not isinstance(law, GaussianLaw):
        raise ConfigError(f"{user} needs a law with a density (gaussian kinds)", field=f"{path}.kind")
    for name in widths:
        if not getattr(law, name) > 0.0:
            raise ConfigError(
                f"{user} needs a law with a density, so {name} > 0, got {getattr(law, name)}",
                field=f"{path}.{name}",
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
    return sha256(blob).hexdigest()


def _make(tc):
    """Call the factory that the tagged block ``tc`` names with its parameters."""
    table, tag = tc.factories(), fields(tc)[0].name
    return table[_value(str, {"choices": tuple(table)}, getattr(tc, tag), tag)](**tc.params)


def build_profile(pc: ProfileConfig):
    return _make(pc)


def build_law(lc: LawConfig):
    return _make(lc)


def resolved(cfg: RunConfig) -> dict:
    """The tree :func:`parse_config` built, as JSON values and without ``raw``.

    Each profile and law block lists every parameter of its kind, the
    defaults filled in from the factory's signature.  Blocks the run does
    not read are left out: an absent block, and each field a pipeline
    derives from another block (in ``wt-compare`` ``kinetic.initial`` and the
    step fields ``wave.n_steps``, ``wave.save_every`` and ``kinetic.n_steps``;
    in ``mf-compare`` ``vlasov.law``, ``chain.n_steps``, ``chain.save_every``
    and ``vlasov.n_steps``).  So :func:`parse_config` takes the result back.
    """

    def walk(node):
        if hasattr(node, "factories"):
            tag = fields(node)[0].name
            kind = getattr(node, tag)
            sig = _params(node.factories()[kind])
            return {tag: kind} | {k: node.params.get(k, p.default) for k, p in sig.items()}
        if is_dataclass(node):
            return {f.name: walk(getattr(node, f.name)) for f in fields(node) if f.name != "raw"}
        return list(node) if isinstance(node, tuple) else node

    out = {k: v for k, v in walk(cfg).items() if v is not None}
    for block, name, _ in _BORROWED.get(cfg.pipeline, ()):
        del out[block][name]
    return out
