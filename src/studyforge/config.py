"""Experiment configuration: strict YAML parsing, overrides, round-trip.

Unknown keys are rejected with their full dot path so typos fail loudly
instead of silently falling back to defaults. The config's keys are the
fields of its dataclasses: ``_parse_section`` walks them to parse every
section and the root, and ``serialize_config`` walks them to write the
config back, so a new field is a config key and enters ``config_hash``
with no edit here. A field's metadata may name its parser. Each section's
own rules, the seeds' among them, run when it is built, so a config built
in code is checked like a parsed one; a parse reports a rule's error under
the field its ``key`` names. A space is checked against its
objective's inputs as ``surrogate`` declares them: ``HYPERPARAMETERS`` or
``BENCHMARKS``. parse_config is pure text in, config out; the seed env
override is applied by the CLI layer. The config's other facts live here
too: the run policy, the objective's direction and ``config_hash``, the
config's identity.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

import yaml

from .errors import ConfigError, ValidationError
from .manifest import DEFAULT_RATIOS, TASK_CLASSES, check_ratios
from .pruning import PrunerConfig
from .samplers import TpeConfig, grid_enumerate
from .study import (
    BOOLEAN,
    CHOICE,
    INT_CATEGORICAL,
    LOG_UNIFORM,
    MAXIMIZE,
    MINIMIZE,
    UNIFORM,
    Distribution,
    SearchSpace,
    check_seed,
)
from .surrogate import BENCHMARKS, SyntheticSpec, check_arity, resolve_hp


class YamlLoader(yaml.SafeLoader):
    """SafeLoader that refuses a mapping with a repeated key, where PyYAML
    would keep the last value, and reads exponent floats by YAML 1.2 rules:
    YAML 1.1 leaves 1e-4 and 1.5e3 as strings (it wants a dot and a signed
    exponent)."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            key = (key_node.tag, key_node.value) if isinstance(key_node, yaml.ScalarNode) else key_node
            if key in seen:
                line = key_node.start_mark.line + 1
                raise ConfigError(f"invalid YAML: duplicate key {key_node.value!r} at line {line}")
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


YamlLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def load_yaml(text: str):
    """Parse config YAML with ``YamlLoader``; errors become ConfigError."""
    try:
        return yaml.load(text, Loader=YamlLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from None


def _require_mapping(node, path):
    if not isinstance(node, dict):
        raise ConfigError(f"expected a mapping at {path or '<root>'}")
    for key in node:
        if not isinstance(key, str):
            raise ConfigError(f"non-string key {key!r}", path=path)
    return node


def _take(node: dict, key: str, path: str):
    """Pop a required key."""
    if key not in node:
        raise ConfigError("missing required key", path=_join(path, key))
    return node.pop(key)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _reject_unknown(node: dict, path: str) -> None:
    if node:
        key = sorted(node)[0]
        raise ConfigError("unknown key", path=_join(path, key))


def _as_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", path=path)
    return value


def _as_float(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", path=path)
    try:
        number = float(value)
    except OverflowError:  # an int past the largest float
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"expected a finite number, got {number!r}", path=path)
    return number


def _as_str(value, path, allowed=None):
    if not isinstance(value, str):
        raise ConfigError(f"expected a string, got {value!r}", path=path)
    if allowed is not None and value not in allowed:
        raise ConfigError(f"must be one of {sorted(allowed)}, got {value!r}", path=path)
    return value


def _parse_distribution(node, path: str) -> Distribution:
    node = dict(_require_mapping(node, path))
    kind = _as_str(_take(node, "kind", path), _join(path, "kind"))
    try:
        if kind in (UNIFORM, LOG_UNIFORM):
            low = _as_float(_take(node, "low", path), _join(path, "low"))
            high = _as_float(_take(node, "high", path), _join(path, "high"))
            _reject_unknown(node, path)
            return Distribution(kind=kind, low=low, high=high)
        if kind in (INT_CATEGORICAL, CHOICE):
            choices = _take(node, "choices", path)
            if not isinstance(choices, list):
                raise ConfigError("choices must be a list", path=_join(path, "choices"))
            _reject_unknown(node, path)
            return Distribution(kind=kind, choices=tuple(choices))
        if kind == BOOLEAN:
            _reject_unknown(node, path)
            return Distribution(kind=BOOLEAN)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(str(exc), path=path) from exc
    raise ConfigError(f"unknown distribution kind {kind!r}", path=_join(path, "kind"))


def parse_space(node, path: str = "space") -> SearchSpace:
    node = _require_mapping(node, path)
    if not node:
        raise ConfigError("space must define at least one parameter", path=path)
    return SearchSpace({name: _parse_distribution(sub, _join(path, name)) for name, sub in node.items()})


def _check_space(objective: str, space: SearchSpace) -> None:
    """A benchmark space is continuous, of its benchmark's arity. A surrogate
    space draws only what ``resolve_hp`` takes: a choice, or a float in a range,
    which a domain holding both ends as floats holds too."""
    path = "space"
    try:
        if objective != "surrogate":
            if any(d.is_discrete for d in space.entries.values()):
                raise ValidationError("benchmark spaces must be continuous")
            check_arity(objective, len(space))
        else:
            for name, dist in space.entries.items():
                path = _join("space", name)
                for value in dist.choices if dist.is_discrete else (float(dist.low), float(dist.high)):
                    resolve_hp({name: value})
    except ValidationError as exc:
        raise ConfigError(str(exc), path=path) from None


def _parse_section(node, path: str, cls):
    """Build dataclass ``cls`` from a mapping of its own fields. A field
    takes the parser its metadata names; otherwise an ``int`` field takes
    an integer, a ``str`` field a string (one of its metadata's
    ``allowed``, if any) and any other field a number. A field without a
    default is required."""
    node = dict(_require_mapping(node, path))
    kwargs = {}
    for f in fields(cls):
        if f.name not in node and (f.default is not MISSING or f.default_factory is not MISSING):
            continue  # the dataclass's default
        key, value = _join(path, f.name), _take(node, f.name, path)
        if "parse" in f.metadata:
            kwargs[f.name] = f.metadata["parse"](value, key)
        elif f.type in ("int", int):
            kwargs[f.name] = _as_int(value, key)
        elif f.type in ("str", str):
            kwargs[f.name] = _as_str(value, key, f.metadata.get("allowed"))
        else:
            kwargs[f.name] = _as_float(value, key)
    _reject_unknown(node, path)
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except Exception as exc:  # a rule of the section's own, under its field's path
        key = getattr(exc, "key", "")
        raise ConfigError(str(exc), path=_join(path, key) if key else path) from exc


def _section(cls) -> dict:
    """Field metadata of a nested section: it is parsed by walking ``cls``."""
    return {"parse": lambda node, path: _parse_section(node, path, cls)}


def _parse_ratios(node, path: str) -> tuple:
    if not isinstance(node, list):
        raise ConfigError("ratios must be a list of three numbers", path=path)
    ratios = [_as_float(r, path) for r in node]
    try:
        return check_ratios(ratios)
    except ValidationError as exc:
        raise ConfigError(str(exc), path=path) from None


@dataclass(frozen=True)
class DataConfig:
    manifest: str
    ratios: tuple = field(default=DEFAULT_RATIOS, metadata={"parse": _parse_ratios})
    seed: int = 0

    def __post_init__(self):
        check_seed(self.seed)


@dataclass(frozen=True)
class SamplerSpec:
    kind: str = field(default="tpe", metadata={"allowed": ("tpe", "random", "grid")})
    tpe: TpeConfig = field(default_factory=TpeConfig, metadata=_section(TpeConfig))
    resolution: int = 5


@dataclass(frozen=True)
class RunPolicy:
    """Trial budget plus the save/stop thresholds. Once a completed value
    meets save_threshold and improves on the prior best, a checkpoint
    record is written; once a completed value meets stop_threshold, no
    further trials start.

    ``max_parallel`` accepts any value >= 1 and enters the config hash, but
    trials always run one at a time.
    """

    n_trials: int = 20
    max_parallel: int = 1
    save_threshold: float | None = None
    stop_threshold: float | None = None

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValidationError("n_trials must be >= 1")
        if self.max_parallel < 1:
            raise ValidationError("max_parallel must be >= 1")

    def validate_for_direction(self, direction: str) -> None:
        if self.save_threshold is None or self.stop_threshold is None:
            return
        if direction == MAXIMIZE and self.stop_threshold < self.save_threshold:
            raise ValidationError("stop_threshold must be >= save_threshold")
        if direction == MINIMIZE and self.stop_threshold > self.save_threshold:
            raise ValidationError("stop_threshold must be <= save_threshold")


def direction_for_objective(objective: str) -> str:
    if objective == "surrogate":
        return MAXIMIZE
    if objective in BENCHMARKS:
        return MINIMIZE
    raise ValidationError(f"unknown objective {objective!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    objective: str = field(metadata={"allowed": ("surrogate", *BENCHMARKS)})
    space: SearchSpace = field(metadata={"parse": parse_space})
    seed: int = 0
    task: str = field(default="binary", metadata={"allowed": tuple(TASK_CLASSES)})
    epochs: int = 20
    output_dir: str = "runs/study"
    sampler: SamplerSpec = field(default_factory=SamplerSpec, metadata=_section(SamplerSpec))
    pruner: PrunerConfig | None = field(default=None, metadata=_section(PrunerConfig))
    policy: RunPolicy = field(default_factory=RunPolicy, metadata=_section(RunPolicy))
    data: DataConfig | None = field(default=None, metadata=_section(DataConfig))
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec, metadata=_section(SyntheticSpec))

    def __post_init__(self):
        check_seed(self.seed)
        direction = self.direction
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1", path="epochs")
        _check_space(self.objective, self.space)
        if self.sampler.kind == "grid":
            # the rule the first ask applies, refused before a journal is written
            try:
                grid_enumerate(self.space, self.sampler.resolution)
            except ValidationError as exc:
                raise ConfigError(str(exc), path="sampler.resolution") from None
        try:
            self.policy.validate_for_direction(direction)
        except ValidationError as exc:
            exc.key = "policy"  # a parse prefixes it; a built config keeps the bare text
            raise

    @property
    def direction(self) -> str:
        return direction_for_objective(self.objective)


def parse_config(text: str) -> ExperimentConfig:
    return config_from_mapping(load_yaml(text))


def config_from_mapping(raw) -> ExperimentConfig:
    return _parse_section(raw, "", ExperimentConfig)


def serialize_config(value) -> dict:
    """Plain data that parses back to an equal config: a walk over the
    fields the parse walks, where an unset (None) field is left out."""
    if isinstance(value, SearchSpace):
        return value.to_dict()
    if isinstance(value, tuple):
        return list(value)
    if not is_dataclass(value):
        return value
    pairs = ((f.name, getattr(value, f.name)) for f in fields(value))
    return {name: serialize_config(v) for name, v in pairs if v is not None}


def config_hash(config: ExperimentConfig) -> str:
    """sha256 of the canonical config, where the manifest counts by the
    sha256 of its bytes rather than by the spelling of its path."""
    doc = serialize_config(config)
    if config.data is not None:
        doc["data"]["manifest"] = hashlib.sha256(Path(config.data.manifest).read_bytes()).hexdigest()
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def dump_config(config: ExperimentConfig) -> str:
    return yaml.safe_dump(serialize_config(config), sort_keys=False)


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply dotted key=value assignments onto the raw mapping."""
    raw = dict(_require_mapping(raw, ""))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key_path, _, value_text = item.partition("=")
        keys = key_path.split(".")
        if not all(keys):
            raise ConfigError(f"override {item!r} has an empty key segment")
        try:
            value = yaml.load(value_text, Loader=YamlLoader) if value_text != "" else ""
        except yaml.YAMLError:
            value = value_text
        node = raw
        for key in keys[:-1]:
            child = node.get(key)
            if child is None:
                child = {}
                node[key] = child
            elif not isinstance(child, dict):
                raise ConfigError(f"cannot descend into scalar", path=key_path)
            node = child
        node[keys[-1]] = value
    return raw
