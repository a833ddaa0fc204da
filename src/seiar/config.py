"""Run configuration: a single YAML document parsed into typed blocks.

Every settings block (``integrator``, ``fit``, ``scenario``, ``stability``,
``forecast``) is read by one function, :func:`_parse_block`, from the
dataclass it fills: the block's keys are exactly the class's fields, each
value must have the type of the field's default, and the class's
``__post_init__`` does the rest of the validation.  Unknown keys
are rejected everywhere — a silently ignored typo in a rate name is the
dominant user error this layer exists to prevent.  Numeric fields reject
booleans, strings and non-finite values.  Integration windows are not set
here: each library call derives its own from the ``integrator`` block.

The YAML is read by PyYAML's pure-Python ``SafeLoader`` on every build.  A
mapping that writes one key twice is refused, naming the key and its line,
and so is a document nested too deeply to read (exit 2 for each).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import yaml

from .calibrate import FitConfig, FreeValue, ParameterSpec
from .errors import ConfigError, require_integers
from .model import COMPARTMENTS, PARAMETER_NAMES, ModelParameters
from .simulate import IntegratorConfig
from .stability import StabilityConfig


@dataclass(frozen=True)
class ScenarioConfig:
    rho_values: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8)
    horizon: float = 365.0

    def __post_init__(self):
        if not self.rho_values:
            raise ValueError("rho_values must be nonempty")
        if any(not 0.0 <= r <= 1.0 for r in self.rho_values):
            raise ValueError("rho_values must lie in [0, 1]")
        if not 1.0 <= self.horizon < math.inf:
            raise ValueError(f"horizon must be at least one day and finite, "
                             f"got {self.horizon!r}")


@dataclass(frozen=True)
class ForecastConfig:
    horizon: int = 120

    def __post_init__(self):
        require_integers(self, "horizon")
        if self.horizon < 1:
            raise ValueError(f"horizon must be at least 1 day, got {self.horizon!r}")


_BLOCKS = {"integrator": IntegratorConfig, "fit": FitConfig,
           "scenario": ScenarioConfig, "stability": StabilityConfig,
           "forecast": ForecastConfig}
_TOP_LEVEL_KEYS = ("parameters", "initial", *_BLOCKS)


@dataclass(frozen=True)
class RunConfig:
    spec: ParameterSpec
    integrator: IntegratorConfig
    fit: FitConfig
    scenario: ScenarioConfig
    stability: StabilityConfig
    forecast: ForecastConfig

    def fixed_parameters(self) -> tuple[ModelParameters, Any]:
        """The fully pinned (parameters, initial state) of this config.

        Commands that simulate a single known configuration require every
        entry to be fixed; free entries are a config error there.
        """
        if self.spec.free_names:
            raise ConfigError(
                "this command requires fully fixed parameters and initial "
                f"state; free entries: {', '.join(self.spec.free_names)}")
        return self.spec.assemble([])


def _require_mapping(value, where: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: Mapping, allowed, where: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(sorted(map(str, unknown)))}")


def _number(value, where: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _entry(value, where: str):
    """A parameter/initial entry: a number or {free: {lo, hi, guess}}."""
    if isinstance(value, Mapping):
        _reject_unknown(value, ("free",), where)
        if "free" not in value:
            raise ConfigError(f"{where} mapping must contain a 'free' block")
        block = _require_mapping(value["free"], f"{where}.free")
        _reject_unknown(block, ("lo", "hi", "guess"), f"{where}.free")
        for key in ("lo", "hi", "guess"):
            if key not in block:
                raise ConfigError(f"{where}.free is missing {key!r}")
        try:
            return FreeValue(**{key: _number(block[key], f"{where}.free.{key}")
                                for key in ("lo", "hi", "guess")})
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return _number(value, where)


def _parse_spec(raw: Mapping) -> ParameterSpec:
    params_block = _require_mapping(raw.get("parameters"), "parameters")
    _reject_unknown(params_block, PARAMETER_NAMES, "parameters")
    params = {name: _entry(value, f"parameters.{name}")
              for name, value in params_block.items()}
    initial_block = raw.get("initial")
    initial_block = _require_mapping({} if initial_block is None else initial_block, "initial")
    _reject_unknown(initial_block, COMPARTMENTS, "initial")
    initial = {name: _entry(value, f"initial.{name}")
               for name, value in initial_block.items()}
    try:
        return ParameterSpec(params=params, initial=initial)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


_KINDS = {str: "a string", int: "an integer", tuple: "a list"}


def _value(default, value, where: str):
    """``value`` checked against the type of a field whose default is
    ``default``; a ``None`` default marks an optional number."""
    kind = type(default)
    if kind is float or default is None:
        return None if value is None and default is None else _number(value, where)
    if kind is tuple and isinstance(value, (list, tuple)):
        return tuple(_number(v, where) for v in value)
    if kind in (str, int) and isinstance(value, kind) and not isinstance(value, bool):
        if kind is int:
            _number(value, where)  # an integer beyond the float range is refused
        return value
    raise ConfigError(f"{where} must be {_KINDS[kind]}, got {value!r}")


def _parse_block(raw: Mapping, name: str):
    """The ``name`` block, read into its dataclass: the keys are the class's
    fields, and each value must have the type of the field's default
    (``None`` marks an optional number)."""
    cls = _BLOCKS[name]
    block = raw.get(name)
    block = _require_mapping({} if block is None else block, name)
    fields = {f.name: f.default for f in dataclasses.fields(cls)}
    _reject_unknown(block, fields, name)
    kwargs = {key: _value(fields[key], value, f"{name}.{key}")
              for key, value in block.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def parse_config(raw: Any) -> RunConfig:
    raw = _require_mapping(raw, "configuration")
    _reject_unknown(raw, _TOP_LEVEL_KEYS, "configuration")
    if "parameters" not in raw:
        raise ConfigError("configuration is missing the 'parameters' block")
    return RunConfig(spec=_parse_spec(raw),
                     **{name: _parse_block(raw, name) for name in _BLOCKS})


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(_read_yaml(text, path))


class _Loader(yaml.SafeLoader):
    """``SafeLoader`` refusing a mapping that writes one key twice."""

    def construct_mapping(self, node, deep=False):
        # the keys are hashable now, and node.value holds those merged in by '<<' too
        mapping = super().construct_mapping(node, deep)
        seen = set()
        for key_node, _ in node.value:
            key = self.construct_object(key_node)  # built already, so read from the cache
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"found duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return mapping


def _read_yaml(text: str, path) -> Any:
    """The YAML document ``text`` of the config at ``path``."""
    try:
        return yaml.load(text, Loader=_Loader)
    # ValueError: an over-long integer; RecursionError: deep nesting; LookupError
    # and AttributeError: PyYAML's reading of a malformed !!bool, !!int, !!float
    # or !!timestamp scalar
    except (yaml.YAMLError, ValueError, RecursionError, LookupError, AttributeError) as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
