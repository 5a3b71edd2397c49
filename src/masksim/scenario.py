"""Scenario configuration: one JSON file drives a whole reproducible run.

The schema is versioned and strict: unknown fields are rejected with their
full path, every value is read by its field's type annotation (one parser,
``_section``, serves every section) and validated by the owning module's
dataclass, and the seed is mandatory at the top level (runs never draw
wall-clock entropy).  All sections are optional and default to the module
defaults; the seed is threaded into every subsystem from the single
top-level value.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import dataclass, field, is_dataclass
from enum import EnumMeta

from .controller import ControllerParams
from .epidemic import WorldConfig
from .escrow import MICRO_PER_TOKEN, PenaltyPolicy
from .positioning import collinear
from .records import MAX_AMOUNT
from .sensing import DetectorConfig

SCHEMA_VERSION = 1

DEFAULT_ANCHORS = [(0.0, 0.0), (20.0, 0.0), (0.0, 10.0), (20.0, 10.0)]


class ConfigError(ValueError):
    """Invalid scenario configuration; the message carries the field path."""


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:           # an int beyond the float range
        return False


# what a JSON value must be for a field of each scalar annotated type
_TYPE_CHECKS = {
    int: (_is_integer, "an integer"),
    float: (_is_finite_number, "a finite number"),
    str: (lambda v: isinstance(v, str), "a string"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
}


@dataclass
class EscrowConfig:
    policy: PenaltyPolicy = PenaltyPolicy.ADAPTIVE
    rho: float = 0.5
    initial_balance: float = 100.0

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if self.initial_balance < 0:
            raise ValueError("initial_balance must be >= 0")
        # no transfer exceeds an opening balance; each must fit its record
        if self.initial_balance > MAX_AMOUNT // MICRO_PER_TOKEN:
            raise ValueError(f"initial_balance must be at most "
                             f"{MAX_AMOUNT // MICRO_PER_TOKEN} tokens")


@dataclass
class HilConfig:
    """Hardware-in-the-loop bridge: which agent is replayed and how noisy
    the synthetic ranging exchanges are."""
    agent_index: int = 0
    ranging_jitter: float = 2.5e-10   # seconds of timestamp jitter
    reply_delay: float = 5e-9
    final_delay: float = 7e-9

    def __post_init__(self):
        if self.agent_index < 0:
            raise ValueError("agent_index must be >= 0")
        if self.ranging_jitter < 0:
            raise ValueError("ranging_jitter must be >= 0")
        for name in ("reply_delay", "final_delay"):    # else out of order
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")


@dataclass
class OutputConfig:
    directory: str = "out"
    agent_trace: bool = False   # per-agent per-step trace CSV (large)


@dataclass
class ScenarioConfig:
    seed: int
    steps: int = 100
    world: WorldConfig = field(default_factory=WorldConfig)
    controller: ControllerParams = field(default_factory=ControllerParams)
    escrow: EscrowConfig = field(default_factory=EscrowConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    anchors: list[tuple[float, float]] = field(
        default_factory=lambda: list(DEFAULT_ANCHORS))
    hil: HilConfig = field(default_factory=HilConfig)
    outputs: OutputConfig = field(default_factory=OutputConfig)

    def __post_init__(self):
        # the runner derives channel keys from the seed as 16 signed bytes
        if not _is_integer(self.seed) or not 0 <= self.seed < 2**127:
            raise ConfigError("seed: must be an integer in [0, 2**127)")
        if not _is_integer(self.steps) or self.steps < 1:
            raise ConfigError("steps: must be an integer >= 1")
        self.anchors = parse_anchors(self.anchors)
        if self.hil.agent_index >= self.world.n_agents:
            raise ConfigError("hil.agent_index: no such agent")


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


# resolved once per config class: resolving evaluates string annotations
_hints = functools.cache(typing.get_type_hints)


def _value(tp, value, path: str, seed):
    """``value`` read as a field annotated ``tp``, or a ConfigError naming
    ``path``."""
    if is_dataclass(tp):
        return _section(tp, value, path, seed)
    if isinstance(tp, EnumMeta):
        # enum values are lower case; a file may write them in any case
        allowed = [m.value for m in tp]
        if isinstance(value, str) and value.lower() in allowed:
            return tp(value.lower())
        raise ConfigError(f"{path}: expected one of {allowed}, got {value!r}")
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is list:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        return [_value(args[0], item, f"{path}[{i}]", seed)
                for i, item in enumerate(value)]
    if origin is tuple:
        if not isinstance(value, (list, tuple)) or len(value) != len(args):
            raise ConfigError(f"{path}: expected a list of {len(args)} "
                              f"values, got {value!r}")
        return tuple(t(_value(t, item, f"{path}[{i}]", seed))
                     for i, (t, item) in enumerate(zip(args, value)))
    is_valid, expected = _TYPE_CHECKS[tp]
    if not is_valid(value):
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")
    return value


def _section(cls, doc, path: str, seed):
    """A config dataclass read from its JSON object at ``path``, each field
    by its annotation.  Unknown fields are rejected; a ``seed`` field is not
    read from the object but filled with the scenario's one seed."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    hints = _hints(cls)
    unknown = set(doc) - (hints.keys() - {"seed"})
    if unknown:
        raise ConfigError(f"{_join(path, sorted(unknown)[0])}: unknown field")
    kwargs = {}
    for name, tp in hints.items():
        if name == "seed":
            kwargs[name] = seed
        elif name in doc:
            kwargs[name] = _value(tp, doc[name], _join(path, name), seed)
        elif is_dataclass(tp):      # an absent section takes the seed too
            kwargs[name] = _section(tp, {}, _join(path, name), seed)
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        # a check whose message opens with a field's name names that field
        name, _, rest = str(exc).partition(" ")
        where, what = (_join(path, name), rest) if name in hints else (path, exc)
        raise ConfigError(f"{where}: {what}") from exc


def parse_anchors(value, path: str = "anchors") -> list[tuple[float, float]]:
    """Anchors by the scenario's rule: [x, y] pairs of finite numbers, at
    least 3 of them and not all on one line (nor at one point), which would
    leave a position fix undetermined."""
    anchors = _value(list[tuple[float, float]], value, path, None)
    if len(anchors) < 3:
        raise ConfigError(f"{path}: at least 3 anchors required")
    if collinear(anchors):
        raise ConfigError(f"{path}: all on one line (or coincident), "
                          "which leaves a position fix undetermined")
    return anchors


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")
    doc = dict(doc)
    version = doc.pop("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"version: unsupported schema version {version}")
    if "seed" not in doc:
        raise ConfigError("seed: required (runs never use wall-clock entropy)")
    return _section(ScenarioConfig, doc, "", doc.pop("seed"))


def load_scenario(path, overrides=()) -> ScenarioConfig:
    """The scenario in the JSON file at ``path``; ``overrides`` (a mapping
    of top-level fields, as the CLI's ``--seed`` and ``--steps``) replace
    the file's values before the one parse."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    # ValueError: bad JSON, bad UTF-8 or an int past the digit limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"not valid JSON: {exc}") from exc
    if isinstance(doc, dict):
        doc.update(overrides)
    return scenario_from_dict(doc)
