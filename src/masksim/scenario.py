"""Scenario configuration: one JSON file drives a whole reproducible run.

The schema is versioned and strict: unknown fields are rejected with their
full path, every value is validated by the owning module's dataclass, and
the seed is mandatory at the top level (runs never draw wall-clock
entropy).  All sections are optional and default to the module defaults;
the seed is threaded into every subsystem from the single top-level value.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass, field, fields

from .controller import ControllerParams, make_link
from .epidemic import WorldConfig
from .escrow import MICRO_PER_TOKEN, PenaltyPolicy
from .positioning import collinear
from .records import MAX_AMOUNT
from .sensing import CombineRule, DetectorConfig

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


# what a JSON value must be for a field of each annotated type; fields of
# other types (enums, pairs) are parsed by their section's helper
_TYPE_CHECKS = {
    int: (_is_integer, "an integer"),
    float: (_is_finite_number, "a finite number"),
    str: (lambda v: isinstance(v, str), "a string"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
}


@dataclass
class LinkConfig:
    """The controller's link as a scenario names it; see ``make_link``."""
    name: str = "logistic"
    scale: float = 1.0
    shift: float = 0.0


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
        if len(self.anchors) < 3:
            raise ConfigError("anchors: at least 3 anchors required")
        if collinear(self.anchors):
            raise ConfigError("anchors: all on one line (or coincident), "
                              "which leaves a position fix undetermined")
        if self.hil.agent_index >= self.world.n_agents:
            raise ConfigError("hil.agent_index: no such agent")


def _section(doc, path: str) -> dict:
    """A copy of the JSON object at ``path``, for its parser to edit."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    return dict(doc)


def _build_section(cls, doc: dict, path: str, **fixed):
    """Instantiate a config dataclass from a JSON object, strictly."""
    doc = _section(doc, path)
    allowed = {f.name for f in fields(cls)} - set(fixed)
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown field")
    hints = typing.get_type_hints(cls)
    for name, value in doc.items():
        is_valid, expected = _TYPE_CHECKS.get(hints[name], (None, None))
        if is_valid is not None and not is_valid(value):
            raise ConfigError(f"{path}.{name}: expected {expected}, "
                              f"got {value!r}")
    try:
        return cls(**doc, **fixed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _number_pair(item, path: str, expected: str) -> tuple[float, float]:
    if not isinstance(item, (list, tuple)) or len(item) != 2:
        raise ConfigError(f"{path}: expected {expected}")
    if not all(_is_finite_number(v) for v in item):
        raise ConfigError(f"{path}: expected {expected} as finite numbers")
    return float(item[0]), float(item[1])


def _parse_world(doc: dict, seed: int) -> WorldConfig:
    doc = _section(doc, "world")
    if "room" in doc:
        doc["room"] = _number_pair(doc["room"], "world.room", "[width, height]")
    return _build_section(WorldConfig, doc, "world", seed=seed)


def _parse_controller(doc: dict) -> ControllerParams:
    doc = _section(doc, "controller")
    spec = _build_section(LinkConfig, doc.pop("link", {}), "controller.link")
    try:
        link = make_link(vars(spec))
    except ValueError as exc:
        raise ConfigError(f"controller.link: {exc}") from exc
    return _build_section(ControllerParams, doc, "controller", link=link)


def _parse_escrow(doc: dict) -> EscrowConfig:
    doc = _section(doc, "escrow")
    if "policy" in doc:
        try:
            doc["policy"] = PenaltyPolicy(doc["policy"])
        except ValueError:
            raise ConfigError(
                f"escrow.policy: unknown policy {doc['policy']!r}; expected one "
                f"of {[p.value for p in PenaltyPolicy]}") from None
    return _build_section(EscrowConfig, doc, "escrow")


def _parse_detector(doc: dict) -> DetectorConfig:
    doc = _section(doc, "detector")
    if "combine" in doc:
        try:
            doc["combine"] = CombineRule(str(doc["combine"]).lower())
        except ValueError:
            raise ConfigError(
                f"detector.combine: expected 'and' or 'or', "
                f"got {doc['combine']!r}") from None
    return _build_section(DetectorConfig, doc, "detector")


def _parse_anchors(doc) -> list[tuple[float, float]]:
    if not isinstance(doc, list):
        raise ConfigError("anchors: expected a list of [x, y] pairs")
    return [_number_pair(item, f"anchors[{i}]", "[x, y]")
            for i, item in enumerate(doc)]


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")
    known = {"version", "seed", "steps", "world", "controller", "escrow",
             "detector", "anchors", "hil", "outputs"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown field")
    version = doc.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"version: unsupported schema version {version}")
    if "seed" not in doc:
        raise ConfigError("seed: required (runs never use wall-clock entropy)")
    seed = doc["seed"]
    return ScenarioConfig(
        seed=seed,
        steps=doc.get("steps", 100),
        world=_parse_world(doc.get("world", {}), seed),
        controller=_parse_controller(doc.get("controller", {})),
        escrow=_parse_escrow(doc.get("escrow", {})),
        detector=_parse_detector(doc.get("detector", {})),
        anchors=(_parse_anchors(doc["anchors"]) if "anchors" in doc
                 else list(DEFAULT_ANCHORS)),
        hil=_build_section(HilConfig, doc.get("hil", {}), "hil"),
        outputs=_build_section(OutputConfig, doc.get("outputs", {}), "outputs"),
    )


def load_scenario(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    # ValueError: bad JSON, bad UTF-8 or an int past the digit limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"not valid JSON: {exc}") from exc
    return scenario_from_dict(doc)
