"""Strict JSON experiment configurations.

One file describes one experiment: a grid block, a constants block, an
action block, a command-specific run block, and an optional output block.
The schema is closed: unknown keys anywhere are errors, so typos never run
silently with defaults. The tables below are the one source of its rules:
the schema types of each key, the grid each command needs, the run block of
each command, the action kinds and named built-ins, and the ordered list of
rules across blocks.
"""

import json
import math
from dataclasses import dataclass

from .action import (
    GaugedAction,
    PhysicalConstants,
    QuarticAction,
    SineAction,
    StandardAction,
    VectorPotentialAction2D,
)
from .criterion import DEFAULT_SAMPLES, DEFAULT_TOLERANCE, MIN_SAMPLES
from .grid import SpatialGrid, make_grid
from .potentials import (
    bilinear_field,
    cosine_well_potential,
    harmonic_potential,
    linear_phase,
    quadratic_phase,
    quartic_potential,
    sine_field,
    zero_field,
    zero_phase,
    zero_potential,
)
from .propagator import MAX_POINTS_1D, magic_time_step

__all__ = ["ConfigError", "load_config", "build_grid", "build_action"]


class ConfigError(Exception):
    """Invalid or malformed experiment configuration."""


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _either(choices) -> str:
    quoted = [f"'{choice}'" for choice in choices]
    return " or ".join(quoted) if len(quoted) == 2 else ", ".join(quoted[:-1]) + ", or " + quoted[-1]


# Schema types. Each one checks the value at ``where`` and returns it in the
# form the commands read, or raises ConfigError.


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"'{where}' must be a string")
    return value


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"block '{where}' must be an object")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"'{where}' must be a list")
    return value


@dataclass(frozen=True)
class _Number:
    """A number, as a float; ``sign`` is None, 'positive' or 'non-negative'."""

    sign: str | None = None

    def __call__(self, value, where: str) -> float:
        if not _is_number(value):
            raise ConfigError(f"'{where}' must be a number")
        value = float(value)
        if self.sign and (value < 0 or (value == 0 and self.sign == "positive")):
            raise ConfigError(f"'{where}' must be {self.sign}, got {value}")
        return value


_NUMBER = _Number()
_POSITIVE = _Number("positive")
_NON_NEGATIVE = _Number("non-negative")


@dataclass(frozen=True)
class _Integer:
    """An integer in [minimum, maximum]."""

    minimum: int
    maximum: int

    def __call__(self, value, where: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"'{where}' must be an integer")
        if value < self.minimum:
            least = "non-negative" if self.minimum == 0 else f"at least {self.minimum}"
            raise ConfigError(f"'{where}' must be {least}, got {value}")
        if value > self.maximum:
            raise ConfigError(f"'{where}' must be at most {self.maximum}, got {value}")
        return value


# Upper limits of the integer keys: far above any desk-scale run, and low
# enough that a mistyped value fails here instead of running without end.
MAX_STEPS = 1_000_000
MAX_POINTS = 2**22
MAX_SAMPLES = 1_000_000


@dataclass(frozen=True)
class _Enum:
    choices: tuple[str, ...]

    def __call__(self, value, where: str) -> str:
        if _string(value, where) not in self.choices:
            raise ConfigError(f"'{where}' must be {_either(self.choices)}, got {value!r}")
        return value


@dataclass(frozen=True)
class _EnumList:
    choices: tuple[str, ...]

    def __call__(self, value, where: str) -> list:
        for entry in _list(value, where):
            if entry not in self.choices:
                raise ConfigError(f"'{where}' entries must be {_either(self.choices)}, got {entry!r}")
        return value


def _interval(value, where: str) -> list[float]:
    """A [lo, hi] pair of numbers with lo < hi as floats (two integers past 2**53 can round to one)."""
    if len(_list(value, where)) != 2 or not all(map(_is_number, value)):
        raise ConfigError(f"'{where}' must be a [lo, hi] pair of numbers")
    lo, hi = float(value[0]), float(value[1])
    if not hi > lo:
        raise ConfigError(f"'{where}' must satisfy lo < hi, got {[lo, hi]}")
    return [lo, hi]


@dataclass(frozen=True)
class _Descending:
    """A strictly descending list of at least ``min_length`` positive numbers, as floats."""

    min_length: int

    def __call__(self, value, where: str) -> list[float]:
        if len(_list(value, where)) < self.min_length:
            raise ConfigError(f"'{where}' needs at least {self.min_length} values, got {len(value)}")
        if not all(_is_number(v) and v > 0 for v in value):
            raise ConfigError(f"'{where}' must contain positive numbers")
        values = [float(v) for v in value]  # compared as floats, as in _interval
        if not all(b < a for a, b in zip(values, values[1:])):
            raise ConfigError(f"'{where}' must be strictly descending")
        return values


def _time_step(value, where: str):
    """A positive number, or 'magic' for the exact-unitarity step of the grid."""
    if value is None:  # an explicit null reads as a missing key
        raise ConfigError("missing required key 'tau' in block 'constants'")
    if isinstance(value, str):
        if value != "magic":
            raise ConfigError(f"'{where}' must be a positive number or 'magic', got {value!r}")
        return value
    if not _is_number(value):
        raise ConfigError(f"'{where}' must be a positive number or 'magic'")
    if value <= 0:
        raise ConfigError(f"'{where}' must be positive, got {value}")
    return float(value)


@dataclass(frozen=True)
class _Named:
    """A block {"name": <a key of ``registry``>, <that built-in's parameters>}."""

    registry: dict

    def __call__(self, value, where: str) -> dict:
        name = _object(value, where).get("name")
        if not isinstance(name, str) or name not in self.registry:
            raise ConfigError(f"'{where}.name' must be one of {sorted(self.registry)}, got {name!r}")
        return _check(value, where, {"name": _string}, self.registry[name][0])


def _check(block, where: str, required: dict, optional: dict) -> dict:
    """Check the key set and each value of a block; fill defaults for optional keys.

    ``required`` maps a key to its schema type, ``optional`` to (type, default).
    """
    for key in _object(block, where):
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key '{key}' in block '{where}'")
    out = {}
    for key, check in required.items():
        if key not in block:
            raise ConfigError(f"missing required key '{key}' in block '{where}'")
        out[key] = check(block[key], f"{where}.{key}")
    for key, (check, default) in optional.items():
        out[key] = check(block[key], f"{where}.{key}") if key in block else default
    return out


# Named built-ins: name -> (parameter schema, factory(params, mass)).
_POTENTIALS = {
    "zero": ({}, lambda p, mass: zero_potential()),
    "harmonic": ({"omega": (_POSITIVE, 1.0)}, lambda p, mass: harmonic_potential(mass, p["omega"])),
    "quartic": ({"strength": (_NUMBER, 1.0)}, lambda p, mass: quartic_potential(p["strength"])),
    "cosine_well": (
        {"depth": (_NUMBER, 1.0), "wavenumber": (_POSITIVE, 1.0)},
        lambda p, mass: cosine_well_potential(p["depth"], p["wavenumber"]),
    ),
}

_PHASES = {
    "zero": ({}, lambda p, mass: zero_phase()),
    "linear": ({"slope": (_NUMBER, 1.0)}, lambda p, mass: linear_phase(p["slope"])),
    "quadratic": ({"curvature": (_NUMBER, 1.0)}, lambda p, mass: quadratic_phase(p["curvature"])),
}

_FIELDS = {
    "zero": ({}, lambda p, mass: zero_field()),
    "bilinear": ({"strength": (_NUMBER, 1.0)}, lambda p, mass: bilinear_field(p["strength"])),
    "sine": ({"strength": (_NUMBER, 1.0)}, lambda p, mass: sine_field(p["strength"])),
}
_POTENTIAL, _PHASE, _FIELD = _Named(_POTENTIALS), _Named(_PHASES), _Named(_FIELDS)

# Action kinds, each named by its class's ``kind``: kind -> (the block's keys
# besides 'kind', in the order the class takes them after the constants; the class).
_ACTIONS = {
    cls.kind: (required, cls)
    for required, cls in [
        ({"potential": _POTENTIAL}, StandardAction),
        ({"potential": _POTENTIAL, "phase": _PHASE}, GaugedAction),
        ({"potential": _POTENTIAL, "epsilon": _NUMBER}, QuarticAction),
        ({"strength": _POSITIVE}, SineAction),
        ({"potential": _POTENTIAL, "a1": _FIELD, "a2": _FIELD}, VectorPotentialAction2D),
    ]
}
# The kinds is_standard_family admits: what the analytic amplitude and the sweep need.
_FAMILY = (StandardAction.kind, GaugedAction.kind)

_CONSTANTS = {"mass": _POSITIVE, "hbar": _POSITIVE, "tau": _time_step}
_OUTPUT = {"directory": (_string, "dtqm-out"), "formats": (_EnumList(("csv", "json")), ("csv", "json"))}

# The grid keys each command requires; None forbids the block. 'run',
# 'constants' and 'action' are always required, 'output' always optional.
_FULL_GRID = {"n_points": _Integer(4, MAX_POINTS), "x_min": _NUMBER, "spacing": _POSITIVE}
_GRID_USAGE = {
    "check-action": None,
    "evolve": _FULL_GRID,
    "classical": None,
    "sweep": {"n_points": _Integer(4, MAX_POINTS)},  # the spacing is retuned per hbar
    "build": _FULL_GRID,
}

# The run block of each command: (required keys, optional keys with defaults).
_AMPLITUDE_MODE = (_Enum(("analytic", "calibrated")), "analytic")
_RUN_SCHEMAS = {
    "check-action": (
        {"domain": _interval, "expect": _Enum(("admissible", "inadmissible"))},
        {"n_samples": (_Integer(MIN_SAMPLES, MAX_SAMPLES), DEFAULT_SAMPLES),
         "tolerance": (_NON_NEGATIVE, DEFAULT_TOLERANCE)},
    ),
    "evolve": (
        {"x0": _NUMBER, "p0": _NUMBER, "n_steps": _Integer(0, MAX_STEPS)},
        {
            "alpha": (_POSITIVE, 1.0),
            "amplitude_mode": _AMPLITUDE_MODE,
            "tracking_tolerance": (_NON_NEGATIVE, None),
            "norm_tolerance": (_NON_NEGATIVE, None),
        },
    ),
    "classical": (
        {"x0": _NUMBER, "n_steps": _Integer(1, MAX_STEPS)},
        {
            "x_minus1": (_NUMBER, None),
            "p0": (_NUMBER, None),
            "expect_status": (_Enum(("complete", "no_solution", "non_unique")), "complete"),
        },
    ),
    "sweep": (
        {"x0": _NUMBER, "p0": _NUMBER, "n_steps": _Integer(1, MAX_STEPS), "hbar_list": _Descending(3)},
        {"alpha": (_POSITIVE, 1.0)},
    ),
    "build": ({}, {"amplitude_mode": _AMPLITUDE_MODE, "max_unitarity_deviation": (_NON_NEGATIVE, None)}),
}


def _magic_step(cfg: dict) -> float:
    c = cfg["constants"]
    return magic_time_step(build_grid(cfg), c["mass"], c["hbar"])


# Rules across keys and blocks, checked in order once every block is valid:
# (predicate that flags a fault in the validated config, its message).
_RULES = [
    (lambda c: c["command"] == "classical" and (c["run"]["x_minus1"] is None) == (c["run"]["p0"] is None),
     lambda c: "'run' must set exactly one of 'x_minus1' or 'p0'"),
    (lambda c: c["command"] == "sweep" and c["constants"]["tau"] == "magic",
     lambda c: "command 'sweep' needs a numeric 'constants.tau' (the grid is retuned per hbar)"),
    (lambda c: c["constants"]["tau"] == "magic" and "grid" not in c,
     lambda c: "'constants.tau' = 'magic' needs a grid block"),
    # The step of a tiny or huge lattice can underflow to 0 or overflow.
    (lambda c: c["constants"]["tau"] == "magic" and not 0.0 < _magic_step(c) < math.inf,
     lambda c: f"'constants.tau' = 'magic' resolves to {_magic_step(c)}, not a positive finite time step"),
    (lambda c: c["command"] != "check-action" and c["action"]["kind"] == VectorPotentialAction2D.kind,
     lambda c: f"command '{c['command']}' drives 1D actions only"),
    (lambda c: c["command"] == "sweep" and c["action"]["kind"] not in _FAMILY,
     lambda c: "command 'sweep' needs a standard or gauged action (its kernels use the analytic amplitude)"),
    (lambda c: c["run"].get("amplitude_mode") == "analytic" and c["action"]["kind"] not in _FAMILY,
     lambda c: "analytic amplitude mode needs a standard or gauged action; use 'calibrated'"),
    # build reads the dense phases' Gram rows for its unitarity defect (and the
    # matrix for eigvals off the Gauss-sum case); calibration always builds them.
    (lambda c: (c["command"] == "build" or c["run"].get("amplitude_mode") == "calibrated")
     and c["grid"]["n_points"] > MAX_POINTS_1D,
     lambda c: f"dense 1D kernels are limited to {MAX_POINTS_1D} points, got {c['grid']['n_points']}"),
]


def _finite_number(text: str, kind=float):
    """JSON number hook: NaN, Infinity, -Infinity and literals past the largest float are errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text} in config; numbers must be finite")
    return value if kind is float else kind(text)


def _validate_action(block) -> dict:
    kind = _object(block, "action").get("kind")
    if not isinstance(kind, str) or kind not in _ACTIONS:
        raise ConfigError(f"'action.kind' must be one of {list(_ACTIONS)}, got {kind!r}")
    return _check(block, "action", {"kind": _string} | _ACTIONS[kind][0], {})


def load_config(path: str, command: str) -> dict:
    """Read, parse, and validate one experiment configuration for a command."""
    if command not in _RUN_SCHEMAS:
        raise ConfigError(f"unknown command '{command}'")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(
                fh,
                parse_float=_finite_number,
                parse_int=lambda text: _finite_number(text, int),
                parse_constant=_finite_number,
            )
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # bytes that are not UTF-8, or a NUL byte in the path
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top level of a config must be an object")

    grid = _GRID_USAGE[command]
    for key in raw:
        if key not in ("grid", "constants", "action", "run", "output"):
            raise ConfigError(f"unknown key '{key}' at top level")
        if key == "grid" and grid is None:
            raise ConfigError(f"block 'grid' is not used by command '{command}'")

    cfg: dict = {"command": command, "raw": raw}
    if grid is not None:
        if "grid" not in raw:
            raise ConfigError("missing required block 'grid'")
        cfg["grid"] = _check(raw["grid"], "grid", grid, {})
    for block in ("constants", "action", "run"):
        if block not in raw:
            raise ConfigError(f"missing required block '{block}'")
    cfg["constants"] = _check(raw["constants"], "constants", _CONSTANTS, {})
    cfg["action"] = _validate_action(raw["action"])
    cfg["run"] = _check(raw["run"], "run", *_RUN_SCHEMAS[command])
    cfg["output"] = _check(raw.get("output", {}), "output", {}, _OUTPUT)
    for broken, message in _RULES:
        if broken(cfg):
            raise ConfigError(message(cfg))
    # The report keeps 'magic' in cfg["raw"]; every builder sees the number.
    if cfg["constants"]["tau"] == "magic":
        cfg["constants"]["tau"] = _magic_step(cfg)
    return cfg


def build_grid(cfg: dict) -> SpatialGrid:
    g = cfg["grid"]
    return make_grid(g["n_points"], g["x_min"], g["spacing"])


def build_action(cfg: dict):
    c = cfg["constants"]
    constants = PhysicalConstants(c["mass"], c["tau"], c["hbar"])
    a = cfg["action"]
    required, action_class = _ACTIONS[a["kind"]]
    # A named sub-block is built by its built-in's factory; a number is passed as it is.
    parts = [
        check.registry[a[key]["name"]][1](a[key], constants.mass) if isinstance(check, _Named) else a[key]
        for key, check in required.items()
    ]
    return action_class(constants, *parts)
