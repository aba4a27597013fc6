"""Strict JSON experiment configurations.

One file describes one experiment: a grid block, a constants block, an
action block, a command-specific run block, and an optional output block.
The schema is closed: unknown keys anywhere are errors, so typos never run
silently with defaults.
"""

import json
import math

from .action import (
    GaugedAction,
    PhysicalConstants,
    QuarticAction,
    SineAction,
    StandardAction,
    VectorPotentialAction2D,
)
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

__all__ = ["ConfigError", "load_config", "build_grid", "build_constants", "build_action"]


class ConfigError(Exception):
    """Invalid or malformed experiment configuration."""


_NUMBER = (int, float)
# Schema types of a number that must be greater than zero, or at least zero.
_POSITIVE = "positive number"
_NON_NEGATIVE = "non-negative number"


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"block '{where}' must be an object")
    return value


def _check(block: dict, where: str, required: dict, optional: dict) -> dict:
    """Validate key set and value types; fill defaults for optional keys."""
    allowed = set(required) | set(optional)
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in block '{where}'")
    out = {}
    for key, types in required.items():
        if key not in block:
            raise ConfigError(f"missing required key '{key}' in block '{where}'")
        out[key] = _typed(block[key], types, f"{where}.{key}")
    for key, (types, default) in optional.items():
        if key in block:
            out[key] = _typed(block[key], types, f"{where}.{key}")
        else:
            out[key] = default
    return out


def _typed(value, types, where: str):
    if types is None:  # validated by the caller
        return value
    if types is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"'{where}' must be a boolean")
        return value
    if types is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"'{where}' must be an integer")
        return value
    if types is float:
        if isinstance(value, bool) or not isinstance(value, _NUMBER):
            raise ConfigError(f"'{where}' must be a number")
        return float(value)
    if types is _POSITIVE:
        value = _typed(value, float, where)
        if value <= 0:
            raise ConfigError(f"'{where}' must be positive, got {value}")
        return value
    if types is _NON_NEGATIVE:
        value = _typed(value, float, where)
        if value < 0:
            raise ConfigError(f"'{where}' must be non-negative, got {value}")
        return value
    if types is str:
        if not isinstance(value, str):
            raise ConfigError(f"'{where}' must be a string")
        return value
    if types is list:
        if not isinstance(value, list):
            raise ConfigError(f"'{where}' must be a list")
        return value
    if types is dict:
        return _require_mapping(value, where)
    raise AssertionError(f"unhandled schema type {types}")


# Named built-ins: name -> (parameter schema, factory(params, mass)).
_POTENTIALS = {
    "zero": ({}, lambda p, mass: zero_potential()),
    "harmonic": ({"omega": (_POSITIVE, 1.0)}, lambda p, mass: harmonic_potential(mass, p["omega"])),
    "quartic": ({"strength": (float, 1.0)}, lambda p, mass: quartic_potential(p["strength"])),
    "cosine_well": (
        {"depth": (float, 1.0), "wavenumber": (_POSITIVE, 1.0)},
        lambda p, mass: cosine_well_potential(p["depth"], p["wavenumber"]),
    ),
}

_PHASES = {
    "zero": ({}, lambda p, mass: zero_phase()),
    "linear": ({"slope": (float, 1.0)}, lambda p, mass: linear_phase(p["slope"])),
    "quadratic": ({"curvature": (float, 1.0)}, lambda p, mass: quadratic_phase(p["curvature"])),
}

_FIELDS = {
    "zero": ({}, lambda p, mass: zero_field()),
    "bilinear": ({"strength": (float, 1.0)}, lambda p, mass: bilinear_field(p["strength"])),
    "sine": ({"strength": (float, 1.0)}, lambda p, mass: sine_field(p["strength"])),
}

# The registry each named sub-block of an action draws from.
_NAMED_BLOCKS = {"potential": _POTENTIALS, "phase": _PHASES, "a1": _FIELDS, "a2": _FIELDS}

# Action kinds: kind -> (required keys besides 'kind', factory(constants, parts)).
# ``parts`` is the validated action block with its named sub-blocks built.
_ACTIONS = {
    "standard": ({"potential": dict}, lambda c, a: StandardAction(c, a["potential"])),
    "gauged": ({"potential": dict, "phase": dict}, lambda c, a: GaugedAction(c, a["potential"], a["phase"])),
    "quartic": ({"potential": dict, "epsilon": float}, lambda c, a: QuarticAction(c, a["potential"], a["epsilon"])),
    "sine": ({"strength": _POSITIVE}, lambda c, a: SineAction(c, a["strength"])),
    "vector_potential_2d": (
        {"potential": dict, "a1": dict, "a2": dict},
        lambda c, a: VectorPotentialAction2D(c, a["potential"], a["a1"], a["a2"]),
    ),
}


def _finite_number(text: str) -> float:
    """JSON number hook: NaN, Infinity, -Infinity and overflowing literals are errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text} in config; numbers must be finite")
    return value


def _named_block(block, where: str, registry: dict) -> dict:
    block = _require_mapping(block, where)
    name = block.get("name")
    if not isinstance(name, str) or name not in registry:
        raise ConfigError(f"'{where}.name' must be one of {sorted(registry)}, got {name!r}")
    return _check(block, where, {"name": str}, registry[name][0])


def _validate_action(block, where: str) -> dict:
    block = _require_mapping(block, where)
    kind = block.get("kind")
    if not isinstance(kind, str) or kind not in _ACTIONS:
        raise ConfigError(f"'{where}.kind' must be one of {list(_ACTIONS)}, got {kind!r}")
    required = _ACTIONS[kind][0]
    out = _check(block, where, {"kind": str} | required, {})
    for key in required:
        if key in _NAMED_BLOCKS:
            out[key] = _named_block(block[key], f"{where}.{key}", _NAMED_BLOCKS[key])
    return out


def _validate_constants(block) -> dict:
    block = _require_mapping(block, "constants")
    out = _check(block, "constants", {"mass": _POSITIVE, "hbar": _POSITIVE}, {"tau": (None, None)})
    tau = block.get("tau")
    if tau is None:
        raise ConfigError("missing required key 'tau' in block 'constants'")
    if isinstance(tau, str):
        if tau != "magic":
            raise ConfigError(f"'constants.tau' must be a positive number or 'magic', got {tau!r}")
        out["tau"] = "magic"
    elif isinstance(tau, bool) or not isinstance(tau, _NUMBER):
        raise ConfigError("'constants.tau' must be a positive number or 'magic'")
    else:
        if tau <= 0:
            raise ConfigError(f"'constants.tau' must be positive, got {tau}")
        out["tau"] = float(tau)
    return out


_RUN_SCHEMAS = {
    "check-action": (
        {"domain": list, "expect": str},
        {
            "n_samples": (int, 1024),
            "tolerance": (_NON_NEGATIVE, 1e-8),
        },
    ),
    "evolve": (
        {"x0": float, "p0": float, "n_steps": int},
        {
            "alpha": (_POSITIVE, 1.0),
            "amplitude_mode": (str, "analytic"),
            "tracking_tolerance": (_NON_NEGATIVE, None),
            "norm_tolerance": (_NON_NEGATIVE, None),
        },
    ),
    "classical": (
        {"x0": float, "n_steps": int},
        {
            "x_minus1": (float, None),
            "p0": (float, None),
            "expect_status": (str, "complete"),
        },
    ),
    "sweep": (
        {"x0": float, "p0": float, "n_steps": int, "hbar_list": list},
        {"alpha": (_POSITIVE, 1.0)},
    ),
    "build": (
        {},
        {
            "amplitude_mode": (str, "analytic"),
            "max_unitarity_deviation": (_NON_NEGATIVE, None),
        },
    ),
}

# Which top-level blocks each command accepts; 'run' / 'constants' / 'action'
# are always required, 'output' always optional.
_GRID_USAGE = {
    "check-action": "forbidden",
    "evolve": "full",
    "classical": "forbidden",
    "sweep": "n_points_only",
    "build": "full",
}


def _validate_grid(block, usage: str):
    if usage == "full":
        out = _check(_require_mapping(block, "grid"), "grid", {"n_points": int, "x_min": float, "spacing": _POSITIVE}, {})
    elif usage == "n_points_only":
        out = _check(_require_mapping(block, "grid"), "grid", {"n_points": int}, {})
    else:
        raise AssertionError(usage)
    if out["n_points"] < 4:
        raise ConfigError(f"'grid.n_points' must be at least 4, got {out['n_points']}")
    return out


def _validate_run(block, command: str) -> dict:
    required, optional = _RUN_SCHEMAS[command]
    out = _check(_require_mapping(block, "run"), "run", required, optional)
    if command == "check-action":
        domain = out["domain"]
        if len(domain) != 2 or not all(isinstance(v, _NUMBER) and not isinstance(v, bool) for v in domain):
            raise ConfigError("'run.domain' must be a [lo, hi] pair of numbers")
        if not domain[1] > domain[0]:
            raise ConfigError(f"'run.domain' must satisfy lo < hi, got {domain}")
        out["domain"] = [float(domain[0]), float(domain[1])]
        if out["expect"] not in ("admissible", "inadmissible"):
            raise ConfigError(f"'run.expect' must be 'admissible' or 'inadmissible', got {out['expect']!r}")
        if out["n_samples"] < 16:
            raise ConfigError(f"'run.n_samples' must be at least 16, got {out['n_samples']}")
    if command == "evolve":
        if out["n_steps"] < 0:
            raise ConfigError(f"'run.n_steps' must be non-negative, got {out['n_steps']}")
        if out["amplitude_mode"] not in ("analytic", "calibrated"):
            raise ConfigError(f"'run.amplitude_mode' must be 'analytic' or 'calibrated', got {out['amplitude_mode']!r}")
    if command == "classical":
        if out["n_steps"] < 1:
            raise ConfigError(f"'run.n_steps' must be at least 1, got {out['n_steps']}")
        have = [k for k in ("x_minus1", "p0") if out[k] is not None]
        if len(have) != 1:
            raise ConfigError("'run' must set exactly one of 'x_minus1' or 'p0'")
        if out["expect_status"] not in ("complete", "no_solution", "non_unique"):
            raise ConfigError(
                f"'run.expect_status' must be 'complete', 'no_solution', or 'non_unique', got {out['expect_status']!r}"
            )
    if command == "sweep":
        hl = out["hbar_list"]
        if len(hl) < 3:
            raise ConfigError(f"'run.hbar_list' needs at least 3 values, got {len(hl)}")
        if not all(isinstance(v, _NUMBER) and not isinstance(v, bool) and v > 0 for v in hl):
            raise ConfigError("'run.hbar_list' must contain positive numbers")
        if not all(b < a for a, b in zip(hl, hl[1:])):
            raise ConfigError("'run.hbar_list' must be strictly descending")
        out["hbar_list"] = [float(v) for v in hl]
        if out["n_steps"] < 1:
            raise ConfigError(f"'run.n_steps' must be at least 1, got {out['n_steps']}")
    if command == "build":
        if out["amplitude_mode"] not in ("analytic", "calibrated"):
            raise ConfigError(f"'run.amplitude_mode' must be 'analytic' or 'calibrated', got {out['amplitude_mode']!r}")
    return out


def load_config(path: str, command: str) -> dict:
    """Read, parse, and validate one experiment configuration for a command."""
    if command not in _RUN_SCHEMAS:
        raise ConfigError(f"unknown command '{command}'")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top level of a config must be an object")

    grid_usage = _GRID_USAGE[command]
    expected = {"constants", "action", "run", "output"}
    if grid_usage != "forbidden":
        expected.add("grid")
    for key in raw:
        if key not in expected:
            if key == "grid":
                raise ConfigError(f"block 'grid' is not used by command '{command}'")
            raise ConfigError(f"unknown key '{key}' at top level")

    cfg: dict = {"command": command, "raw": raw}
    if grid_usage != "forbidden":
        if "grid" not in raw:
            raise ConfigError("missing required block 'grid'")
        cfg["grid"] = _validate_grid(raw["grid"], grid_usage)
    for block in ("constants", "action", "run"):
        if block not in raw:
            raise ConfigError(f"missing required block '{block}'")
    cfg["constants"] = _validate_constants(raw["constants"])
    cfg["action"] = _validate_action(raw["action"], "action")
    cfg["run"] = _validate_run(raw["run"], command)
    cfg["output"] = _check(
        _require_mapping(raw.get("output", {}), "output"),
        "output",
        {},
        {"directory": (str, "dtqm-out"), "formats": (list, ["csv", "json"])},
    )
    for fmt in cfg["output"]["formats"]:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"'output.formats' entries must be 'csv' or 'json', got {fmt!r}")

    if command == "sweep" and cfg["constants"]["tau"] == "magic":
        raise ConfigError("command 'sweep' needs a numeric 'constants.tau' (the grid is retuned per hbar)")
    if cfg["constants"]["tau"] == "magic":
        if grid_usage == "forbidden":
            raise ConfigError("'constants.tau' = 'magic' needs a grid block")
        # The step of a tiny or huge lattice can underflow to 0 or overflow.
        c = cfg["constants"]
        tau = magic_time_step(build_grid(cfg), c["mass"], c["hbar"])
        if not (math.isfinite(tau) and tau > 0):
            raise ConfigError(f"'constants.tau' = 'magic' resolves to {tau}, not a positive finite time step")
    if command != "check-action" and cfg["action"]["kind"] == "vector_potential_2d":
        raise ConfigError(f"command '{command}' drives 1D actions only")
    if (
        command in ("evolve", "build")
        and cfg["run"]["amplitude_mode"] == "analytic"
        and cfg["action"]["kind"] not in ("standard", "gauged")
    ):
        raise ConfigError("analytic amplitude mode needs a standard or gauged action; use 'calibrated'")
    # build reads the dense matrix for its unitarity defect (and for eigvals off
    # the Gauss-sum case); calibration always builds it.
    dense = command == "build" or (command == "evolve" and cfg["run"]["amplitude_mode"] == "calibrated")
    if dense and cfg["grid"]["n_points"] > MAX_POINTS_1D:
        raise ConfigError(f"dense 1D kernels are limited to {MAX_POINTS_1D} points, got {cfg['grid']['n_points']}")
    return cfg


def build_grid(cfg: dict) -> SpatialGrid:
    g = cfg["grid"]
    return make_grid(g["n_points"], g["x_min"], g["spacing"])


def build_constants(cfg: dict, grid: SpatialGrid | None, hbar_override: float | None = None) -> PhysicalConstants:
    c = cfg["constants"]
    hbar = c["hbar"] if hbar_override is None else hbar_override
    tau = c["tau"]
    # load_config accepts 'magic' only where the config has a grid.
    if tau == "magic":
        tau = magic_time_step(grid, c["mass"], hbar)
    return PhysicalConstants(c["mass"], tau, hbar)


def build_action(cfg: dict, constants: PhysicalConstants):
    a = cfg["action"]
    required, make_action = _ACTIONS[a["kind"]]
    parts = dict(a)
    for key in required:
        if key in _NAMED_BLOCKS:
            _, make_part = _NAMED_BLOCKS[key][a[key]["name"]]
            parts[key] = make_part(a[key], constants.mass)
    return make_action(constants, parts)
