"""A fuzz of the exit-code contract, drawn from the config schema's own tables.

Every draw is a config for one of the five commands: either valid (each
block drawn from its schema table, and accepted by ``load_config``), or one
such config with a single key mutated (a wrong type, an out-of-range value,
an unknown key or a missing key). Each one runs through ``cli.main``. The
exit code must be 0, 1, 2 or 3, never 4; it is 2 exactly when ``load_config``
rejects the config, and an exit 2 leaves no output directory; exits 2 and 3
print exactly one stderr line; no warning and no traceback reaches stderr; a
mutation that breaks the schema exits 2; an exit 0 or 1 writes a
``report.json`` that a strict JSON parser accepts; and some pinned draws
must give one exit code.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from test_cli import read_report

from dtqm import config
from dtqm.cli import main

# Sizes stay desk-scale whatever the draw.
SIZE_CAPS = {"n_points": 64, "n_steps": 20, "n_samples": 64}
# Magnitudes near the ends of double precision, where overflow and underflow live.
EXTREMES = [5e-324, 1e-300, 1e-150, 1e150, 1e300, 1.7976931348623157e308]
# One draw in this many takes an extreme magnitude instead of a moderate one.
EXTREME_ODDS = 8
# Schema-valid draws per valid config; the rules across blocks reject some.
MAX_TRIES = 5
# JSON values of each kind, for wrong-type mutations.
KINDS = {"null": None, "boolean": True, "number": 2.5, "string": "text", "list": [1.0], "object": {}}

PREFIX = {2: "config error: ", 3: "numerical failure: "}


# Moderate values and edge values per sign of a number type.
_MODERATE = {None: st.floats(-4.0, 4.0), "positive": st.floats(0.05, 4.0), "non-negative": st.floats(0.05, 4.0)}
_EDGES = {
    None: st.sampled_from(EXTREMES + [-v for v in EXTREMES] + [0.0]),
    "positive": st.sampled_from(EXTREMES),
    "non-negative": st.sampled_from(EXTREMES + [0.0]),
}
_ODDS = st.integers(1, EXTREME_ODDS)


def _number(draw, sign):
    return draw(_EDGES[sign] if draw(_ODDS) == 1 else _MODERATE[sign])


def _json_kinds(check) -> set:
    """The JSON kinds a schema type can accept."""
    if isinstance(check, config._Number):
        return {"number"}
    if isinstance(check, config._Integer):
        return set()  # 2.5 is a number but not an integer
    if check is config._time_step:
        return {"number", "string"}
    if check is config._string or isinstance(check, config._Enum):
        return {"string"}
    if check is config._interval or isinstance(check, (config._Descending, config._EnumList)):
        return {"list"}
    return {"object"}


def _out_of_range(check) -> list:
    """Values of the right JSON kind that the schema type rejects."""
    if isinstance(check, config._Number):
        below = {None: [], "positive": [0.0, -1.0, -1e-300], "non-negative": [-1.0, -1e-300]}[check.sign]
        return below + [math.nan, math.inf, -math.inf, 10**400]
    if isinstance(check, config._Integer):
        return [check.minimum - 1, check.minimum - 5, check.maximum + 1]
    if isinstance(check, config._Enum):
        return ["bogus"]
    if isinstance(check, config._EnumList):
        return [["bogus"], [check.choices[0], 7]]
    if check is config._interval:
        return [[1.0, 1.0], [2.0, -2.0], [0.0], [0.0, 1.0, 2.0], [0.0, "1"], [2**60, 2**60 + 1]]
    if isinstance(check, config._Descending):
        n = check.min_length
        negative_last = [float(n - k) for k in range(n - 1)] + [-1.0]
        collapsed = [2**60 + 1, 2**60] + [1.0] * (n - 2)  # integers that round to one float
        return [[1.0 + k for k in range(n)], [1.0] * n, [1.0] * (n - 1), negative_last, collapsed]
    if check is config._time_step:
        return [0.0, -1.0, "fast", math.inf]
    if isinstance(check, config._Named):
        return [{"name": "bogus"}]
    return []


def _value(draw, check, key: str, path: tuple, leaves: list):
    """A value the schema type accepts; records every leaf under it in ``leaves``."""
    if isinstance(check, config._Number):
        return _number(draw, check.sign)
    if isinstance(check, config._Integer):
        return draw(st.integers(check.minimum, max(check.minimum, SIZE_CAPS[key])))
    if isinstance(check, config._Enum):
        return draw(st.sampled_from(check.choices))
    if isinstance(check, config._EnumList):
        return [draw(st.sampled_from(check.choices)) for _ in range(draw(st.integers(0, 2)))]
    if check is config._interval:
        lo = _number(draw, None)
        return [lo, lo + _number(draw, "positive")]
    if isinstance(check, config._Descending):
        values = {_number(draw, "positive") for _ in range(check.min_length + draw(st.integers(0, 2)))}
        assume(len(values) >= check.min_length)
        return sorted(values, reverse=True)
    if check is config._time_step:
        return "magic" if draw(st.booleans()) else _number(draw, "positive")
    if check is config._string:
        return "unused"  # only output.directory, which --out overrides
    if isinstance(check, config._Named):
        name = draw(st.sampled_from(sorted(check.registry)))
        leaves.append((path + ("name",), config._Enum(tuple(check.registry)), True))
        return {"name": name} | _block(draw, {}, check.registry[name][0], path, leaves)
    raise AssertionError(f"no strategy for schema type {check!r}")


def _block(draw, required: dict, optional: dict, path: tuple, leaves: list) -> dict:
    """A block valid per its table: every required key, and each optional key or its default."""
    block = {}
    for key, check in required.items():
        leaves.append((path + (key,), check, True))
        block[key] = _value(draw, check, key, path + (key,), leaves)
    for key, (check, _default) in optional.items():
        if draw(st.booleans()):
            leaves.append((path + (key,), check, False))
            block[key] = _value(draw, check, key, path + (key,), leaves)
    return block


def schema_config(draw, command: str):
    """(raw config, leaves): each block valid per the schema tables of ``command``.

    ``leaves`` lists (path, schema type, required) for every key drawn. The
    rules across blocks are not consulted here.
    """
    leaves, raw = [], {}
    grid = config._GRID_USAGE[command]
    if grid is not None:
        leaves.append((("grid",), config._object, True))
        raw["grid"] = _block(draw, grid, {}, ("grid",), leaves)
    leaves.append((("constants",), config._object, True))
    raw["constants"] = _block(draw, config._CONSTANTS, {}, ("constants",), leaves)
    kind = draw(st.sampled_from(list(config._ACTIONS)))
    leaves += [(("action",), config._object, True), (("action", "kind"), config._Enum(tuple(config._ACTIONS)), True)]
    raw["action"] = {"kind": kind} | _block(draw, config._ACTIONS[kind][0], {}, ("action",), leaves)
    leaves.append((("run",), config._object, True))
    raw["run"] = _block(draw, *config._RUN_SCHEMAS[command], ("run",), leaves)
    if draw(st.booleans()):
        leaves.append((("output",), config._object, False))
        raw["output"] = _block(draw, {}, config._OUTPUT, ("output",), leaves)
    return raw, leaves


def _loads(command: str, raw: dict) -> bool:
    """Whether ``load_config`` accepts the config, rules across blocks included."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        try:
            config.load_config(path, command)
        except config.ConfigError:
            return False
    return True


def _get(raw: dict, path: tuple):
    for key in path:
        raw = raw[key]
    return raw


@st.composite
def cases(draw):
    """(command, raw config, the exit code it must give: 2 if the schema must reject it, else None).

    The base of every draw is a valid config, so a mutated one has exactly one fault.
    """
    command = draw(st.sampled_from(list(config._RUN_SCHEMAS)))
    for _ in range(MAX_TRIES):
        raw, leaves = schema_config(draw, command)
        if _loads(command, raw):
            break
    else:
        assume(False)
    # Half the draws stay valid; the other half mutate one key.
    mutation = draw(st.sampled_from([None] * 4 + ["wrong_type", "out_of_range", "unknown_key", "missing_key"]))
    if mutation is None:
        return command, raw, None
    if mutation == "unknown_key":
        blocks = [()] + [path for path, _, _ in leaves if isinstance(_get(raw, path), dict)]
        _get(raw, draw(st.sampled_from(blocks)))["unexpected"] = 1.0
        return command, raw, 2
    if mutation == "out_of_range":
        leaves = [leaf for leaf in leaves if _out_of_range(leaf[1])]
    path, check, required = draw(st.sampled_from(leaves))
    if mutation == "missing_key":
        del _get(raw, path[:-1])[path[-1]]
        return command, raw, 2 if required else None
    if mutation == "wrong_type":
        values = [value for kind, value in KINDS.items() if kind not in _json_kinds(check)]
    else:
        values = _out_of_range(check)
    _get(raw, path[:-1])[path[-1]] = draw(st.sampled_from(values))
    return command, raw, 2


def _run(command: str, raw: dict) -> tuple[int, str, list, bool]:
    """Exit code, stderr, warnings and whether the output directory exists after one ``dtqm`` call.

    After an exit 0 or 1 the report is parsed strictly (see test_cli.read_report).
    """
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([command, "--config", path, "--out", out])
        made_output = os.path.exists(out)
        if code in (0, 1):
            read_report(out)
    return code, err.getvalue(), [str(w.message) for w in caught], made_output


# The quartic probe one mutation away from a benchmark probe: each of these
# once printed numpy overflow warnings from the bracketing scan.
def _quartic_probe(**constants):
    return {
        "constants": {"mass": 1.0, "hbar": 1.0, "tau": 0.0563} | constants,
        "action": {"kind": "quartic", "potential": {"name": "zero"}, "epsilon": 0.0846},
        "run": {"x0": 1.36, "x_minus1": 1.40, "n_steps": 20},
    }


def _config(run, grid=None, action=None, **constants):
    raw = {
        "constants": {"mass": 1.0, "hbar": 1.0, "tau": 0.1} | constants,
        "action": action or {"kind": "standard", "potential": {"name": "zero"}},
        "run": run,
    }
    return raw if grid is None else {"grid": grid} | raw


def _grid(n_points, x_min=0.0, spacing=0.5):
    return {"n_points": n_points, "x_min": x_min, "spacing": spacing}


_BIG = 1.7976931348623157e308
_QUARTIC = {"kind": "quartic", "potential": {"name": "zero"}}
# Draws that once broke the contract: an exit 4 from a float ZeroDivisionError
# or OverflowError, or numpy warnings on stderr.
PINNED = {
    "zero_division_in_the_amplitude": ("build", _config({}, _grid(8), hbar=5e-324, tau=5e-324)),
    "overflow_in_the_kinetic_phase": (
        "build",
        _config({}, _grid(4, 0.0, 1e300), mass=5e-324, hbar=1e300, tau="magic"),
    ),
    "lattice_past_the_largest_float": ("build", _config({"amplitude_mode": "calibrated"}, _grid(8, 0.0, _BIG))),
    "calibrated_matrix_overflow": (
        "build",
        _config(
            {"amplitude_mode": "calibrated"}, _grid(21, 0.0, 1e300), {"kind": "sine", "strength": 4.0}, hbar=1e-300
        ),
    ),
    "packet_width_underflow": (
        "evolve",
        _config({"x0": 0.0, "p0": 0.0, "n_steps": 2, "alpha": 5e-324}, _grid(16, -4.0)),
    ),
    "probe_gradient_overflow": (
        "classical",
        _config({"x0": 0.0, "p0": -1e150, "n_steps": 1}, action=_QUARTIC | {"epsilon": 1e-150}),
    ),
    "sweep_spacing_underflow": (
        "sweep",
        _config({"x0": 0.0, "p0": 0.0, "n_steps": 1, "hbar_list": [1.0, 0.5, 5e-324]}, {"n_points": 16}),
    ),
    "sweep_spacing_overflow": (
        "sweep",
        _config(
            {"x0": 0.0, "p0": 0.0, "n_steps": 1, "hbar_list": [1e300, 0.5, 0.25]},
            {"n_points": 16},
            mass=1e300,
            tau=1e300,
        ),
    ),
    "criterion_overflow": (
        "check-action",
        _config({"domain": [-1.0, 1e300], "expect": "inadmissible"}, action=_QUARTIC | {"epsilon": 1e150}),
    ),
    "criterion_domain_past_the_largest_float": (
        "check-action",
        _config({"domain": [-1.0, _BIG], "expect": "admissible"}),
    ),
}
# Integers past 2**53 that round to one float, which once passed validation and
# exited 2 only after the output directory existed.
COLLAPSED = {
    "domain_of_one_float": ("check-action", _config({"domain": [2**60, 2**60 + 1], "expect": "admissible"})),
    "hbar_list_of_one_float": (
        "sweep",
        _config({"x0": 0.0, "p0": 0.0, "n_steps": 1, "hbar_list": [2**60 + 1, 2**60, 1.0]}, {"n_points": 16}),
    ),
}
# A sweep of a probe action, which once passed validation and then failed every run.
PROBE_SWEEP = (
    "sweep",
    _config(
        {"x0": 1.0, "p0": 0.0, "n_steps": 30, "hbar_list": [1.0, 0.5, 0.25]},
        {"n_points": 64},
        {"kind": "sine", "strength": 1.0},
    ),
)


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=cases())
@example(case=("classical", _quartic_probe(tau=1e-300), None))
@example(case=("classical", _quartic_probe(tau=1e150), None))
@example(case=("classical", _quartic_probe(mass=1e-300), None))
@example(case=(*PINNED["zero_division_in_the_amplitude"], None))
@example(case=(*PINNED["overflow_in_the_kinetic_phase"], None))
@example(case=(*PINNED["lattice_past_the_largest_float"], None))
@example(case=(*PINNED["calibrated_matrix_overflow"], None))
@example(case=(*PINNED["packet_width_underflow"], 3))
@example(case=(*PINNED["probe_gradient_overflow"], None))
@example(case=(*PINNED["sweep_spacing_underflow"], 1))
@example(case=(*PINNED["sweep_spacing_overflow"], None))
@example(case=(*PINNED["criterion_overflow"], None))
@example(case=(*PINNED["criterion_domain_past_the_largest_float"], None))
@example(case=(*COLLAPSED["domain_of_one_float"], 2))
@example(case=(*COLLAPSED["hbar_list_of_one_float"], 2))
@example(case=(*PROBE_SWEEP, 2))
def test_every_drawn_config_keeps_the_exit_code_contract(case):
    command, raw, expected = case
    code, err, caught, made_output = _run(command, raw)
    lines = err.splitlines()
    assert code in (0, 1, 2, 3), err
    # Only load_config decides a config error, and it does so before any output exists.
    assert (code == 2) == (not _loads(command, raw)), err
    assert code != 2 or not made_output, err
    assert caught == [], caught
    assert "Warning" not in err and "Traceback" not in err, err
    if code == 0:
        assert lines == []
    elif code == 1:
        assert lines and all(line.startswith("FAIL: ") for line in lines), err
    else:
        assert len(lines) == 1 and lines[0].startswith(PREFIX[code]), err
    if expected is not None:
        assert code == expected, err
