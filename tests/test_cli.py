"""End-to-end tests of the command-line driver: exit codes, outputs, determinism."""

import json
import math
import os
import warnings

import numpy as np
import pytest

from dtqm import CriterionError
from dtqm.cli import main


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return str(path)


def harmonic_evolve_config(outdir):
    return {
        "grid": {"n_points": 256, "x_min": -8.0, "spacing": 0.0625},
        "constants": {"mass": 1.0, "hbar": 1.0, "tau": "magic"},
        "action": {"kind": "standard", "potential": {"name": "harmonic", "omega": 1.0}},
        "run": {"x0": 0.5, "p0": 0.3, "n_steps": 50, "tracking_tolerance": 1e-3, "norm_tolerance": 1e-6},
        "output": {"directory": outdir},
    }


def _reject_constant(name):
    raise ValueError(f"report.json holds {name}, which strict JSON does not allow")


def read_report(outdir):
    """report.json, parsed strictly: NaN, Infinity and -Infinity are rejected."""
    with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def test_evolve_pass_and_csv_shape(tmp_path):
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path, "evolve.json", harmonic_evolve_config(out))
    assert main(["evolve", "--config", cfg]) == 0
    report = read_report(out)
    assert report["pass"] is True
    assert report["results"]["max_norm_drift"] < 1e-6
    lines = open(os.path.join(out, "evolve.csv"), encoding="utf-8").read().splitlines()
    assert lines[0].startswith("# dtqm-csv-v1")
    assert lines[1] == "step,x_mean,p_mean,x_spread,norm,x_classical,p_classical"
    assert len(lines) == 2 + 51  # header comment + column row + 51 records


def test_evolve_free_packet_100_steps(tmp_path):
    out = str(tmp_path / "out")
    cfg = write_config(
        tmp_path,
        "free.json",
        {
            "grid": {"n_points": 256, "x_min": -8.0, "spacing": 0.0625},
            "constants": {"mass": 1.0, "hbar": 1.0, "tau": "magic"},
            "action": {"kind": "standard", "potential": {"name": "zero"}},
            "run": {"x0": 0.0, "p0": 0.0, "n_steps": 100, "norm_tolerance": 1e-6},
            "output": {"directory": out},
        },
    )
    assert main(["evolve", "--config", cfg]) == 0
    lines = open(os.path.join(out, "evolve.csv"), encoding="utf-8").read().splitlines()
    assert len(lines) == 2 + 101
    norms = [float(line.split(",")[4]) for line in lines[2:]]
    assert max(abs(n - 1.0) for n in norms) < 1e-6


@pytest.mark.parametrize("n", [64, 63, 1024, 1023])
@pytest.mark.parametrize(
    "action, p0",
    [
        ({"kind": "standard", "potential": {"name": "zero"}}, 0.0),
        ({"kind": "gauged", "potential": {"name": "zero"}, "phase": {"name": "linear", "slope": 0.4}}, 0.4),
    ],
    ids=["standard", "gauged"],
)
def test_evolve_free_packet_revives_after_one_period(tmp_path, n, action, p0):
    # At tau* the free kernel is periodic: U^(2N) = I for even N and U^N = exp(-i pi/4) I
    # for odd N. After one period every observable is back where it started.
    out = str(tmp_path / "out")
    n_steps = 2 * n if n % 2 == 0 else n
    payload = {
        "grid": {"n_points": n, "x_min": -16.0, "spacing": 32.0 / n},
        "constants": {"mass": 1.0, "hbar": 1.0, "tau": "magic"},
        "action": action,
        "run": {"x0": -3.0, "p0": p0, "n_steps": n_steps},
        "output": {"directory": out},
    }
    assert main(["evolve", "--config", write_config(tmp_path, "revival.json", payload)]) == 0
    rows = np.loadtxt(os.path.join(out, "evolve.csv"), delimiter=",", skiprows=2)
    assert len(rows) == n_steps + 1
    # x_mean, p_mean, x_spread and norm; the bound was measured once and is never widened.
    assert np.max(np.abs(rows[-1, 1:5] - rows[0, 1:5])) <= 1e-13


def test_evolve_zero_steps_single_row(tmp_path):
    out = str(tmp_path / "out")
    payload = harmonic_evolve_config(out)
    payload["run"]["n_steps"] = 0
    cfg = write_config(tmp_path, "evolve0.json", payload)
    assert main(["evolve", "--config", cfg]) == 0
    lines = open(os.path.join(out, "evolve.csv"), encoding="utf-8").read().splitlines()
    assert len(lines) == 3


def test_outputs_are_deterministic(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    cfg = write_config(tmp_path, "evolve.json", harmonic_evolve_config("unused"))
    assert main(["evolve", "--config", cfg, "--out", out_a]) == 0
    assert main(["evolve", "--config", cfg, "--out", out_b]) == 0
    csv_a = open(os.path.join(out_a, "evolve.csv"), "rb").read()
    csv_b = open(os.path.join(out_b, "evolve.csv"), "rb").read()
    assert csv_a == csv_b
    rep_a = read_report(out_a)
    rep_b = read_report(out_b)
    rep_a.pop("wall_time_s")
    rep_b.pop("wall_time_s")
    assert json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)


def test_unknown_key_is_config_error_with_key_name(tmp_path, capsys):
    payload = harmonic_evolve_config("out")
    payload["run"]["typo_key"] = 1
    cfg = write_config(tmp_path, "bad.json", payload)
    assert main(["evolve", "--config", cfg]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_unhashable_builtin_name_is_config_error(tmp_path, capsys):
    payload = harmonic_evolve_config("out")
    payload["action"]["potential"]["name"] = ["harmonic"]
    cfg = write_config(tmp_path, "listname.json", payload)
    assert main(["evolve", "--config", cfg]) == 2
    assert "'action.potential.name' must be one of" in capsys.readouterr().err


@pytest.mark.parametrize(
    "action, where, value",
    [
        ({"kind": "standard", "potential": {"name": "harmonic", "omega": -1.0}}, "action.potential.omega", -1.0),
        (
            {"kind": "standard", "potential": {"name": "cosine_well", "depth": 1.0, "wavenumber": 0.0}},
            "action.potential.wavenumber",
            0.0,
        ),
        ({"kind": "sine", "strength": -1.0}, "action.strength", -1.0),
    ],
    ids=["harmonic_omega", "cosine_well_wavenumber", "sine_strength"],
)
def test_non_positive_builtin_parameter_is_config_error(tmp_path, capsys, action, where, value):
    out = tmp_path / "out"
    payload = harmonic_evolve_config(str(out))
    payload["action"] = action
    assert main(["evolve", "--config", write_config(tmp_path, "bad.json", payload)]) == 2
    assert capsys.readouterr().err == f"config error: '{where}' must be positive, got {value}\n"
    # Rejected while validating, before the output directory exists.
    assert not out.exists()


def test_missing_and_invalid_config_files(tmp_path):
    assert main(["evolve", "--config", str(tmp_path / "absent.json")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert main(["evolve", "--config", str(broken)]) == 2


def test_check_action_admissible_and_probe(tmp_path):
    out = str(tmp_path / "out")
    ok = write_config(
        tmp_path,
        "ok.json",
        {
            "constants": {"mass": 1.0, "hbar": 1.0, "tau": 0.5},
            "action": {"kind": "standard", "potential": {"name": "harmonic", "omega": 1.0}},
            "run": {"domain": [-2.0, 2.0], "expect": "admissible"},
            "output": {"directory": out},
        },
    )
    assert main(["check-action", "--config", ok]) == 0
    report = read_report(out)
    assert report["results"]["criterion"]["is_constant"] is True

    probe = write_config(
        tmp_path,
        "probe.json",
        {
            "constants": {"mass": 1.0, "hbar": 1.0, "tau": 0.5},
            "action": {"kind": "quartic", "potential": {"name": "zero"}, "epsilon": 0.1},
            "run": {"domain": [-0.5, 0.5], "expect": "inadmissible"},
            "output": {"directory": out},
        },
    )
    assert main(["check-action", "--config", probe]) == 0

    # A quartic probe with S scaled by 1e-20: det(d2S/dxdy) runs from -1.0e-19
    # to -2.8e-19, and its spread relative to the mean is what it is at scale 1.
    tiny = write_config(
        tmp_path,
        "tiny.json",
        {
            "constants": {"mass": 1e-20, "hbar": 1.0, "tau": 0.1},
            "action": {"kind": "quartic", "potential": {"name": "zero"}, "epsilon": 1e-21},
            "run": {"domain": [-2.0, 2.0], "expect": "inadmissible"},
            "output": {"directory": out},
        },
    )
    assert main(["check-action", "--config", tiny]) == 0
    assert read_report(out)["results"]["criterion"]["relative_spread"] == pytest.approx(1.365, abs=1e-3)

    mismatch = write_config(
        tmp_path,
        "mismatch.json",
        {
            "constants": {"mass": 1.0, "hbar": 1.0, "tau": 0.5},
            "action": {"kind": "standard", "potential": {"name": "zero"}},
            "run": {"domain": [-2.0, 2.0], "expect": "inadmissible"},
            "output": {"directory": out},
        },
    )
    assert main(["check-action", "--config", mismatch]) == 1


def test_check_action_vector_potential_reports_linearized_trace(tmp_path):
    out = str(tmp_path / "out")
    cfg = write_config(
        tmp_path,
        "vp.json",
        {
            "constants": {"mass": 1.0, "hbar": 1.0, "tau": 0.5},
            "action": {
                "kind": "vector_potential_2d",
                "potential": {"name": "zero"},
                "a1": {"name": "sine", "strength": 0.5},
                "a2": {"name": "bilinear", "strength": 0.3},
            },
            "run": {"domain": [-1.0, 1.0], "expect": "inadmissible", "n_samples": 1296},
            "output": {"directory": out},
        },
    )
    assert main(["check-action", "--config", cfg]) == 0
    report = read_report(out)
    assert report["results"]["criterion"]["trace_linearized"] == 0.0
    assert "linearized_max_trace" not in report["results"]


def test_classical_harmonic_and_sine_probe(tmp_path):
    out = str(tmp_path / "out")
    harmonic = write_config(
        tmp_path,
        "harm.json",
        {
            "constants": {"mass": 1.0, "hbar": 1.0, "tau": 0.1},
            "action": {"kind": "standard", "potential": {"name": "harmonic", "omega": 1.0}},
            "run": {"x0": 1.0, "x_minus1": 1.0, "n_steps": 1000},
            "output": {"directory": out},
        },
    )
    assert main(["classical", "--config", harmonic]) == 0
    report = read_report(out)
    assert report["results"]["status"] == "complete"
    assert report["results"]["max_residual"] < 1e-9
    lines = open(os.path.join(out, "classical.csv"), encoding="utf-8").read().splitlines()
    assert lines[1] == "step,x,p,residual"
    assert len(lines) == 2 + 1001

    sine = write_config(
        tmp_path,
        "sine.json",
        {
            "constants": {"mass": 1.0, "hbar": 1.0, "tau": 0.01},
            "action": {"kind": "sine", "strength": 1.0},
            "run": {"x0": 1.45, "x_minus1": 1.4, "n_steps": 50, "expect_status": "no_solution"},
            "output": {"directory": out},
        },
    )
    assert main(["classical", "--config", sine]) == 0
    assert read_report(out)["results"]["status"] == "no_solution_at(1)"

    surprise = write_config(
        tmp_path,
        "surprise.json",
        {
            "constants": {"mass": 1.0, "hbar": 1.0, "tau": 0.01},
            "action": {"kind": "sine", "strength": 1.0},
            "run": {"x0": 1.45, "x_minus1": 1.4, "n_steps": 50},
            "output": {"directory": out},
        },
    )
    assert main(["classical", "--config", surprise]) == 1


def test_gauged_classical_run_writes_the_standard_positions(tmp_path):
    potential = {"name": "cosine_well", "depth": 2.0, "wavenumber": 0.35}
    columns = {}
    for kind, extra in (("standard", {}), ("gauged", {"phase": {"name": "quadratic", "curvature": 0.3}})):
        out = str(tmp_path / kind)
        payload = {
            "constants": {"mass": 1.0, "hbar": 1.0, "tau": 0.1},
            "action": {"kind": kind, "potential": potential, **extra},
            "run": {"x0": 1.0, "x_minus1": 0.97, "n_steps": 200},
            "output": {"directory": out},
        }
        assert main(["classical", "--config", write_config(tmp_path, f"{kind}.json", payload)]) == 0
        rows = open(os.path.join(out, "classical.csv"), encoding="utf-8").read().splitlines()[2:]
        columns[kind] = list(zip(*(row.split(",") for row in rows)))
    # The gauge term leaves the positions alone; phi' = 0.6 x enters the momenta.
    assert columns["gauged"][1] == columns["standard"][1]
    x = np.array(columns["standard"][1], dtype=float)
    p_shift = np.array(columns["gauged"][2], dtype=float) - np.array(columns["standard"][2], dtype=float)
    np.testing.assert_allclose(p_shift, 0.6 * x, rtol=1e-12, atol=1e-12)


def test_classical_seed_requires_exactly_one_of_two_keys(tmp_path):
    base = {
        "constants": {"mass": 1.0, "hbar": 1.0, "tau": 0.1},
        "action": {"kind": "standard", "potential": {"name": "zero"}},
        "run": {"x0": 1.0, "n_steps": 10},
        "output": {"directory": "out"},
    }
    cfg = write_config(tmp_path, "noseed.json", base)
    assert main(["classical", "--config", cfg]) == 2
    both = json.loads(json.dumps(base))
    both["run"]["x_minus1"] = 0.9
    both["run"]["p0"] = 0.5
    cfg = write_config(tmp_path, "both.json", both)
    assert main(["classical", "--config", cfg]) == 2


def sweep_config(outdir, hbar_list):
    return {
        "grid": {"n_points": 256},
        "constants": {"mass": 1.0, "hbar": 1.0, "tau": 0.1},
        "action": {"kind": "standard", "potential": {"name": "quartic", "strength": 0.1}},
        "run": {"x0": 1.0, "p0": 0.0, "n_steps": 30, "hbar_list": hbar_list},
        "output": {"directory": outdir},
    }


def test_sweep_monotone_pass(tmp_path):
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path, "sweep.json", sweep_config(out, [1.0, 0.5, 0.25, 0.125]))
    assert main(["sweep", "--config", cfg]) == 0
    report = read_report(out)
    assert report["results"]["sweep"]["monotone_flag"] is True
    devs = report["results"]["sweep"]["max_deviation"]
    assert all(b <= a + 1e-6 for a, b in zip(devs, devs[1:]))
    assert os.path.exists(os.path.join(out, "sweep_finest.csv"))


def test_sweep_of_growing_small_deviations_fails(tmp_path, capsys):
    # Harmonic deviations of 8e-13, 4e-11 and 7e-9 grow as hbar shrinks; the
    # slack is relative to the largest, so their small size does not hide that.
    out = str(tmp_path / "out")
    payload = sweep_config(out, [1.0, 0.5, 0.25])
    payload["action"]["potential"] = {"name": "harmonic", "omega": 1.0}
    cfg = write_config(tmp_path, "sweep.json", payload)
    assert main(["sweep", "--config", cfg]) == 1
    sweep = read_report(out)["results"]["sweep"]
    assert sweep["errors"] == {} and sweep["monotone_flag"] is False
    assert capsys.readouterr().err.startswith("FAIL: deviation sequence is not non-increasing in hbar")


def test_sweep_spacing_underflow_is_a_per_hbar_failure(tmp_path, capsys):
    # The retuned spacing for hbar = 5e-324 underflows to 0: that run fails, the others report.
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path, "sweep.json", sweep_config(out, [1.0, 0.5, 5e-324]))
    assert main(["sweep", "--config", cfg]) == 1
    sweep = read_report(out)["results"]["sweep"]
    assert sweep["errors"] == {"5e-324": "ValueError: spacing must be positive, got 0.0"}
    assert all(math.isfinite(d) for d in sweep["max_deviation"][:2]) and sweep["max_deviation"][2] is None
    # The failed run's own line says why the sweep fails; no monotonicity line follows.
    assert capsys.readouterr().err == "FAIL: hbar=5e-324: ValueError: spacing must be positive, got 0.0\n"
    # sweep_finest.csv is the smallest hbar's run; that run failed, so there is none.
    assert not os.path.exists(os.path.join(out, "sweep_finest.csv"))


def test_a_sweep_whose_runs_all_fail_writes_strict_json(tmp_path, capsys):
    # Every packet reaches the box edge: the report holds null, never NaN, for each failed run.
    out = str(tmp_path / "out")
    payload = sweep_config(out, [1.0, 0.5, 0.05])
    payload["grid"]["n_points"] = 64
    payload["action"]["potential"] = {"name": "harmonic", "omega": 1.0}
    payload["run"]["x0"] = 2.0
    assert main(["sweep", "--config", write_config(tmp_path, "sweep.json", payload)]) == 1
    sweep = read_report(out)["results"]["sweep"]
    assert sweep["max_deviation"] == [None, None, None] and sweep["monotone_flag"] is False
    assert sorted(sweep["errors"]) == ["0.05", "0.5", "1.0"]
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 3 and all(line.startswith("FAIL: hbar=") for line in lines)


def test_sweep_short_hbar_list_is_config_error(tmp_path):
    cfg = write_config(tmp_path, "sweep2.json", sweep_config("out", [1.0, 0.5]))
    assert main(["sweep", "--config", cfg]) == 2


def test_sweep_rejects_magic_tau(tmp_path):
    payload = sweep_config("out", [1.0, 0.5, 0.25])
    payload["constants"]["tau"] = "magic"
    cfg = write_config(tmp_path, "sweepmagic.json", payload)
    assert main(["sweep", "--config", cfg]) == 2


def test_sweep_rejects_2d_action(tmp_path, capsys):
    payload = sweep_config("out", [1.0, 0.5, 0.25])
    payload["action"] = {
        "kind": "vector_potential_2d",
        "potential": {"name": "zero"},
        "a1": {"name": "bilinear", "strength": 0.1},
        "a2": {"name": "zero"},
    }
    cfg = write_config(tmp_path, "sweep2d.json", payload)
    assert main(["sweep", "--config", cfg]) == 2
    assert "drives 1D actions only" in capsys.readouterr().err


@pytest.mark.parametrize(
    "action",
    [{"kind": "quartic", "potential": {"name": "zero"}, "epsilon": 0.01}, {"kind": "sine", "strength": 1.0}],
)
def test_sweep_of_a_probe_action_is_config_error(tmp_path, capsys, action):
    out = tmp_path / "out"
    payload = sweep_config(str(out), [1.0, 0.5, 0.25]) | {"action": action}
    assert main(["sweep", "--config", write_config(tmp_path, "sweep.json", payload)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: command 'sweep' needs a standard or gauged action (its kernels use the analytic amplitude)"
    ]
    assert not out.exists()


def test_unwritable_output_is_config_error(tmp_path, capsys):
    # An existing file where the output directory should go: exit 2, one line, no traceback.
    blocker = tmp_path / "taken"
    blocker.write_text("", encoding="utf-8")
    cfg = write_config(tmp_path, "sweep.json", sweep_config(str(blocker), [1.0, 0.5, 0.25]))
    assert main(["sweep", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output")
    assert err.count("\n") == 1 and "Traceback" not in err
    # A directory where a data file should go fails the same way.
    out = tmp_path / "out"
    (out / "sweep_finest.csv").mkdir(parents=True)
    cfg = write_config(tmp_path, "sweep.json", sweep_config(str(out), [1.0, 0.5, 0.25]))
    assert main(["sweep", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot write output")


# Integers past 2**53 that round to one float: load_config compares them as the floats it returns.
_COLLAPSED_DOMAIN = {"domain": [2**60, 2**60 + 1], "expect": "admissible"}
_COLLAPSED_HBARS = {"x0": 0.0, "p0": 0.0, "n_steps": 1, "hbar_list": [2**60 + 1, 2**60, 1.0]}


def _write_bytes(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize(
    "command, make_config, message",
    [
        (
            "check-action",
            lambda tmp, out: write_config(tmp, "c.json", _check_action_config(out) | {"run": _COLLAPSED_DOMAIN}),
            "'run.domain' must satisfy lo < hi, got [1.152921504606847e+18, 1.152921504606847e+18]",
        ),
        (
            "sweep",
            lambda tmp, out: write_config(tmp, "s.json", sweep_config(out, []) | {"run": _COLLAPSED_HBARS}),
            "'run.hbar_list' must be strictly descending",
        ),
        ("evolve", lambda tmp, out: _write_bytes(tmp, b'{"grid": "\xff"}'), "can't decode byte 0xff"),
        ("evolve", lambda tmp, out: str(tmp / "config\0.json"), "embedded null byte"),
        ("evolve", lambda tmp, out: str(tmp / "config\ud800.json"), "surrogates not allowed"),
        ("evolve", lambda tmp, out: _write_bytes(tmp, b"[" * 100_000), "maximum recursion depth exceeded"),
    ],
    ids=[
        "collapsed_domain",
        "collapsed_hbar_list",
        "not_utf8",
        "nul_in_config_path",
        "surrogate_in_config_path",
        "nested_too_deeply",
    ],
)
def test_every_config_fault_is_a_config_error_before_any_output(tmp_path, capsys, command, make_config, message):
    out = tmp_path / "out"
    assert main([command, "--config", make_config(tmp_path, str(out))]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ") and message in lines[0], lines
    assert not out.exists()


@pytest.mark.parametrize("name", ["out\0put", "out\ud800put"], ids=["nul", "lone_surrogate"])
@pytest.mark.parametrize("via", ["--out", "output.directory"])
def test_output_directory_no_file_can_have_is_a_config_error(tmp_path, capsys, name, via):
    outdir = str(tmp_path / name)
    payload = _check_action_config(outdir if via == "output.directory" else str(tmp_path / "unused"))
    argv = ["check-action", "--config", write_config(tmp_path, "check.json", payload)]
    assert main(argv + (["--out", outdir] if via == "--out" else [])) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: cannot write output: [Errno 22] "), lines
    assert os.listdir(tmp_path) == ["check.json"]


def test_value_error_after_validation_is_numerical_failure(tmp_path, capsys, monkeypatch):
    import dtqm.cli

    def broken(*args, **kwargs):
        raise ValueError("degenerate domain [1.0, 1.0]")

    monkeypatch.setattr(dtqm.cli, "check_criterion", broken)
    cfg = write_config(tmp_path, "check.json", _check_action_config(str(tmp_path / "out")))
    assert main(["check-action", "--config", cfg]) == 3
    assert capsys.readouterr().err == "numerical failure: degenerate domain [1.0, 1.0]\n"


def test_boundary_and_criterion_errors_are_numerical_errors():
    from dtqm import BoundaryError, NumericalError
    from dtqm.classical import NUMERICAL_FAILURES

    for error in (BoundaryError(3, "edge"), CriterionError("sampling")):
        assert isinstance(error, NumericalError) and isinstance(error, NUMERICAL_FAILURES)
    assert issubclass(np.linalg.LinAlgError, NUMERICAL_FAILURES)
    assert issubclass(ZeroDivisionError, NUMERICAL_FAILURES) and issubclass(OverflowError, NUMERICAL_FAILURES)


def test_build_reports_kernel_diagnostics(tmp_path):
    out = str(tmp_path / "out")
    cfg = write_config(
        tmp_path,
        "build.json",
        {
            "grid": {"n_points": 128, "x_min": -8.0, "spacing": 0.125},
            "constants": {"mass": 1.0, "hbar": 1.0, "tau": "magic"},
            "action": {"kind": "standard", "potential": {"name": "zero"}},
            "run": {"max_unitarity_deviation": 1e-8},
            "output": {"directory": out},
        },
    )
    assert main(["build", "--config", cfg]) == 0
    report = read_report(out)
    assert "calibration" not in report["results"]
    assert report["results"]["unitarity_deviation"] < 1e-8
    assert report["results"]["tau"] == pytest.approx(report["results"]["magic_tau"])
    # unitary kernel: every eigenvalue sits on the unit circle
    assert report["results"]["eig_magnitude_min"] == pytest.approx(1.0, abs=1e-10)
    assert report["results"]["eig_magnitude_max"] == pytest.approx(1.0, abs=1e-10)


def test_build_probe_kernel_fails_tolerance(tmp_path):
    out = str(tmp_path / "out")
    cfg = write_config(
        tmp_path,
        "buildprobe.json",
        {
            "grid": {"n_points": 128, "x_min": -8.0, "spacing": 0.125},
            "constants": {"mass": 1.0, "hbar": 1.0, "tau": "magic"},
            "action": {"kind": "quartic", "potential": {"name": "zero"}, "epsilon": 0.1},
            "run": {"amplitude_mode": "calibrated", "max_unitarity_deviation": 1e-3},
            "output": {"directory": out},
        },
    )
    assert main(["build", "--config", cfg]) == 1
    results = read_report(out)["results"]
    assert results["unitarity_deviation"] > 1e-3
    # The probe's off-diagonal row sum exceeds N, so the bracket's lower edge is taken.
    assert results["calibration"]["offdiag_row_sum"] > 128
    assert results["calibration"]["at_bracket_edge"] is True


@pytest.mark.parametrize(
    "action, tau",
    [
        ({"kind": "quartic", "potential": {"name": "zero"}, "epsilon": 0.1}, "magic"),
        ({"kind": "sine", "strength": 1.0}, "magic"),
        ({"kind": "standard", "potential": {"name": "harmonic", "omega": 1.0}}, 0.93 / math.pi),
        ({"kind": "gauged", "potential": {"name": "zero"}, "phase": {"name": "quadratic", "curvature": 0.3}}, 1.7 / math.pi),
    ],
)
def test_a_calibrated_build_report_explains_its_defect(tmp_path, action, tau):
    # README: the deviation is |s N - 1| + s r, with s = (w |A|)^2 and r the
    # calibration's off-diagonal row sum; all of it is read from report.json.
    out = str(tmp_path / "out")
    payload = {
        "grid": {"n_points": 128, "x_min": -8.0, "spacing": 0.125},
        "constants": {"mass": 1.0, "hbar": 1.0, "tau": tau},
        "action": action,
        "run": {"amplitude_mode": "calibrated"},
        "output": {"directory": out},
    }
    assert main(["build", "--config", write_config(tmp_path, "build.json", payload)]) == 0
    results = read_report(out)["results"]
    assert results["kernel"]["gcd_q_n"] is None
    s = (results["spacing"] * results["amplitude_magnitude"]) ** 2
    explained = abs(s * results["n_points"] - 1.0) + s * results["calibration"]["offdiag_row_sum"]
    deviation = results["unitarity_deviation"]
    assert abs(deviation - explained) <= 4 * np.finfo(float).eps * max(1.0, deviation)


def test_build_analytic_mode_rejects_probe_kind(tmp_path):
    out = tmp_path / "out"
    payload = {
        "grid": {"n_points": 128, "x_min": -8.0, "spacing": 0.125},
        "constants": {"mass": 1.0, "hbar": 1.0, "tau": "magic"},
        "action": {"kind": "sine", "strength": 1.0},
        "run": {},
        "output": {"directory": str(out)},
    }
    cfg = write_config(tmp_path, "badmode.json", payload)
    assert main(["build", "--config", cfg]) == 2
    payload["run"] = {"x0": 0.0, "p0": 0.0, "n_steps": 5}
    cfg = write_config(tmp_path, "badmode_evolve.json", payload)
    assert main(["evolve", "--config", cfg]) == 2
    # Rejected while validating, before the output directory exists.
    assert not out.exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_number_is_config_error(tmp_path, capsys, literal):
    # Seeded by p0, a NaN omega would otherwise surface as a failed momentum inversion (exit 3).
    payload = {
        "constants": {"mass": 1.0, "hbar": 1.0, "tau": 0.1},
        "action": {"kind": "standard", "potential": {"name": "harmonic", "omega": "OMEGA"}},
        "run": {"x0": 0.5, "p0": 0.3, "n_steps": 5},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(payload).replace('"OMEGA"', literal), encoding="utf-8")
    assert main(["classical", "--config", str(path)]) == 2
    assert f"non-finite number {literal}" in capsys.readouterr().err


def test_output_formats_restrict_data_outputs(tmp_path):
    # output.formats is the one switch: report.json is written whatever it lists.
    for formats, files in (([], ["report.json"]), (["csv"], ["evolve.csv", "report.json"])):
        payload = harmonic_evolve_config(str(tmp_path / "-".join(["out", *formats])))
        payload["output"]["formats"] = formats
        assert main(["evolve", "--config", write_config(tmp_path, "evolve.json", payload)]) == 0
        assert sorted(os.listdir(payload["output"]["directory"])) == files
        assert read_report(payload["output"]["directory"])["config"]["output"]["formats"] == formats


def test_boundary_violation_is_numerical_failure(tmp_path, capsys):
    payload = harmonic_evolve_config(str(tmp_path / "out"))
    payload["action"] = {"kind": "standard", "potential": {"name": "zero"}}
    payload["run"] = {"x0": 0.0, "p0": 1.0, "n_steps": 200}
    cfg = write_config(tmp_path, "wall.json", payload)
    assert main(["evolve", "--config", cfg]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_evolve_reports_packet_warnings(tmp_path):
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path, "evolve.json", harmonic_evolve_config(out))
    assert main(["evolve", "--config", cfg]) == 0
    assert read_report(out)["results"]["packet_warnings"] == []
    # sigma = 0.1 sqrt(1/2) is below the resolvable limit 2 dx = 0.125.
    payload = harmonic_evolve_config(out)
    payload["run"] = {"x0": 0.5, "p0": 0.3, "n_steps": 5, "alpha": 0.1}
    cfg = write_config(tmp_path, "narrow.json", payload)
    assert main(["evolve", "--config", cfg]) == 0
    report = read_report(out)
    assert report["results"]["packet_warnings"] == ["width 0.07071 below resolvable limit 0.125"]


@pytest.mark.parametrize(
    "command, run",
    [
        ("build", {"max_unitarity_deviation": 1e-8}),
        ("build", {"amplitude_mode": "calibrated"}),
        ("evolve", {"x0": 0.0, "p0": 0.0, "n_steps": 5}),
    ],
)
def test_non_finite_kernel_phase_is_numerical_failure(tmp_path, capsys, command, run):
    # V = 1e305 x^4 overflows on the grid, so the kernel phase is NaN there.
    out = tmp_path / "out"
    payload = {
        "grid": {"n_points": 64, "x_min": -8.0, "spacing": 0.25},
        "constants": {"mass": 1.0, "hbar": 1.0, "tau": "magic"},
        "action": {"kind": "standard", "potential": {"name": "quartic", "strength": 1e305}},
        "run": run,
        "output": {"directory": str(out)},
    }
    cfg = write_config(tmp_path, f"{command}_overflow.json", payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would be a second stderr line
        assert main([command, "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "report.json").exists()


def test_unnormalizable_packet_is_one_numerical_failure_line(tmp_path, capsys):
    # alpha = 5e-324 makes the packet width underflow to 0, so make_gaussian cannot normalize it.
    out = str(tmp_path / "out")
    payload = harmonic_evolve_config(out)
    payload["run"] = {"x0": 0.5, "p0": 0.3, "n_steps": 5, "alpha": 5e-324}
    cfg = write_config(tmp_path, "evolve.json", payload)
    assert main(["evolve", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: Gaussian packet cannot be normalized")
    assert err.count("\n") == 1
    # In a sweep the same packet fails each run, not the sweep.
    sweep = sweep_config(out, [1.0, 0.5, 0.25])
    sweep["run"]["alpha"] = 5e-324
    cfg = write_config(tmp_path, "sweep.json", sweep)
    assert main(["sweep", "--config", cfg]) == 1
    errors = read_report(out)["results"]["sweep"]["errors"]
    assert sorted(errors) == ["0.25", "0.5", "1.0"]
    assert all(e.startswith("FloatingPointError: Gaussian packet cannot be normalized") for e in errors.values())


@pytest.mark.parametrize(
    "mass, potential",
    [(1.0, {"name": "quartic", "strength": -1.0}), (1e300, {"name": "harmonic", "omega": 1.0})],
    ids=["runaway_quartic", "huge_mass"],
)
def test_classical_overflow_is_one_numerical_failure_line(tmp_path, capsys, mass, potential):
    # The closed-form classical track overflows: in the step, and in the momentum inversion.
    payload = harmonic_evolve_config(str(tmp_path / "out"))
    payload["constants"]["mass"] = mass
    payload["action"]["potential"] = potential
    payload["run"] = {"x0": 0.5, "p0": 0.3, "n_steps": 20}
    cfg = write_config(tmp_path, "overflow.json", payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would be a second stderr line
        assert main(["evolve", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "not finite" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def _build_config(outdir):
    return {
        "grid": {"n_points": 128, "x_min": -8.0, "spacing": 0.125},
        "constants": {"mass": 1.0, "hbar": 1.0, "tau": "magic"},
        "action": {"kind": "standard", "potential": {"name": "zero"}},
        "run": {},
        "output": {"directory": outdir},
    }


@pytest.mark.parametrize(
    "command, key",
    [
        ("evolve", "tracking_tolerance"),
        ("evolve", "norm_tolerance"),
        ("build", "max_unitarity_deviation"),
        ("check-action", "tolerance"),
    ],
)
def test_negative_tolerance_is_config_error(tmp_path, capsys, command, key):
    out = tmp_path / "out"
    make = {"evolve": harmonic_evolve_config, "build": _build_config, "check-action": _check_action_config}[command]
    payload = make(str(out))
    payload["run"][key] = -1.0
    assert main([command, "--config", write_config(tmp_path, "negative.json", payload)]) == 2
    assert capsys.readouterr().err == f"config error: 'run.{key}' must be non-negative, got -1.0\n"
    # Rejected while validating, before the output directory exists.
    assert not out.exists()
    payload["run"][key] = 0.0
    assert main([command, "--config", write_config(tmp_path, "zero.json", payload)]) in (0, 1)


@pytest.mark.parametrize(
    "command, block, key, limit",
    [
        ("classical", "run", "n_steps", 1_000_000),
        ("evolve", "run", "n_steps", 1_000_000),
        ("evolve", "grid", "n_points", 2**22),
        ("check-action", "run", "n_samples", 1_000_000),
    ],
)
def test_integer_past_its_limit_is_config_error(tmp_path, capsys, command, block, key, limit):
    from dtqm.config import load_config

    out = tmp_path / "out"
    payload = harmonic_evolve_config(str(out)) if command == "evolve" else _check_action_config(str(out))
    if command == "classical":
        payload["run"] = {"x0": 0.5, "x_minus1": 0.4, "n_steps": 5}
    for value in (10**30, limit + 1):
        payload[block][key] = value
        assert main([command, "--config", write_config(tmp_path, "big.json", payload)]) == 2
        assert capsys.readouterr().err == f"config error: '{block}.{key}' must be at most {limit}, got {value}\n"
    assert not out.exists()
    payload[block][key] = limit
    assert load_config(write_config(tmp_path, "limit.json", payload), command)[block][key] == limit


@pytest.mark.parametrize("command", ["evolve", "build"])
def test_magic_step_that_underflows_is_config_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    payload = harmonic_evolve_config(str(out)) if command == "evolve" else _build_config(str(out))
    payload["grid"]["spacing"] = 1e-300
    assert main([command, "--config", write_config(tmp_path, "tiny.json", payload)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: 'constants.tau' = 'magic' resolves to 0.0, not a positive finite time step\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["check-action", "classical"])
def test_magic_step_without_a_grid_is_config_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    payload = _check_action_config(str(out))
    if command == "classical":
        payload["run"] = {"x0": 0.5, "x_minus1": 0.4, "n_steps": 5}
    payload["constants"]["tau"] = "magic"
    assert main([command, "--config", write_config(tmp_path, "magic.json", payload)]) == 2
    assert capsys.readouterr().err == "config error: 'constants.tau' = 'magic' needs a grid block\n"
    assert not out.exists()


def test_grid_block_rejected_where_unused(tmp_path):
    payload = {
        "grid": {"n_points": 64, "x_min": -4.0, "spacing": 0.125},
        "constants": {"mass": 1.0, "hbar": 1.0, "tau": 0.1},
        "action": {"kind": "standard", "potential": {"name": "zero"}},
        "run": {"x0": 1.0, "x_minus1": 0.9, "n_steps": 5},
        "output": {"directory": "out"},
    }
    cfg = write_config(tmp_path, "gridded.json", payload)
    assert main(["classical", "--config", cfg]) == 2


def test_sweep_reports_packet_warnings(tmp_path):
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path, "sweep.json", sweep_config(out, [1.0, 0.5, 0.25]))
    assert main(["sweep", "--config", cfg]) == 0
    assert read_report(out)["results"]["sweep"]["packet_warnings"] == {}
    payload = sweep_config(out, [1.0, 0.5, 0.25])
    payload["run"]["alpha"] = 0.1
    cfg = write_config(tmp_path, "narrow.json", payload)
    assert main(["sweep", "--config", cfg]) == 0
    warned = read_report(out)["results"]["sweep"]["packet_warnings"]
    assert sorted(warned) == ["0.25", "0.5", "1.0"]
    assert all(len(flags) == 1 and "below resolvable limit" in flags[0] for flags in warned.values())


def test_csv_writer_bytes(tmp_path):
    from dtqm.cli import _write_csv

    path = tmp_path / "t.csv"
    columns = [
        np.arange(4),
        np.array([0.1, -0.0, 1e-300, np.inf]),
        np.array([1.0 / 3.0, 2.5e16, 123456789.0, 5e-324]),
    ]
    _write_csv(str(path), ["step", "a", "b"], columns)
    assert path.read_bytes() == (
        b"# dtqm-csv-v1 columns: step,a,b\n"
        b"step,a,b\n"
        b"0,0.1,0.3333333333333333\n"
        b"1,-0.0,2.5e+16\n"
        b"2,1e-300,123456789.0\n"
        b"3,inf,5e-324\n"
    )


def _check_action_config(outdir):
    return {
        "constants": {"mass": 1.0, "hbar": 1.0, "tau": 0.5},
        "action": {"kind": "standard", "potential": {"name": "harmonic", "omega": 1.0}},
        "run": {"domain": [-2.0, 2.0], "expect": "admissible"},
        "output": {"directory": outdir},
    }


def test_criterion_error_is_numerical_failure(tmp_path, capsys, monkeypatch):
    import dtqm.cli

    def broken(*args, **kwargs):
        raise CriterionError("action evaluator failed at x=0.5, y=-0.5")

    monkeypatch.setattr(dtqm.cli, "check_criterion", broken)
    cfg = write_config(tmp_path, "check.json", _check_action_config(str(tmp_path / "out")))
    assert main(["check-action", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: action evaluator failed at x=0.5, y=-0.5\n"


def _build32_config(outdir, action, tau_share=1.0, mode="analytic"):
    """A build config on 32 points, at tau_share times the magic step."""
    magic_tau = 0.25 * 8.0 / (2.0 * math.pi)
    return {
        "grid": {"n_points": 32, "x_min": -4.0, "spacing": 0.25},
        "constants": {"mass": 1.0, "hbar": 1.0, "tau": "magic" if tau_share == 1.0 else tau_share * magic_tau},
        "action": action,
        "run": {"amplitude_mode": mode},
        "output": {"directory": outdir},
    }


def test_linalg_error_after_validation_is_numerical_failure(tmp_path, capsys, monkeypatch):
    def broken(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", broken)
    # Off the magic step the spectrum is not known in closed form, so build calls eigvals.
    zero = {"kind": "standard", "potential": {"name": "zero"}}
    payload = _build32_config(str(tmp_path / "out"), zero, 0.93, "calibrated")
    cfg = write_config(tmp_path, "build.json", payload)
    assert main(["build", "--config", cfg]) == 3
    assert capsys.readouterr().err == "numerical failure: Eigenvalues did not converge\n"


def test_parser_is_built_once_and_serves_every_command(tmp_path, capsys):
    from dtqm.cli import build_parser

    assert build_parser() is build_parser()
    out = str(tmp_path / "evolve")
    assert main(["evolve", "--config", write_config(tmp_path, "evolve.json", harmonic_evolve_config(out))]) == 0
    check = write_config(tmp_path, "check.json", _check_action_config(str(tmp_path / "check")))
    assert main(["check-action", "--config", check]) == 0
    assert read_report(out)["command"] == "evolve"
    assert read_report(str(tmp_path / "check"))["command"] == "check-action"
    capsys.readouterr()
    # An unknown flag is a usage error: argparse exits 2.
    with pytest.raises(SystemExit) as info:
        main(["evolve", "--config", check, "--format", "json"])
    assert info.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_evolve_runs_past_the_dense_limit_and_build_does_not(tmp_path, capsys):
    payload = harmonic_evolve_config(str(tmp_path / "evolve"))
    payload["grid"] = {"n_points": 2048, "x_min": -8.0, "spacing": 16.0 / 2048}
    assert main(["evolve", "--config", write_config(tmp_path, "evolve.json", payload)]) == 0
    assert read_report(str(tmp_path / "evolve"))["results"]["max_norm_drift"] < 1e-12
    payload = {
        "grid": payload["grid"],
        "constants": {"mass": 1.0, "hbar": 1.0, "tau": "magic"},
        "action": {"kind": "standard", "potential": {"name": "zero"}},
        "run": {},
        "output": {"directory": str(tmp_path / "build")},
    }
    assert main(["build", "--config", write_config(tmp_path, "build.json", payload)]) == 2
    assert capsys.readouterr().err == "config error: dense 1D kernels are limited to 1024 points, got 2048\n"
    assert not (tmp_path / "build").exists()
    payload = harmonic_evolve_config(str(tmp_path / "calibrated"))
    payload["grid"] = {"n_points": 2048, "x_min": -8.0, "spacing": 16.0 / 2048}
    payload["run"]["amplitude_mode"] = "calibrated"
    assert main(["evolve", "--config", write_config(tmp_path, "calibrated.json", payload)]) == 2
    assert capsys.readouterr().err == "config error: dense 1D kernels are limited to 1024 points, got 2048\n"
    assert not (tmp_path / "calibrated").exists()


def test_cli_import_does_not_load_scipy():
    import subprocess
    import sys

    code = "import sys, dtqm.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "[]\n"


def _count_eigvals(monkeypatch):
    calls = []
    original = np.linalg.eigvals

    def counting(matrix):
        calls.append(matrix.shape)
        return original(matrix)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return calls


HARMONIC = {"kind": "standard", "potential": {"name": "harmonic", "omega": 1.0}}
GAUGED = {"kind": "gauged", "potential": {"name": "cosine_well", "depth": 2.0}, "phase": {"name": "linear", "slope": 0.3}}
QUARTIC_PROBE = {"kind": "quartic", "potential": {"name": "zero"}, "epsilon": 0.1}
SINE_PROBE = {"kind": "sine", "strength": 1.0}


def _block(apply, q, source):
    magic = q is not None
    return {
        "apply": apply,
        "q": q,
        "gcd_q_n": math.gcd(q, 32) if magic else None,
        "q_offset": 0.0 if magic else None,
        "eig_source": source,
    }


@pytest.mark.parametrize(
    "action, tau_share, mode, kernel",
    [
        (HARMONIC, 1.0, "analytic", _block("chirped_dft", 1, "gauss_sum")),
        (GAUGED, 1.0, "calibrated", _block("chirped_dft", 1, "gauss_sum")),
        (GAUGED, 1.0 / 3.0, "analytic", _block("chirped_dft", 3, "gauss_sum")),
        (HARMONIC, 0.5, "analytic", _block("chirped_dft", 2, "eigvals")),  # gcd(2, 32) = 2
        (HARMONIC, 0.93, "calibrated", _block("embedding_2n", None, "eigvals")),
        (QUARTIC_PROBE, 1.0, "calibrated", _block("dense", None, "eigvals")),
        (SINE_PROBE, 1.0, "calibrated", _block("dense", None, "eigvals")),
    ],
)
def test_build_calls_eigvals_only_off_the_gauss_sum(tmp_path, monkeypatch, action, tau_share, mode, kernel):
    calls = _count_eigvals(monkeypatch)
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path, "build.json", _build32_config(out, action, tau_share, mode))
    assert main(["build", "--config", cfg]) == 0
    results = read_report(out)["results"]
    assert results["kernel"] == kernel
    assert calls == ([] if kernel["eig_source"] == "gauss_sum" else [(32, 32)])
    if not calls:
        expected = 0.25 * results["amplitude_magnitude"] * math.sqrt(32)
        assert results["eig_magnitude_min"] == results["eig_magnitude_max"] == expected


def test_build_of_a_family_subclass_calls_eigvals(tmp_path, monkeypatch):
    import dtqm.cli
    from dtqm import StandardAction
    from dtqm.config import build_action

    class Subclass(StandardAction):
        pass

    def build_subclass(cfg):
        model = build_action(cfg)
        return Subclass(model.constants, model.potential)

    monkeypatch.setattr(dtqm.cli, "build_action", build_subclass)
    calls = _count_eigvals(monkeypatch)
    out = str(tmp_path / "out")
    # The analytic amplitude refuses a subclass; a calibrated build takes the dense kernel.
    cfg = write_config(tmp_path, "build.json", _build32_config(out, HARMONIC, 1.0, "calibrated"))
    assert main(["build", "--config", cfg]) == 0
    assert calls == [(32, 32)]
    assert read_report(out)["results"]["kernel"] == _block("dense", None, "eigvals")


@pytest.mark.parametrize(
    "tau_share, kernel",
    [
        (1.0, {"apply": "chirped_dft", "q": 1, "gcd_q_n": 1, "q_offset": 0.0}),
        (0.5, {"apply": "chirped_dft", "q": 2, "gcd_q_n": 2, "q_offset": 0.0}),  # gcd(2, 256) = 2
        (0.93, {"apply": "embedding_2n", "q": None, "gcd_q_n": None, "q_offset": None}),
    ],
)
def test_evolve_reports_its_kernel(tmp_path, tau_share, kernel):
    out = str(tmp_path / "out")
    payload = harmonic_evolve_config(out)
    if tau_share != 1.0:
        payload["constants"]["tau"] = tau_share * 0.0625 * 16.0 / (2.0 * math.pi)
        del payload["run"]["tracking_tolerance"], payload["run"]["norm_tolerance"]
    assert main(["evolve", "--config", write_config(tmp_path, "evolve.json", payload)]) == 0
    assert read_report(out)["results"]["kernel"] == kernel


def test_calibrated_evolve_reports_its_calibration(tmp_path):
    from dtqm import magic_time_step, make_grid

    # tau*/5 on 127 points: |A| = 1/(w sqrt(N)) is 1/sqrt(5) of the analytic
    # value, outside the +-50% bracket, so calibration stops on its edge.
    grid = {"n_points": 127, "x_min": -8.0, "spacing": 16.0 / 127}
    tau = magic_time_step(make_grid(**grid), 1.0, 1.0) / 5.0
    action = {"kind": "standard", "potential": {"name": "harmonic", "omega": 0.3}}
    blocks = {}
    for command, run in (
        ("evolve", {"x0": 0.0, "p0": 0.0, "n_steps": 20, "amplitude_mode": "calibrated"}),
        ("build", {"amplitude_mode": "calibrated"}),
    ):
        out = str(tmp_path / command)
        payload = {
            "grid": grid,
            "constants": {"mass": 1.0, "hbar": 1.0, "tau": tau},
            "action": action,
            "run": run,
            "output": {"directory": out},
        }
        assert main([command, "--config", write_config(tmp_path, f"{command}.json", payload)]) == 0
        blocks[command] = read_report(out)["results"]
    kernel = blocks["evolve"]["kernel"]
    assert (kernel["apply"], kernel["q"], kernel["gcd_q_n"]) == ("chirped_dft", 5, 1)
    assert kernel["calibration"] == blocks["build"]["calibration"]
    assert kernel["calibration"]["at_bracket_edge"] is True
    # Off the bracket edge |A| would make the step unitary; on it every step grows the norm.
    assert blocks["evolve"]["final_norm"] > 2.0


@pytest.mark.parametrize("n_points", [32, 39])  # the magic step snaps by 0 and by -3 ulps
def test_build_reports_the_snap_of_the_magic_step(tmp_path, monkeypatch, n_points):
    from dtqm import magic_time_step, make_grid

    grid = {"n_points": n_points, "x_min": -8.0, "spacing": 16.0 / n_points}
    magic_tau = magic_time_step(make_grid(**grid), 1.0, 1.0)
    calls = _count_eigvals(monkeypatch)
    kernels = []
    for tau in ("magic", magic_tau * (1.0 + 1e-13)):
        out = str(tmp_path / f"out-{tau}")
        payload = {
            "grid": grid,
            "constants": {"mass": 1.0, "hbar": 1.0, "tau": tau},
            "action": HARMONIC,
            "run": {},
            "output": {"directory": out},
        }
        assert main(["build", "--config", write_config(tmp_path, "build.json", payload)]) == 0
        kernels.append(read_report(out)["results"]["kernel"])
    magic, near = kernels
    assert (magic["apply"], magic["q"], magic["eig_source"]) == ("chirped_dft", 1, "gauss_sum")
    assert abs(magic["q_offset"]) <= 4.5e-16
    # 1e-13 off the magic step is past the rounding-level snap: the kernel is
    # the one S gives at that step, and its spectrum comes from eigvals.
    assert near == {"apply": "embedding_2n", "q": None, "gcd_q_n": None, "q_offset": None, "eig_source": "eigvals"}
    assert calls == [(n_points, n_points)]


def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    import dtqm.cli

    def broken(cfg, outdir):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(dtqm.cli._HANDLERS, "check-action", broken)
    cfg = write_config(tmp_path, "check.json", _check_action_config(str(tmp_path / "out")))
    assert main(["check-action", "--config", cfg]) == 4
    assert capsys.readouterr().err == "internal error: TypeError: unsupported operand\n"
    assert not (tmp_path / "out" / "report.json").exists()


def test_report_bytes_match_json_dump(tmp_path):
    import io

    from dtqm.cli import _write_report

    report = {
        "z": [1, 2.5, None, True, {"b": 1e-300, "a": [1.7976931348623157e308, -0.0]}],
        "config": {"run": {"hbar_list": [1.0, 0.5]}, "name": "café"},
        "results": {"sweep": {"errors": {}, "deviations": {"1.0": 0.1 / 3.0}}, "empty": []},
        "pass": False,
    }
    old = io.StringIO()
    json.dump(report, old, indent=2, sort_keys=True)
    old.write("\n")
    path = _write_report(str(tmp_path), report)
    with open(path, "rb") as fh:
        assert fh.read() == old.getvalue().encode("utf-8")
    # Strict JSON: a non-finite number is refused before any byte is written.
    bad = tmp_path / "bad"
    bad.mkdir()
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _write_report(str(bad), report | {"z": [value]})
    assert not (bad / "report.json").exists()
