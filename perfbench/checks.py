"""Independent correctness checks on the files one ``dtqm`` call wrote.

Each check reads ``report.json`` and the CSV series and recomputes what it
can with the benchmark's own formulas: the leapfrog recursion and discrete
momentum for the admissible family, the quartic-probe step equation, the
magic step and the continuum amplitude, and the spectral bound that ties
eigenvalue magnitudes to the reported unitarity deviation. A check raises
``CheckFailure`` on the first problem; ``check_call`` turns that into a
message, or None when the call's exit code and outputs are correct.
"""

import json
import math
import os

import numpy as np

from workloads import (
    MAGIC_DEVIATION,
    MASS,
    NORM_TOLERANCE,
    PROBE_MIN_DEVIATION,
    force_gradient,
    magic_tau,
    phase_gradient,
    phase_value,
    potential_value,
)

CSV_HEADER = "# dtqm-csv-v1 columns: "
SERIES_COLUMNS = ["step", "x_mean", "p_mean", "x_spread", "norm", "x_classical", "p_classical"]

# One leapfrog step reproduced from the reported neighbours; the program's
# step solver stops at a gradient of 1e-10 m/tau per unit of coordinate.
STEP_RTOL = 1e-9
# The lattice packet's initial mean momentum differs from p0 by the O(dx^2)
# error of the central-difference stencil.
INITIAL_MOMENTUM_ATOL = 5e-3
# Ehrenfest tracking holds for every well over the first steps, before an
# anharmonic packet dephases: there the gap grows as (tau n)^2 times the
# spread of V' across the packet, under 0.03 at n = 2 for every generated well.
SHORT_TIME_STEPS = 2
SHORT_TIME_TRACKING = 0.05
# The program's dense matvec and the FFT evolution below differ by rounding
# only: about 1e-13 per step on the observables at N = 1024.
LATTICE_ATOL = 1e-8


class CheckFailure(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _close(a: float, b: float, rtol: float, what: str) -> None:
    _require(
        math.isfinite(a) and abs(a - b) <= rtol * max(1.0, abs(b)),
        f"{what}: got {a!r}, expected {b!r}",
    )


def read_report(outdir: str) -> dict:
    with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path: str, columns: list[str]) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _require(len(lines) >= 2, f"{os.path.basename(path)} has no header")
    _require(lines[0] == CSV_HEADER + ",".join(columns), f"{os.path.basename(path)}: bad version line {lines[0]!r}")
    _require(lines[1] == ",".join(columns), f"{os.path.basename(path)}: bad column row {lines[1]!r}")
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    data = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    _require(bool(np.all(np.isfinite(data))), f"{os.path.basename(path)} holds non-finite values")
    return data


def _steps_column(data: np.ndarray, n_rows: int, name: str) -> None:
    _require(data.shape[0] == n_rows, f"{name}: {data.shape[0]} rows, expected {n_rows}")
    _require(bool(np.array_equal(data[:, 0], np.arange(n_rows))), f"{name}: step column is not 0..{n_rows - 1}")


def _leapfrog_residual(xs: np.ndarray, dv, tau: float) -> float:
    """Largest relative miss of x[n+1] = 2 x[n] - x[n-1] - (tau^2/m) V'(x[n])."""
    if xs.size < 3:
        return 0.0
    predicted = 2.0 * xs[1:-1] - xs[:-2] - (tau * tau / MASS) * dv(xs[1:-1])
    return float(np.max(np.abs(xs[2:] - predicted) / np.maximum(1.0, np.abs(xs[2:]))))


def _check_series(data: np.ndarray, config: dict, tau: float, x0: float, name: str) -> None:
    norm = data[:, 4]
    x_mean, p_mean, x_cl, p_cl = data[:, 1], data[:, 2], data[:, 5], data[:, 6]
    _require(float(np.max(np.abs(norm - 1.0))) <= NORM_TOLERANCE, f"{name}: norm drifts beyond {NORM_TOLERANCE}")
    dv = force_gradient(config["action"]["potential"])
    _require(x_cl[0] == x0, f"{name}: classical track starts at {x_cl[0]!r}, not x0={x0!r}")
    miss = _leapfrog_residual(x_cl, dv, tau)
    _require(miss <= STEP_RTOL, f"{name}: classical track misses the leapfrog recursion by {miss:.3e}")
    _require(abs(x_mean[0] - x0) <= 1e-6, f"{name}: packet starts at {x_mean[0]!r}, not x0={x0!r}")
    early = slice(0, min(SHORT_TIME_STEPS, data.shape[0] - 1) + 1)
    drift = float(np.max(np.abs(x_mean[early] - x_cl[early])))
    _require(drift <= SHORT_TIME_TRACKING, f"{name}: packet leaves the classical track early ({drift:.3e})")
    _require(bool(np.all(np.isfinite(p_mean))) and bool(np.all(np.isfinite(p_cl))), f"{name}: non-finite momenta")


def lattice_evolution(config: dict, n_steps: int) -> np.ndarray:
    """(x_mean, p_mean, x_spread) per step of a magic-step evolve run, computed without dtqm.

    At the magic step the kinetic phase between lattice points j and k is
    pi (j - k)^2 / N. For even N it depends only on (j - k) mod N, so the
    kinetic factor is a circulant matrix, applied here by FFT. The potential
    and gauge terms of S(x_j, x_k) are diagonal factors on either side:
    U = diag(e^{i(phi - tau V / 2)/hbar}) K diag(e^{-i(phi + tau V / 2)/hbar})
    up to a constant phase.
    """
    grid, run, action = config["grid"], config["run"], config["action"]
    n, dx, hbar = grid["n_points"], grid["spacing"], config["constants"]["hbar"]
    _require(n % 2 == 0, "the FFT form of the magic-step kernel needs an even lattice")
    xs = grid["x_min"] + dx * np.arange(n)
    tau = magic_tau(n, dx, hbar)
    v = potential_value(action["potential"])(xs)
    phi = phase_value(action.get("phase"))(xs)
    left = np.exp(1j * (phi - 0.5 * tau * v) / hbar)
    right = np.exp(-1j * (phi + 0.5 * tau * v) / hbar)
    m = np.arange(n)
    kinetic = np.fft.fft(np.exp(1j * math.pi * m * m / n)) / math.sqrt(n)
    sigma = run.get("alpha", 1.0) * math.sqrt(hbar / 2.0)
    psi = np.exp(-((xs - run["x0"]) ** 2) / (4.0 * sigma * sigma) + 1j * run["p0"] * xs / hbar)
    psi /= math.sqrt(dx * float(np.sum(np.abs(psi) ** 2)))
    out = np.empty((n_steps + 1, 3))
    for step in range(n_steps + 1):
        dens = np.abs(psi) ** 2
        nsq = float(dens.sum())
        x_mean = float((xs * dens).sum()) / nsq
        x_sq = float((xs * xs * dens).sum()) / nsq
        dpsi = (np.roll(psi, -1) - np.roll(psi, 1)) / (2.0 * dx)
        p_mean = np.vdot(psi, -1j * hbar * dpsi).real / nsq
        out[step] = x_mean, p_mean, math.sqrt(max(x_sq - x_mean * x_mean, 0.0))
        psi = left * np.fft.ifft(kinetic * np.fft.fft(right * psi))
    return out


def check_evolve(call, outdir: str) -> None:
    expect, config = call.expect, call.config
    report = read_report(outdir)
    results = report["results"]
    _require(report["pass"] is True, f"evolve failed its own tolerances: {report['failures']}")
    _close(results["tau"], expect["tau"], 1e-12, "evolve tau (magic step)")
    _require(results["max_norm_drift"] <= NORM_TOLERANCE, f"norm drift {results['max_norm_drift']:.3e}")
    data = read_csv(os.path.join(outdir, "evolve.csv"), SERIES_COLUMNS)
    _steps_column(data, expect["n_steps"] + 1, "evolve.csv")
    _check_series(data, config, expect["tau"], expect["x0"], "evolve.csv")
    _require(abs(data[0, 6] - expect["p0"]) <= 1e-9 * MASS / expect["tau"], "classical momentum does not start at p0")
    _require(abs(data[0, 2] - expect["p0"]) <= INITIAL_MOMENTUM_ATOL, f"packet momentum starts at {data[0, 2]!r}, not p0")
    dev = float(np.max(np.abs(data[:, 1] - data[:, 5])))
    _close(results["max_position_deviation"], dev, 1e-12, "report max_position_deviation vs evolve.csv")
    tol = config["run"]["tracking_tolerance"]
    _require(dev <= tol, f"position tracking {dev:.3e} exceeds {tol:.3e}")
    _close(results["final_x_mean"], float(data[-1, 1]), 1e-15, "report final_x_mean vs evolve.csv")
    own = lattice_evolution(config, expect["n_steps"])
    miss = np.abs(data[:, 1:4] - own).max(axis=0)
    _require(bool(np.all(miss <= LATTICE_ATOL)), f"x_mean, p_mean, x_spread miss the lattice evolution by {miss}")


def check_check_action(call, outdir: str) -> None:
    expect = call.expect
    report = read_report(outdir)
    crit = report["results"]["criterion"]
    _require(crit["is_constant"] is expect["admissible"], f"criterion verdict is_constant={crit['is_constant']}")
    _require(crit["samples"] >= call.config["run"].get("n_samples", 1024), "criterion used too few samples")
    if expect["admissible"]:
        # d2S/dxdy = -m/tau for every admissible 1D action.
        _close(crit["det_mean"], -MASS / expect["tau"], 1e-12, "admissible det_mean")
        _close(crit["det_min"], crit["det_max"], 1e-12, "admissible det spread")
    else:
        _require(crit["relative_spread"] > 1e3 * crit["tolerance"], f"probe spread {crit['relative_spread']:.3e} too small")


def check_classical(call, outdir: str) -> None:
    expect, config = call.expect, call.config
    report = read_report(outdir)
    results = report["results"]
    _require(results["status"] == expect["status"], f"classical status {results['status']!r}, expected {expect['status']!r}")
    data = read_csv(os.path.join(outdir, "classical.csv"), ["step", "x", "p", "residual"])
    _steps_column(data, expect["rows"], "classical.csv")
    x_minus1 = results["x_minus1"]
    xs = np.concatenate([[x_minus1], data[:, 1]])
    tau = expect["tau"]
    scale = np.maximum(1.0, np.abs(xs[1:]))
    _require(data[0, 1] == config["run"]["x0"], "trajectory does not start at x0")
    _close(results["final_x"], float(data[-1, 1]), 0.0, "report final_x vs classical.csv")
    _close(results["max_residual"], float(data[:, 3].max()), 0.0, "report max_residual vs classical.csv")
    _require(float(np.max(data[:, 3] / scale)) <= 1e-8 * MASS / tau, "step residuals exceed the solver tolerance")
    action = config["action"]
    if action["kind"] == "sine":
        return
    dv = force_gradient(action["potential"])
    d_prev = xs[1:] - xs[:-1]
    momentum = MASS / tau * d_prev - 0.5 * tau * dv(xs[1:])
    if action["kind"] == "quartic":
        eps = action["epsilon"]
        momentum = momentum + 4.0 * eps * d_prev**3
        d_next = d_prev[1:]
        balance = MASS / tau * (d_prev[:-1] - d_next) - tau * dv(xs[1:-1]) + 4.0 * eps * (d_prev[:-1] ** 3 - d_next**3)
        worst = float(np.max(np.abs(balance) / scale[:-1])) if balance.size else 0.0
        _require(worst <= 1e-8 * MASS / tau, f"quartic-probe steps miss the step equation by {worst:.3e}")
    else:
        momentum = momentum + phase_gradient(action.get("phase"))(xs[1:])
        miss = _leapfrog_residual(xs, dv, tau)
        _require(miss <= STEP_RTOL, f"trajectory misses the leapfrog recursion by {miss:.3e}")
    gap = float(np.max(np.abs(data[:, 2] - momentum) / scale))
    _require(gap <= STEP_RTOL * MASS / tau, f"momentum column misses dS/dx by {gap:.3e}")
    if config["run"].get("p0") is not None:
        _require(abs(data[0, 2] - config["run"]["p0"]) <= STEP_RTOL * MASS / tau, "seed momentum is not p0")


def check_build(call, outdir: str) -> None:
    expect = call.expect
    report = read_report(outdir)
    r = report["results"]
    _require(report["pass"] is True, f"build failed its own tolerance: {report['failures']}")
    _require(r["n_points"] == expect["n_points"], "wrong lattice size")
    _close(r["magic_tau"], expect["magic_tau"], 1e-12, "magic step")
    dev = r["unitarity_deviation"]
    _require(math.isfinite(dev) and dev >= 0.0, f"unitarity deviation {dev!r}")
    # ||U U^+ - I||_2 <= dev (row-sum norm), so every singular value, and with
    # it every eigenvalue magnitude, lies in [sqrt(1 - dev), sqrt(1 + dev)].
    _require(r["eig_magnitude_min"] >= math.sqrt(max(0.0, 1.0 - dev)) - 1e-9, "eigenvalue below the unitarity bound")
    _require(r["eig_magnitude_max"] <= math.sqrt(1.0 + dev) + 1e-9, "eigenvalue above the unitarity bound")
    continuum = math.sqrt(MASS / (2.0 * math.pi * r["tau"]))
    _close(r["amplitude_phase"], -math.pi / 4.0, 1e-12, "amplitude phase")
    if expect["mode"] == "analytic":
        _close(r["tau"], expect["magic_tau"], 1e-12, "tau at the magic step")
        _require(dev <= MAGIC_DEVIATION, f"magic-step kernel deviation {dev:.3e}")
        _require(abs(r["eig_magnitude_min"] - 1.0) <= 1e-8 and abs(r["eig_magnitude_max"] - 1.0) <= 1e-8, "eigenvalues off the unit circle")
        _close(r["amplitude_magnitude"], continuum, 1e-12, "analytic amplitude")
        return
    ratio = r["amplitude_magnitude"] / continuum
    _require(0.5 - 1e-9 <= ratio <= 1.5 + 1e-9, f"calibrated amplitude {ratio:.4f} x analytic is outside the bracket")
    if expect["mode"] == "off_magic":
        _require(r["tau"] < expect["magic_tau"], "off-magic run landed on the magic step")
    else:
        _require(dev >= PROBE_MIN_DEVIATION, f"probe kernel deviation {dev:.3e} is too small")


def check_sweep(call, outdir: str) -> None:
    expect, config = call.expect, call.config
    report = read_report(outdir)
    sweep = report["results"]["sweep"]
    _require(report["pass"] is True, f"sweep failed: {report['failures']}")
    _require(sweep["errors"] == {}, f"sweep errors {sweep['errors']}")
    _require(sweep["monotone_flag"] is True, "sweep is not monotone")
    devs = sweep["max_deviation"]
    _require(sweep["hbar_values"] == config["run"]["hbar_list"], "sweep hbar values differ from the config")
    _require(len(devs) == expect["n_hbars"] and all(math.isfinite(d) for d in devs), f"deviations {devs}")
    _require(all(b <= a + 1e-6 for a, b in zip(devs, devs[1:])), f"deviations increase with smaller hbar: {devs}")
    data = read_csv(os.path.join(outdir, "sweep_finest.csv"), SERIES_COLUMNS)
    _steps_column(data, expect["n_steps"] + 1, "sweep_finest.csv")
    _check_series(data, config, expect["tau"], expect["x0"], "sweep_finest.csv")
    _close(devs[-1], float(np.max(np.abs(data[:, 1] - data[:, 5]))), 1e-12, "finest deviation vs sweep_finest.csv")


CHECKS = {
    "evolve": check_evolve,
    "check-action": check_check_action,
    "classical": check_classical,
    "build": check_build,
    "sweep": check_sweep,
}


def check_call(call, exit_code: int, outdir: str) -> str | None:
    """Return None when the call's exit code and outputs are correct, else the problem."""
    if exit_code != call.expect["exit"]:
        return f"{call.command}: exit code {exit_code}, expected {call.expect['exit']}"
    try:
        CHECKS[call.command](call, outdir)
    except CheckFailure as exc:
        return f"{call.command}: {exc}"
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"{call.command}: unreadable output ({type(exc).__name__}: {exc})"
    return None
