"""Command-line driver: validate a config, run one experiment, write reports.

Exit codes are a stable contract, decided in ``main`` alone: 0 success/pass,
1 tolerance failure, 2 configuration error (only a ConfigError from
load_config, raised before the output directory is made, or an output path
that cannot be written), 3 numerical failure (anything in NUMERICAL_FAILURES
raised after validation: solver, non-finite kernel phases, boundary safety,
criterion sampling, linear algebra, float arithmetic, or a bad value met by
the numerics), 4 internal error (any other exception: a defect, reported as
one line). The command handlers return their results and failures; only
``main`` maps them to an exit code.
Identical configs reproduce byte-identical CSV and JSON outputs except for
the wall-time field of the run report.
"""

import argparse
import errno
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .classical import NUMERICAL_FAILURES, integrate, invert_momentum
from .config import ConfigError, build_action, build_grid, load_config
from .correspondence import ehrenfest_run, hbar_sweep
from .criterion import check_criterion
from .propagator import build_kernel, magic_time_step

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4

CSV_VERSION = "dtqm-csv-v1"


def _write_csv(path: str, header: list[str], columns) -> None:
    """One line per row of the given columns; ints and floats print as Python's repr."""
    cells = [map(repr, column.tolist()) for column in columns]
    lines = [f"# {CSV_VERSION} columns: {','.join(header)}", ",".join(header)]
    lines.extend(map(",".join, zip(*cells)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_series_csv(path: str, s) -> None:
    """Per-step packet observables next to the classical track."""
    columns = [s.steps, s.x_mean, s.p_mean, s.x_spread, s.norm, s.x_classical, s.p_classical]
    _write_csv(path, ["step", "x_mean", "p_mean", "x_spread", "norm", "x_classical", "p_classical"], columns)


def _write_report(outdir: str, report: dict) -> str:
    path = os.path.join(outdir, "report.json")
    # Strict JSON: a NaN or infinity raises ValueError before the file is opened.
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
    return path


def _make_output_directory(path: str) -> None:
    """``os.makedirs``, raising OSError for a name no file can have, as for any other bad path."""
    if "\0" in path:
        raise OSError(errno.EINVAL, "embedded null byte", path)
    try:
        os.makedirs(path, exist_ok=True)
    except UnicodeEncodeError as exc:  # a lone surrogate, which no file system encoding holds
        raise OSError(errno.EINVAL, exc.reason, path) from exc


def _cmd_check_action(cfg: dict, outdir: str) -> tuple[dict, list[str]]:
    model = build_action(cfg)
    run = cfg["run"]
    report = check_criterion(model, tuple(run["domain"]), run["n_samples"], run["tolerance"])
    results = {"criterion": report.as_dict()}
    failures = []
    if report.is_constant != (run["expect"] == "admissible"):
        failures.append(f"expected {run['expect']} action, criterion returned is_constant={report.is_constant}")
    return results, failures


def _cmd_evolve(cfg: dict, outdir: str) -> tuple[dict, list[str]]:
    grid = build_grid(cfg)
    model = build_action(cfg)
    run = cfg["run"]
    series = ehrenfest_run(
        model,
        grid,
        run["x0"],
        run["p0"],
        run["alpha"],
        run["n_steps"],
        amplitude_mode=run["amplitude_mode"],
    )
    if "csv" in cfg["output"]["formats"]:
        _write_series_csv(os.path.join(outdir, "evolve.csv"), series)
    max_norm_drift = float(np.max(np.abs(series.norm - 1.0)))
    results = {
        "n_steps": run["n_steps"],
        "tau": model.constants.time_step,
        "max_norm_drift": max_norm_drift,
        "max_position_deviation": series.max_position_deviation(),
        "max_momentum_deviation": series.max_momentum_deviation(),
        "final_x_mean": float(series.x_mean[-1]),
        "final_norm": float(series.norm[-1]),
        "packet_warnings": list(series.warnings),
        "kernel": series.kernel,
    }
    failures = []
    if run["tracking_tolerance"] is not None:
        tol = run["tracking_tolerance"]
        if results["max_position_deviation"] > tol:
            failures.append(f"position tracking {results['max_position_deviation']:.3e} > {tol:.3e}")
        if results["max_momentum_deviation"] > tol:
            failures.append(f"momentum tracking {results['max_momentum_deviation']:.3e} > {tol:.3e}")
    if run["norm_tolerance"] is not None and max_norm_drift > run["norm_tolerance"]:
        failures.append(f"norm drift {max_norm_drift:.3e} > {run['norm_tolerance']:.3e}")
    return results, failures


def _cmd_classical(cfg: dict, outdir: str) -> tuple[dict, list[str]]:
    model = build_action(cfg)
    run = cfg["run"]
    x_minus1 = run["x_minus1"] if run["x_minus1"] is not None else invert_momentum(model, run["x0"], run["p0"])
    trajectory = integrate(model, run["x0"], x_minus1, run["n_steps"])
    if "csv" in cfg["output"]["formats"]:
        columns = [trajectory.times, trajectory.positions, trajectory.momenta, trajectory.residuals]
        _write_csv(os.path.join(outdir, "classical.csv"), ["step", "x", "p", "residual"], columns)
    results = {
        "status": trajectory.label(),
        "steps_completed": int(trajectory.times[-1]),
        "x_minus1": float(x_minus1),
        "max_residual": float(trajectory.residuals.max()),
        "final_x": float(trajectory.positions[-1]),
    }
    failures = []
    if trajectory.status.value != run["expect_status"]:
        failures.append(f"expected status '{run['expect_status']}', got '{trajectory.label()}'")
    return results, failures


def _cmd_sweep(cfg: dict, outdir: str) -> tuple[dict, list[str]]:
    run = cfg["run"]
    report = hbar_sweep(
        build_action(cfg),
        run["hbar_list"],
        run["x0"],
        run["p0"],
        run["n_steps"],
        cfg["grid"]["n_points"],
        alpha=run["alpha"],
    )
    if "csv" in cfg["output"]["formats"] and report.finest is not None:
        _write_series_csv(os.path.join(outdir, "sweep_finest.csv"), report.finest)
    results = {"sweep": report.as_dict(), "mass": cfg["constants"]["mass"], "tau": cfg["constants"]["tau"]}
    failures = [f"hbar={h}: {msg}" for h, msg in sorted(report.errors.items(), reverse=True)]
    if not report.monotone_flag and not report.errors:
        failures.append("deviation sequence is not non-increasing in hbar")
    return results, failures


def _cmd_build(cfg: dict, outdir: str) -> tuple[dict, list[str]]:
    grid = build_grid(cfg)
    model = build_action(cfg)
    constants = model.constants
    run = cfg["run"]
    kernel = build_kernel(grid, model, run["amplitude_mode"])
    # At tau* / q with gcd(q, N) = 1 every eigenvalue has the Gauss-sum magnitude.
    magnitude = kernel.gauss_sum_magnitude
    if magnitude is None:
        eig_magnitudes = np.abs(np.linalg.eigvals(kernel.matrix))
        eig_min, eig_max = float(eig_magnitudes.min()), float(eig_magnitudes.max())
    else:
        eig_min = eig_max = magnitude
    results = {
        "n_points": grid.n_points,
        "spacing": grid.spacing,
        "tau": constants.time_step,
        "magic_tau": magic_time_step(grid, constants.mass, constants.hbar),
        "amplitude_mode": run["amplitude_mode"],
        "amplitude_magnitude": abs(kernel.amplitude),
        "amplitude_phase": float(np.angle(kernel.amplitude)),
        "unitarity_deviation": kernel.unitarity_deviation,
        "eig_magnitude_min": eig_min,
        "eig_magnitude_max": eig_max,
        "kernel": {
            **kernel.summary,
            "eig_source": "eigvals" if magnitude is None else "gauss_sum",
            "defect_source": kernel.defect_source,
            "offdiag_row_sum": kernel.offdiag_row_sum,
        },
    }
    if kernel.calibration is not None:
        results["calibration"] = kernel.calibration
    failures = []
    limit = run["max_unitarity_deviation"]
    if limit is not None and kernel.unitarity_deviation > limit:
        failures.append(f"unitarity deviation {kernel.unitarity_deviation:.3e} > {limit:.3e}")
    return results, failures


_HANDLERS = {
    "check-action": _cmd_check_action,
    "evolve": _cmd_evolve,
    "classical": _cmd_classical,
    "sweep": _cmd_sweep,
    "build": _cmd_build,
}


# Built once per process: every command parses with the same parser.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtqm",
        description="Discrete-time quantum mechanics experiments on periodic lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("check-action", "evaluate the unitarity criterion on an action"),
        ("evolve", "evolve a Gaussian packet and track observables"),
        ("classical", "integrate the discrete classical equation of motion"),
        ("sweep", "run the hbar sweep against one classical trajectory"),
        ("build", "build a kernel and report its unitarity diagnostics"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (overrides output.directory)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = load_config(args.config, args.command)
        outdir = args.out if args.out is not None else cfg["output"]["directory"]
        _make_output_directory(outdir)
        results, failures = _HANDLERS[args.command](cfg, outdir)
        report = {
            "artifact_version": __version__,
            "command": args.command,
            "config": cfg["raw"],
            "results": results,
            "pass": not failures,
            "failures": failures,
            "wall_time_s": time.perf_counter() - started,
        }
        _write_report(outdir, report)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return EXIT_TOLERANCE if failures else EXIT_OK


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
