"""Quantum-classical correspondence experiments.

Ehrenfest tracking follows lattice expectation values of an evolving packet
against the discrete classical trajectory started from the same (x0, p0);
the hbar sweep repeats the experiment on re-tuned grids to show the
deviation shrinking as hbar does.
"""

import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .action import ActionModel, is_standard_family
from .classical import NUMERICAL_FAILURES, NumericalError, TrajectoryStatus, integrate, invert_momentum
from .grid import SpatialGrid, make_gaussian, make_grid, packet_observables
# evolve is kept in this namespace: perfbench's tracer rebinds dtqm.correspondence.evolve.
from .propagator import build_kernel, evolve  # noqa: F401

__all__ = [
    "BoundaryError",
    "EhrenfestSeries",
    "CorrespondenceReport",
    "ehrenfest_run",
    "hbar_sweep",
]

BOUNDARY_SIGMAS = 5.0
# Relative to the sweep's largest deviation.
MONOTONE_SLACK = 1e-6
# Amplitudes a packet run holds at once, however many steps it takes:
# 64 rows at N = 1024, and at least one row.
BLOCK_BYTES = 1 << 20


class BoundaryError(NumericalError):
    """The packet's safety envelope reaches the box edge during the run."""

    def __init__(self, step: int, message: str):
        super().__init__(message)
        self.step = step


@dataclass
class EhrenfestSeries:
    """Per-step observables of an evolving packet, plus the classical track.

    ``warnings`` carries the initial packet's quality flags (see make_gaussian),
    ``kernel`` the summary of the kernel that stepped it (PropagatorKernel.summary)
    and, for a calibrated kernel, its ``calibration``.
    """

    steps: np.ndarray
    x_mean: np.ndarray
    p_mean: np.ndarray
    x_spread: np.ndarray
    norm: np.ndarray
    x_classical: np.ndarray
    p_classical: np.ndarray
    kernel: dict
    warnings: tuple[str, ...] = ()

    def max_position_deviation(self) -> float:
        return float(np.max(np.abs(self.x_mean - self.x_classical)))

    def max_momentum_deviation(self) -> float:
        return float(np.max(np.abs(self.p_mean - self.p_classical)))


def _classical_track(model: ActionModel, x0: float, p0: float, n_steps: int):
    """Positions and momenta of the discrete classical run seeded at (x0, p0)."""
    if n_steps < 0:
        raise ValueError(f"n_steps must be non-negative, got {n_steps}")
    x_m1 = invert_momentum(model, x0, p0)
    trajectory = integrate(model, x0, x_m1, max(n_steps, 1))
    if trajectory.status is not TrajectoryStatus.COMPLETE:
        raise NumericalError(f"classical reference failed: {trajectory.label()}")
    # A zero-step run integrates one step all the same; only the seed is kept.
    return trajectory.positions[: n_steps + 1].copy(), trajectory.momenta[: n_steps + 1].copy()


def _packet_run(
    model: ActionModel,
    grid: SpatialGrid,
    x0: float,
    p0: float,
    alpha: float,
    track: tuple[np.ndarray, np.ndarray],
    amplitude_mode: str,
) -> EhrenfestSeries:
    """Evolve a Gaussian packet along a given classical track and record observables.

    The amplitudes are evolved block by block: each step is applied in place
    into the next row of one array (at most BLOCK_BYTES),
    and a full block is reduced to observables in one pass. A non-finite
    amplitude raises NumericalError.
    """
    x_classical, p_classical = track
    hbar = model.constants.hbar
    sigma = alpha * math.sqrt(hbar / 2.0)
    lo = grid.x_min
    hi = lo + grid.extent
    outside = (x_classical - BOUNDARY_SIGMAS * sigma < lo) | (x_classical + BOUNDARY_SIGMAS * sigma > hi)
    if outside.any():
        n = int(np.argmax(outside))
        raise BoundaryError(n, f"{BOUNDARY_SIGMAS:.0f}-sigma envelope reaches the box edge at step {n}")

    kernel = build_kernel(grid, model, amplitude_mode)
    n_record = len(x_classical)
    row_bytes = grid.n_points * np.dtype(complex).itemsize
    n_rows = max(1, min(BLOCK_BYTES // row_bytes, n_record))
    block = np.empty((n_rows, grid.n_points), dtype=complex)
    pieces = []
    # Overflow is not reported as a warning: make_gaussian checks the initial
    # packet's norm (a width that underflows divides by zero), and every row's
    # norm is checked below.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        block[0], packet_warnings = make_gaussian(grid, x0, p0, alpha, hbar)
        for start in range(0, n_record, len(block)):
            # A block after the first follows a full one: its first state is
            # the next step from that block's last row.
            if start:
                kernel.apply(block[-1], out=block[0])
            rows = block[: n_record - start]
            for r in range(1, len(rows)):
                kernel.apply(rows[r - 1], out=rows[r])
            observables = packet_observables(rows, grid, hbar)
            # A row's norm is finite exactly when all of its amplitudes are.
            finite = np.isfinite(observables[3])
            if not finite.all():
                raise NumericalError(f"packet amplitudes are not finite at step {start + int(np.argmin(finite))}")
            pieces.append(observables)
    x_mean, p_mean, x_spread, norms = (np.concatenate(column) for column in zip(*pieces))
    summary = kernel.summary if kernel.calibration is None else {**kernel.summary, "calibration": kernel.calibration}
    return EhrenfestSeries(
        steps=np.arange(n_record),
        x_mean=x_mean,
        p_mean=p_mean,
        x_spread=x_spread,
        norm=norms,
        x_classical=x_classical,
        p_classical=p_classical,
        kernel=summary,
        warnings=packet_warnings,
    )


def ehrenfest_run(
    model: ActionModel,
    grid: SpatialGrid,
    x0: float,
    p0: float,
    alpha: float = 1.0,
    n_steps: int = 50,
    amplitude_mode: str = "analytic",
) -> EhrenfestSeries:
    """Evolve a Gaussian packet and record observables each step.

    The classical seed x_{-1} comes from inverting the discrete momentum map
    at (x0, p0). Boundary safety is estimated before evolving: the classical
    excursion plus a 5 sigma packet envelope has to stay inside the box for
    the whole run, otherwise BoundaryError reports the first offending step.
    The exact-unitarity time step is the intended operating point; other
    steps are allowed but exact norm preservation is then lost.
    """
    if model.dimension != 1:
        raise ValueError("ehrenfest runs are one-dimensional")
    track = _classical_track(model, x0, p0, n_steps)
    return _packet_run(model, grid, x0, p0, alpha, track, amplitude_mode)


@dataclass
class CorrespondenceReport:
    """Deviation-versus-hbar summary of a sweep.

    ``finest`` is the run of the smallest hbar, or None when that run failed.
    ``errors`` and ``packet_warnings`` are keyed by hbar and list only the
    runs that failed or whose packet make_gaussian flagged.
    """

    hbar_values: tuple[float, ...]
    max_deviation: tuple[float, ...]
    monotone_flag: bool
    finest: EhrenfestSeries | None
    errors: dict[float, str] = field(default_factory=dict)
    packet_warnings: dict[float, tuple[str, ...]] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "hbar_values": list(self.hbar_values),
            "max_deviation": [None if h in self.errors else d for h, d in zip(self.hbar_values, self.max_deviation)],
            "monotone_flag": self.monotone_flag,
            "errors": {repr(k): v for k, v in self.errors.items()},
            "packet_warnings": {repr(k): list(v) for k, v in self.packet_warnings.items()},
        }


def _sweep_grid(hbar: float, mass: float, tau: float, n_points: int, center: float) -> SpatialGrid:
    # Invert the exact-unitarity relation: spacing such that tau is the
    # magic step for this hbar on an n_points lattice.
    dx = math.sqrt(2.0 * math.pi * hbar * tau / (mass * n_points))
    return make_grid(n_points, center - 0.5 * n_points * dx, dx)


def hbar_sweep(
    model: ActionModel,
    hbars,
    x0: float,
    p0: float,
    n_steps: int,
    n_points: int,
    alpha: float = 1.0,
) -> CorrespondenceReport:
    """Run Ehrenfest tracking of one model at each hbar against one classical track.

    ``model`` is a StandardAction or GaugedAction (``is_standard_family``);
    hbar enters only the kernel's phase, so each run steps a shallow copy of
    ``model`` whose constants carry that hbar, and ``model`` itself is never
    changed. The classical trajectory is computed once, from ``model``, and
    the runs evolve one after another against it. Each run gets its own
    grid: the spacing is retuned so the model's time step is that grid's
    exact-unitarity step, and the packet width alpha sqrt(hbar / 2) shrinks
    along with hbar. Per-run failures and packet quality flags are recorded
    and the sweep continues.
    """
    if not is_standard_family(model):
        raise ValueError(f"an hbar sweep needs a standard or gauged action, got {type(model).__name__}")
    hbars = [float(h) for h in hbars]
    if len(hbars) < 3:
        raise ValueError(f"a sweep needs at least 3 hbar values, got {len(hbars)}")
    if any(h <= 0 for h in hbars):
        raise ValueError("hbar values must be positive")
    if any(b >= a for a, b in zip(hbars, hbars[1:])):
        raise ValueError("hbar values must be strictly descending")

    mass, tau = model.constants.mass, model.constants.time_step
    track = _classical_track(model, x0, p0, n_steps)
    center = 0.5 * (float(track[0].min()) + float(track[0].max()))

    deviations = []
    errors: dict[float, str] = {}
    packet_warnings: dict[float, tuple[str, ...]] = {}
    for h in hbars:
        finest = None  # so that a failed last (smallest) hbar leaves no finest run
        try:
            quantized = copy.copy(model)
            quantized.constants = replace(model.constants, hbar=h)
            grid = _sweep_grid(h, mass, tau, n_points, center)
            finest = _packet_run(quantized, grid, x0, p0, alpha, track, "analytic")
        except NUMERICAL_FAILURES as exc:
            errors[h] = f"{type(exc).__name__}: {exc}"
            deviations.append(float("nan"))
        else:
            deviations.append(finest.max_position_deviation())
            if finest.warnings:
                packet_warnings[h] = finest.warnings

    slack = MONOTONE_SLACK * max(deviations)
    monotone = not errors and all(b <= a + slack for a, b in zip(deviations, deviations[1:]))
    return CorrespondenceReport(
        hbar_values=tuple(hbars),
        max_deviation=tuple(deviations),
        monotone_flag=monotone,
        finest=finest,
        errors=errors,
        packet_warnings=packet_warnings,
    )
