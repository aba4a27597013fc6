"""Discrete classical dynamics: momentum maps, one-step solver, trajectories.

The discrete equation of motion balances the gradients of two adjacent
one-step actions,

    dS(x_now, x_prev)/dx_now + dS(x_next, x_now)/dx_now = 0,

and is solved for x_next. For the admissible 1D family this is linear in
x_next (Stormer-Verlet), so ``invert_momentum`` and ``integrate`` solve it in
closed form, the latter in one scalar loop with one dV call per step. For
inadmissible probes a root may not exist inside any finite search region,
which is exactly the failure mode the probes are built to exhibit.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .action import ActionModel, is_standard_family
from .rootfind import newton_solve, scan_roots

__all__ = [
    "TrajectoryStatus",
    "EomResult",
    "ClassicalTrajectory",
    "NumericalError",
    "NUMERICAL_FAILURES",
    "eom_step",
    "integrate",
    "invert_momentum",
]

# Gradient tolerance prefactor; scaled by m / tau (the natural gradient
# magnitude per unit length) and the coordinate scale.
GRADIENT_TOL = 1e-10
SCAN_SUBINTERVALS = 64
MAX_NEWTON_2D = 60


class NumericalError(RuntimeError):
    """A solver could not produce a result it was expected to produce."""


# What a run on a validated config raises when its numerics fail (numpy's
# LinAlgError is a ValueError); a bad config raises ConfigError instead.
NUMERICAL_FAILURES = (NumericalError, ArithmeticError, ValueError)


class TrajectoryStatus(Enum):
    COMPLETE = "complete"
    NO_SOLUTION = "no_solution"
    NON_UNIQUE = "non_unique"


@dataclass(frozen=True)
class EomResult:
    """Outcome of one discrete equation-of-motion step."""

    x_next: float | np.ndarray | None
    status: TrajectoryStatus
    residual: float


@dataclass(frozen=True, eq=False)
class ClassicalTrajectory:
    """Positions and momenta indexed by step, with the solver outcome.

    ``positions[n]`` is x_n starting from the seed x_0; ``momenta[n]`` is the
    discrete momentum dS(x_n, x_{n-1})/dx_n (the seed pair provides n = 0).
    ``failure_step`` is the index of the first position that could not be
    determined (no_solution) or was ambiguous (non_unique).
    """

    times: np.ndarray
    positions: np.ndarray
    momenta: np.ndarray
    residuals: np.ndarray
    status: TrajectoryStatus
    failure_step: int | None = None

    def label(self) -> str:
        if self.status is TrajectoryStatus.COMPLETE:
            return "complete"
        return f"{self.status.value}_at({self.failure_step})"


def _gradient_tolerance(model: ActionModel, scale: float) -> float:
    c = model.constants
    return GRADIENT_TOL * (c.mass / c.time_step) * scale


def _family_track(model, x_prev, x_now, n_steps: int) -> list:
    """The seed pair and the next n_steps roots x_now + (tau/m) g of the standard family.

    d2S/dxdy = -m / tau makes the equation of motion linear, so one Newton
    step solves it. g = dS(x_now, x_prev)/dx + dS(x_now, x_now)/dy is summed in
    the order of StandardAction's evaluators, so the roots match theirs bit
    for bit. A gauged action's term phi(x) - phi(y) is a discrete total
    difference and drops out of the equation exactly, so the loop calls V'
    once per step and never phi': a gauged track is the standard track. The
    seed pair is ``np.float64``, so an overflow reads as inf, and a
    non-finite root is a numerical failure, never a verdict.
    """
    c = model.constants
    kin, half, step = c.mass / c.time_step, 0.5 * c.time_step, c.time_step / c.mass
    dv = model.potential.dv
    track = [x_prev, x_now]
    # Overflow is not reported as a warning: each root is checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            d = half * float(dv(x_now))
            x_next = x_now + step * (kin * (x_now - x_prev) - d - d)
            if not math.isfinite(x_next):
                raise NumericalError(f"the closed-form step from x_prev={x_prev}, x_now={x_now} is not finite")
            track.append(x_next)
            x_prev, x_now = x_now, x_next
    return track


def _nearest_root(g, dg, centre, radius, prediction, gtol, merge_tol):
    """Scan [centre - radius, centre + radius] for roots of g; keep the one nearest ``prediction``.

    Returns ``(x, residual, count)``: ``count`` roots were found, ``x`` is the
    one nearest ``prediction`` (the first on a tie) and ``residual`` is |g|
    there, from its refinement. Without a root, ``x`` is the scan point of
    smallest |g| and ``residual`` that |g|; the caller decides what either
    outcome means.
    """
    xtol = 1e-13 * max(1.0, abs(centre) + radius)
    lo, hi = centre - radius, centre + radius
    roots, residuals, xs, gs = scan_roots(g, dg, lo, hi, SCAN_SUBINTERVALS, gtol, xtol, merge_tol)
    if not roots:
        i = int(np.argmin(np.abs(gs)))
        return float(xs[i]), float(abs(gs[i])), 0
    i = min(range(len(roots)), key=lambda k: abs(roots[k] - prediction))
    return roots[i], residuals[i], len(roots)


def _eom_step_1d(model, x_prev, x_now):
    if is_standard_family(model):
        xi = _family_track(model, x_prev, x_now, 1)[-1]
        # An overflowing residual is not reported as a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            residual = abs(float(model.ds_dx(x_now, x_prev) + model.ds_dy(xi, x_now)))
        return EomResult(xi, TrajectoryStatus.COMPLETE, residual)

    def g(xi):
        return incoming + model.ds_dy(xi, x_now)

    def dg(xi):
        return model.d2s_dxdy(xi, x_now)

    c = model.constants
    # Overflow is not reported as a warning: integrate checks the finished track.
    with np.errstate(over="ignore", invalid="ignore"):
        gtol = _gradient_tolerance(model, max(1.0, abs(x_now), abs(x_prev)))
        radius = 10.0 * abs(x_now - x_prev) + 10.0 * math.sqrt(c.hbar * c.time_step / c.mass)
        incoming = float(model.ds_dx(x_now, x_prev))
        prediction = 2.0 * x_now - x_prev
        xi, residual, count = _nearest_root(g, dg, x_now, radius, prediction, gtol, 1e-9 * max(1.0, radius))
    if count == 0 and not residual <= gtol:
        return EomResult(None, TrajectoryStatus.NO_SOLUTION, residual)
    return EomResult(xi, TrajectoryStatus.NON_UNIQUE if count > 1 else TrajectoryStatus.COMPLETE, residual)


def _eom_step_2d(model, x_prev, x_now):
    x_prev = np.asarray(x_prev, dtype=float)
    x_now = np.asarray(x_now, dtype=float)
    incoming = np.asarray(model.ds_dx(x_now, x_prev), dtype=float)

    def g(xi):
        return incoming + np.asarray(model.ds_dy(xi, x_now), dtype=float)

    def jacobian(xi):
        # dg_a/dxi_b is the transposed mixed block of the action at (xi, x_now).
        return np.asarray(model.d2s_dxdy(xi, x_now), dtype=float).T

    scale = max(1.0, float(np.max(np.abs(x_now))), float(np.max(np.abs(x_prev))))
    gtol = _gradient_tolerance(model, scale)
    xi, residual = newton_solve(g, jacobian, 2.0 * x_now - x_prev, gtol, MAX_NEWTON_2D, 1e8 * scale)
    if xi is None:
        return EomResult(None, TrajectoryStatus.NO_SOLUTION, residual)
    return EomResult(xi, TrajectoryStatus.COMPLETE, residual)


def eom_step(model: ActionModel, x_prev, x_now) -> EomResult:
    """Solve the discrete equation of motion for the next position.

    For the exact standard/gauged family the equation is linear in x_next,
    and its one root is taken in closed form wherever it lies. Every other
    1D action is solved by a bracketing scan of 64 equal subintervals over
    [x_now - R, x_now + R], each sign change refined by safeguarded Newton.
    R is 10 |x_now - x_prev| + 10 sqrt(hbar tau / m), which keeps the
    no-solution verdict for bounded-gradient probes honest: "no root inside
    the documented search region".

    When several roots fall inside the region, the one closest to the
    free-motion prediction 2 x_now - x_prev is returned with the non-unique
    flag. In 2D the two-component system is solved by Newton iteration from
    the free-motion prediction; failure to converge, a singular Jacobian or
    a diverging iterate is reported as no_solution (no bracketing
    equivalent exists there).
    """
    if model.dimension == 1:
        return _eom_step_1d(model, np.float64(x_prev), np.float64(x_now))
    return _eom_step_2d(model, x_prev, x_now)


def integrate(model: ActionModel, x0, x_minus1, n_steps: int) -> ClassicalTrajectory:
    """Iterate the equation of motion from the seed pair (x_{-1}, x_0) for n_steps steps.

    Stops early with status no_solution when a step has no root; a
    non-unique step is resolved (closest to free motion), flagged, and
    integration continues. Steps of the exact standard/gauged family are
    taken in closed form, so they always complete. Momenta and residuals are
    evaluated over the finished track; a non-finite one, or a non-finite
    residual of the step without a root, raises NumericalError.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    one_d = model.dimension == 1
    if one_d:
        track = [np.float64(x_minus1), np.float64(x0)]
    else:
        track = [np.asarray(x_minus1, dtype=float), np.asarray(x0, dtype=float)]
    status = TrajectoryStatus.COMPLETE
    failure_step = None
    unsolved = 0.0  # the residual of a step without a root
    if is_standard_family(model):
        track = _family_track(model, *track, n_steps)
    else:
        for n in range(1, n_steps + 1):
            result = eom_step(model, track[-2], track[-1])
            if result.status is TrajectoryStatus.NO_SOLUTION:
                status = TrajectoryStatus.NO_SOLUTION
                failure_step = n
                unsolved = result.residual
                break
            if result.status is TrajectoryStatus.NON_UNIQUE and status is TrajectoryStatus.COMPLETE:
                status = TrajectoryStatus.NON_UNIQUE
                failure_step = n
            track.append(result.x_next)
    # Row 0 is the seed x_{-1}; the residual of step n is |g| at the root it kept.
    xs = np.array(track)
    # Overflow is not reported as a warning: non-finite values raise below.
    with np.errstate(over="ignore", invalid="ignore"):
        momenta = np.asarray(model.ds_dx(xs[1:], xs[:-1]), dtype=float)
        balance = np.abs(momenta[:-1] + np.asarray(model.ds_dy(xs[2:], xs[1:-1]), dtype=float))
    if not one_d:
        balance = balance.max(axis=-1)
    # A no_solution verdict never comes from a scan that is not finite.
    if not (np.all(np.isfinite(momenta)) and np.all(np.isfinite(balance)) and math.isfinite(unsolved)):
        raise NumericalError("the momenta or residuals of the classical track are not finite")
    return ClassicalTrajectory(
        times=np.arange(len(xs) - 1),
        positions=xs[1:],
        momenta=momenta,
        residuals=np.concatenate([[0.0], balance]),
        status=status,
        failure_step=failure_step,
    )


def _invert_momentum_1d(model, x0, p0):
    c = model.constants

    def g(xi):
        return model.ds_dx(x0, xi) - p0

    def dg(xi):
        # derivative of dS/dx (x0, xi) with respect to xi
        return model.d2s_dxdy(x0, xi)

    # Overflow is not reported as a warning: a closed-form root is checked
    # below, and a scanned root lies inside a finite bracket.
    with np.errstate(over="ignore", invalid="ignore"):
        guess = x0 - c.time_step * p0 / c.mass
        if is_standard_family(model):
            # g is linear in xi with slope d2S/dxdy = -m / tau: one Newton step is exact.
            root = guess + (c.time_step / c.mass) * float(g(guess))
            if not math.isfinite(root):
                raise NumericalError(f"cannot invert the momentum map at x0={x0}, p0={p0}: the root is not finite")
            return root
        radius = 10.0 * (abs(c.time_step * p0 / c.mass) + math.sqrt(c.hbar * c.time_step / c.mass))
        gtol = _gradient_tolerance(model, max(1.0, abs(x0), abs(p0 * c.time_step / c.mass)))
        root, _, count = _nearest_root(g, dg, guess, radius, guess, gtol, 0.0)
        if not count:
            raise NumericalError(
                f"cannot invert the momentum map at x0={x0}, p0={p0}: "
                f"no root in [{guess - radius:.6g}, {guess + radius:.6g}]"
            )
    return root


def _invert_momentum_2d(model, x0, p0):
    x0 = np.asarray(x0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    c = model.constants

    def g(xi):
        return np.asarray(model.ds_dx(x0, xi), dtype=float) - p0

    def jacobian(xi):
        return np.asarray(model.d2s_dxdy(x0, xi), dtype=float)

    scale = max(1.0, float(np.max(np.abs(x0))), float(np.max(np.abs(p0 * c.time_step / c.mass))))
    gtol = _gradient_tolerance(model, scale)
    xi, residual = newton_solve(g, jacobian, x0 - c.time_step * p0 / c.mass, gtol, MAX_NEWTON_2D)
    if xi is None:
        raise NumericalError(
            f"cannot invert the momentum map at x0={x0}, p0={p0}: Newton iteration stopped at residual {residual:.3g}"
        )
    return xi


def invert_momentum(model: ActionModel, x0, p0):
    """Find x_prev such that model.ds_dx(x0, x_prev) = p0.

    This is how a classical seed pair is reconstructed from packet
    parameters (x0, p0).
    """
    if model.dimension == 1:
        return _invert_momentum_1d(model, np.float64(x0), np.float64(p0))
    return _invert_momentum_2d(model, x0, p0)
