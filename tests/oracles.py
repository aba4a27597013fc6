"""Test oracles: each quantity in its plainest form, and the paper's constructions no command runs.

The single-state observables take a 1D grid and one state's amplitudes on
it, and compute their quantity directly from the amplitudes: one quadrature
sum or ``np.vdot``, ``np.roll`` for the central-difference momentum, and two
passes for the spread. The position moments assume a normalized state;
``packet_observables`` divides by the row's squared norm instead, and
reduces row by row with ``np.vecdot``.

The unitarity defect oracle forms U U^dagger from the dense matrix and takes
the max-row-sum norm of U U^dagger - I; the kernel reads its defect from the
Gram rows of its phases instead.

The construction oracles check the package against the paper: the path sum
against matrix powers (the composition law), the translation generator
D = U^dagger (dS/dy o U) against minus the momentum, the leapfrog recursion
against ``integrate``, the gauge run against exact density equivalence, and
the finite-step Lagrangian S(x, x - tau v) / tau against its small-step limit.
"""

import cmath
import itertools
import math

import numpy as np

from dtqm import GaugedAction, NumericalError, StandardAction, build_kernel, make_gaussian


def inner(grid, a, b) -> complex:
    """Quadrature inner product <a|b>; conjugates the first argument."""
    return complex(grid.spacing * np.vdot(a, b))


def norm(grid, a) -> float:
    return math.sqrt(inner(grid, a, a).real)


def _density(grid, a) -> np.ndarray:
    return grid.spacing * np.abs(a) ** 2


def expect_x(grid, a) -> float:
    """Mean position of a normalized state."""
    return float(grid.points @ _density(grid, a))


def momentum(grid, a, hbar: float) -> np.ndarray:
    """Central-difference momentum -i hbar (a_{j+1} - a_{j-1}) / (2 dx), with periodic wraparound."""
    return -1j * hbar * ((np.roll(a, -1) - np.roll(a, 1)) / (2.0 * grid.spacing))


def expect_p(grid, a, hbar: float) -> float:
    """Mean momentum of the central difference (real part)."""
    return inner(grid, a, momentum(grid, a, hbar)).real


def position_spread(grid, a) -> float:
    """Standard deviation of position of a normalized state, about its mean: two passes."""
    dens = _density(grid, a)
    offsets = grid.points - grid.points @ dens
    return math.sqrt(float((offsets * offsets) @ dens))


def max_row_sum_defect(matrix) -> float:
    """Max-row-sum norm of U U^dagger - I."""
    product = matrix @ matrix.conj().T
    product[np.diag_indices_from(product)] -= 1.0
    return float(np.abs(product).sum(axis=1).max())


def multi_step_pathsum(kernel, k_steps: int, x_initial_index: int, x_final_index: int) -> complex:
    """Brute-force nested quadrature over intermediate positions, for k_steps >= 1.

    Sums exp(i (S(x_f, x_m) + ... + S(x_m', x_i)) / hbar) over every chain of
    k_steps - 1 intermediate lattice points, one cell weight per integration
    variable plus one for the kernel convention, and amplitude A^k. The result
    must match the (final, initial) element of the k-th matrix power. The
    cost is N^(k_steps - 1) chains.
    """
    model = kernel.model
    xs = kernel.grid.points.tolist()

    def step_phase(a, b) -> complex:
        return cmath.exp(1j * float(model.s(a, b)) / model.constants.hbar)

    total = 0j
    for chain in itertools.product(xs, repeat=k_steps - 1):
        path = (xs[x_final_index], *chain, xs[x_initial_index])
        total += math.prod(step_phase(a, b) for a, b in zip(path, path[1:]))
    return (kernel.grid.spacing**k_steps) * (kernel.amplitude**k_steps) * total


def momentum_identity_residual(kernel, psi, sign: float = 1.0) -> float:
    """||D psi + sign P psi|| / ||P psi||, with D = U^dagger (dS/dy o U) and P the central difference.

    D_jk = sum_l conj(U_lj) (dS/dy)(x_l, x_k) U_lk acts on smooth states as
    minus the momentum operator when the kernel is unitary, so at sign = 1 the
    residual is the O(dx^2) truncation of P (a broad packet on a fine grid is
    the intended state), and at sign = -1 it is O(1).
    """
    x = kernel.grid.points
    grad_y = np.asarray(kernel.model.ds_dy(x[:, None], x[None, :]), dtype=float)
    d_psi = kernel.matrix.conj().T @ (grad_y * kernel.matrix) @ psi
    p_psi = momentum(kernel.grid, psi, kernel.model.constants.hbar)
    return float(np.linalg.norm(d_psi + sign * p_psi) / np.linalg.norm(p_psi))


def leapfrog_reference(dv, mass: float, time_step: float, x0: float, x_minus1: float, n_steps: int) -> np.ndarray:
    """Positions x_0 .. x_n of the closed-form recursion x' = 2x - x_prev - (tau^2/m) V'(x): no root-finding."""
    xs = np.empty(n_steps + 1)
    xs[0] = x0
    prev = x_minus1
    for n in range(n_steps):
        xs[n + 1] = 2.0 * xs[n] - prev - (time_step * time_step / mass) * float(dv(xs[n]))
        prev = xs[n]
    return xs


def gauge_equivalence_run(
    grid, constants, potential, phase, x0: float, p0: float, alpha: float = 1.0, n_steps: int = 100,
    amplitude_mode: str = "analytic",
) -> float:
    """Max pointwise density discrepancy between gauged and plain evolutions.

    With the gauge term phi(x) - phi(y) added to the action, the gauged
    kernel is exactly Phi U Phi^dagger with Phi = diag(exp(i phi(x_j)/hbar)).
    Starting run B from Phi psi makes the two position densities agree to
    roundoff at every step; the returned number is the worst disagreement
    seen. A density that is not finite raises NumericalError naming the
    first such step.
    """
    hbar = constants.hbar
    kernel_a = build_kernel(grid, StandardAction(constants, potential), amplitude_mode)
    kernel_b = build_kernel(grid, GaugedAction(constants, potential, phase), amplitude_mode)
    a, _ = make_gaussian(grid, x0, p0, alpha, hbar)
    b = a * np.exp(1j * phase.phi(grid.points) / hbar)
    worst = 0.0
    # Overflow is not reported as a warning: every step's discrepancy is
    # checked, and it is finite exactly when both densities are.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps + 1):
            if step:
                kernel_a.apply(a, out=a)
                kernel_b.apply(b, out=b)
            gap = float(np.max(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2)))
            if not math.isfinite(gap):
                raise NumericalError(f"packet density is not finite at step {step}")
            worst = max(worst, gap)
    return worst


def continuum_lagrangian(model, x, v) -> float:
    """Finite-step ratio S(x, x - tau v) / tau; for a 2D action x and v are arrays of length 2."""
    tau = model.constants.time_step
    return float(model.s(x, x - tau * v)) / tau


def lagrangian_limit(model, x: float, v: float) -> float:
    """Small-step limit of continuum_lagrangian for the 1D standard/gauged family.

    m v^2 / 2 - V(x), plus the gauge term's total time derivative phi'(x) v,
    so the two routes compare like for like.
    """
    value = 0.5 * model.constants.mass * v * v - float(model.potential.v(x))
    if isinstance(model, GaugedAction):
        value += float(model.phase.dphi(x)) * v
    return value


def lagrangian_limit_2d(model, x, v) -> float:
    """Small-step limit for the 2D action: kinetic term plus q v . A minus the potential.

    The total-derivative part of the perturbation is dropped; q A_a is the
    derivative of the stream function a_a with respect to its own slot,
    evaluated at the position.
    """
    qa1 = float(model.a1.d_da(x[0], x[1]))
    qa2 = float(model.a2.d_db(x[0], x[1]))
    kinetic = 0.5 * model.constants.mass * float(v @ v)
    return kinetic + qa1 * v[0] + qa2 * v[1] - float(model.potential.v(x[0]) + model.potential.v(x[1]))
