"""Acceptance suite: one test per headline criterion, tolerances pinned.

Each test prints a single PASS line once its assertions hold, so running
``pytest tests/test_acceptance.py -v -s`` doubles as the acceptance report.
"""

import cmath
import math

import numpy as np

from dtqm import (
    GaugedAction,
    PhysicalConstants,
    QuarticAction,
    SineAction,
    StandardAction,
    TrajectoryStatus,
    VectorPotentialAction2D,
    bilinear_field,
    build_kernel,
    check_criterion,
    continuum_lagrangian_2d,
    ehrenfest_run,
    gauge_equivalence_run,
    harmonic_potential,
    hbar_sweep,
    integrate,
    lagrangian_limit_2d,
    leapfrog_reference,
    magic_time_step,
    make_gaussian,
    make_grid,
    momentum_identity_residual,
    momentum_matrix,
    multi_step_pathsum,
    quadratic_phase,
    quartic_potential,
    sine_field,
    zero_field,
    zero_potential,
)

HBAR = 1.0
MASS = 1.0


def magic_standard(grid, pot):
    tau = magic_time_step(grid, MASS, HBAR)
    return StandardAction(PhysicalConstants(MASS, tau, HBAR), pot)


def test_acceptance_01_criterion_unitarity_link():
    """Constant mixed derivative and kernel unitarity pass or fail together."""
    grid = make_grid(128, -8.0, 0.125)
    tau = magic_time_step(grid, MASS, HBAR)
    constants = PhysicalConstants(MASS, tau, HBAR)
    admissible = {
        "free": StandardAction(constants, zero_potential()),
        "harmonic": StandardAction(constants, harmonic_potential(MASS, 1.0)),
        "quartic-potential": StandardAction(constants, quartic_potential(0.1)),
    }
    probes = {
        "quartic-probe": QuarticAction(constants, zero_potential(), 0.1),
        "sine-probe": SineAction(constants, 1.0),
    }
    for name, model in admissible.items():
        deviation = build_kernel(grid, model, "analytic").unitarity_deviation
        assert deviation < 1e-8, f"{name}: deviation {deviation}"
        assert check_criterion(model, (-2.0, 2.0)).is_constant, name
    for name, model in probes.items():
        deviation = build_kernel(grid, model, "calibrated").unitarity_deviation
        assert deviation > 1e-3, f"{name}: deviation {deviation}"
        assert not check_criterion(model, (-2.0, 2.0)).is_constant, name
    print("ACCEPTANCE 01 criterion-unitarity link: PASS")


def test_acceptance_02_exact_gauss_sum_unitarity():
    """Brute-force lattice sums justify the magic step and its amplitude."""
    for n in (8, 16, 64):
        for j in range(n):
            for l in range(n):
                total = sum(
                    cmath.exp(1j * math.pi * ((j - k) ** 2 - (l - k) ** 2) / n)
                    for k in range(n)
                )
                expected = float(n) if j == l else 0.0
                assert abs(total - expected) <= 1e-10 * n, (n, j, l, total)
    # consequence: the analytic amplitude 1/sqrt(dx L) gives a unitary kernel
    grid = make_grid(64, -4.0, 0.125)
    kernel = build_kernel(grid, magic_standard(grid, zero_potential()), "analytic")
    assert abs(abs(kernel.amplitude) - 1.0 / math.sqrt(0.125 * 8.0)) < 1e-12
    assert kernel.unitarity_deviation < 1e-10
    print("ACCEPTANCE 02 exact Gauss-sum unitarity: PASS")


def test_acceptance_03_gauge_equivalence():
    """Gauged and plain evolutions share densities; trajectories coincide."""
    grid = make_grid(256, -8.0, 0.0625)
    tau = magic_time_step(grid, MASS, HBAR)
    constants = PhysicalConstants(MASS, tau, HBAR)
    pot = harmonic_potential(MASS, 1.0)
    phase = quadratic_phase(0.3)
    discrepancy = gauge_equivalence_run(grid, constants, pot, phase, 1.0, 0.0, 1.0, 100)
    assert discrepancy < 1e-10, discrepancy
    plain = integrate(StandardAction(constants, pot), 1.0, 0.99, 100)
    gauged = integrate(GaugedAction(constants, pot, phase), 1.0, 0.99, 100)
    assert plain.status is TrajectoryStatus.COMPLETE
    worst = float(np.max(np.abs(plain.positions - gauged.positions)))
    assert worst < 1e-10, worst
    print("ACCEPTANCE 03 gauge equivalence: PASS")


def test_acceptance_04_leapfrog_oracle():
    """Root-finding integration reproduces the closed-form recursion."""
    pot = harmonic_potential(MASS, 1.0)
    model = StandardAction(PhysicalConstants(MASS, 0.1, HBAR), pot)
    trajectory = integrate(model, 1.0, 1.0, 1000)
    assert trajectory.status is TrajectoryStatus.COMPLETE
    reference = leapfrog_reference(pot.dv, MASS, 0.1, 1.0, 1.0, 1000)
    worst = float(np.max(np.abs(trajectory.positions - reference)))
    assert worst < 1e-12, worst
    print("ACCEPTANCE 04 leapfrog oracle: PASS")


def test_acceptance_05_ehrenfest_tracking():
    """Packet means follow the discrete classical trajectory, harmonic case."""
    grid = make_grid(256, -8.0, 0.0625)
    model = magic_standard(grid, harmonic_potential(MASS, 1.0))
    series = ehrenfest_run(model, grid, 0.5, 0.3, 1.0, 50)
    x_dev = series.max_position_deviation()
    p_dev = series.max_momentum_deviation()
    assert x_dev < 1e-3, x_dev
    assert p_dev < 1e-3, p_dev
    print("ACCEPTANCE 05 Ehrenfest tracking: PASS")


def test_acceptance_06_hbar_sweep_existence_trend():
    """Quartic-potential deviation from the classical track shrinks with hbar."""

    model = StandardAction(PhysicalConstants(MASS, 0.1, HBAR), quartic_potential(0.1))
    report = hbar_sweep(model, [1.0, 0.5, 0.25, 0.125], 1.0, 0.0, 30, 256)
    assert report.errors == {}
    devs = report.max_deviation
    assert all(b <= a + 1e-6 for a, b in zip(devs, devs[1:])), devs
    assert report.monotone_flag
    print("ACCEPTANCE 06 hbar-sweep correspondence trend: PASS")


def test_acceptance_07_classical_nonexistence_for_inadmissible_action():
    """The bounded-gradient probe both fails the criterion and strands the particle."""
    model = SineAction(PhysicalConstants(MASS, 0.01, HBAR), 1.0)
    trajectory = integrate(model, 1.45, 1.4, 50)
    assert trajectory.status is TrajectoryStatus.NO_SOLUTION
    assert trajectory.failure_step is not None and trajectory.failure_step <= 50
    assert trajectory.label() == "no_solution_at(1)"
    report = check_criterion(model, (-1.0, 1.0))
    assert not report.is_constant
    print("ACCEPTANCE 07 classical non-existence for inadmissible action: PASS")


def test_acceptance_08_composition_oracle():
    """Nested quadrature equals matrix powers for two and three steps."""
    g32 = make_grid(32, -4.0, 0.25)
    k32 = build_kernel(g32, magic_standard(g32, harmonic_potential(MASS, 1.0)), "analytic")
    squared = k32.matrix @ k32.matrix
    for initial, final in [(0, 0), (5, 20), (31, 2), (16, 16)]:
        value = multi_step_pathsum(k32, 2, initial, final)
        rel = abs(value - squared[final, initial]) / abs(squared[final, initial])
        assert rel < 1e-10, (initial, final, rel)
    g16 = make_grid(16, -2.0, 0.25)
    k16 = build_kernel(g16, magic_standard(g16, zero_potential()), "analytic")
    cubed = k16.matrix @ k16.matrix @ k16.matrix
    for initial, final in [(0, 0), (3, 12), (15, 1)]:
        value = multi_step_pathsum(k16, 3, initial, final)
        rel = abs(value - cubed[final, initial]) / abs(cubed[final, initial])
        assert rel < 1e-10, (initial, final, rel)
    print("ACCEPTANCE 08 composition oracle: PASS")


def test_acceptance_09_momentum_identity():
    """The kernel-built translation generator matches minus the momentum matrix."""
    grid = make_grid(128, -8.0, 0.125)
    psi, _ = make_gaussian(grid, 0.5, 0.0, math.sqrt(2.0), HBAR)
    free = build_kernel(grid, magic_standard(grid, zero_potential()), "analytic")
    free_residual = momentum_identity_residual(free, psi)
    assert free_residual < 1e-2, free_residual
    harmonic = build_kernel(grid, magic_standard(grid, harmonic_potential(MASS, 1.0)), "analytic")
    harmonic_residual = momentum_identity_residual(harmonic, psi)
    assert harmonic_residual < 5e-2, harmonic_residual
    # sign probe: comparing against +P instead of -P leaves an O(1) residual
    x = grid.points
    grad_y = np.asarray(free.model.ds_dy(x[:, None], x[None, :]), dtype=float)
    d_matrix = free.matrix.conj().T @ (grad_y * free.matrix)
    p = momentum_matrix(grid, HBAR)
    flipped = np.linalg.norm(d_matrix @ psi - p @ psi) / np.linalg.norm(p @ psi)
    assert flipped > 0.5, flipped
    print("ACCEPTANCE 09 momentum identity: PASS")


def test_acceptance_10_2d_linearized_criterion_and_charged_particle_limit():
    """Built-in 2D perturbations linearize to zero; the magnetic limit converges."""
    constants = PhysicalConstants(MASS, 0.05, HBAR)
    combos = [
        (zero_field(), zero_field()),
        (bilinear_field(0.5), bilinear_field(0.3)),
        (sine_field(1.0), zero_field()),
        (sine_field(0.7), bilinear_field(0.4)),
    ]
    for a1, a2 in combos:
        model = VectorPotentialAction2D(constants, zero_potential(), a1, a2)
        assert check_criterion(model, (-1.5, 1.5), 1296).trace_linearized < 1e-10
    # two-point ratio test along a direction where the dropped total
    # derivative vanishes, so the magnetic term is genuinely exercised
    x = np.array([0.6, 1.1])
    v1 = 1.0
    v2 = -v1 * (math.cos(x[0]) * math.sin(x[1])) / (math.sin(x[0]) * math.cos(x[1]))
    v = np.array([v1, v2])
    errors = []
    for tau in (0.05, 0.025, 0.0125):
        model = VectorPotentialAction2D(
            PhysicalConstants(MASS, tau, HBAR), quartic_potential(0.1), sine_field(1.0), zero_field()
        )
        assert abs(lagrangian_limit_2d(model, x, v)) > 0.0
        errors.append(abs(continuum_lagrangian_2d(model, x, v) - lagrangian_limit_2d(model, x, v)))
    for coarse, fine in zip(errors, errors[1:]):
        ratio = fine / coarse
        assert 0.4 < ratio < 0.6, errors
    print("ACCEPTANCE 10 2D linearized criterion and charged-particle limit: PASS")
