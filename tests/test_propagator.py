"""Tests for kernel construction, calibration, composition, and identities."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import gauge_equivalence_run, max_row_sum_defect, momentum_identity_residual, multi_step_pathsum, norm

from dtqm import (
    ActionModel,
    GaugedAction,
    NumericalError,
    PhysicalConstants,
    QuarticAction,
    SineAction,
    StandardAction,
    analytic_amplitude,
    build_kernel,
    cosine_well_potential,
    evolve,
    harmonic_potential,
    is_standard_family,
    linear_phase,
    magic_time_step,
    make_gaussian,
    make_grid,
    quadratic_phase,
    quartic_potential,
    zero_potential,
)
from dtqm.potentials import Potential

HBAR = 1.0


def grid128():
    return make_grid(128, -8.0, 0.125)


def magic_model(grid, pot=None, mass=1.0):
    tau = magic_time_step(grid, mass, HBAR)
    return StandardAction(PhysicalConstants(mass, tau, HBAR), pot or zero_potential())


def test_magic_time_step_value_and_scalings():
    g = grid128()
    assert magic_time_step(g, 1.0, HBAR) == pytest.approx(1.0 / math.pi, abs=1e-15)
    # halving the spacing at fixed extent halves the step
    fine = make_grid(256, -8.0, 0.0625)
    assert magic_time_step(fine, 1.0, HBAR) == pytest.approx(0.5 / math.pi, abs=1e-15)
    # linear in the mass
    assert magic_time_step(g, 2.0, HBAR) == pytest.approx(2.0 / math.pi, abs=1e-15)


def test_gauss_sum_oracle_small():
    # Brute force: sum_k exp(i pi ((j-k)^2 - (l-k)^2) / N) = N delta_jl.
    n = 8
    for j in range(n):
        for l in range(n):
            total = sum(
                cmath.exp(1j * math.pi * ((j - k) ** 2 - (l - k) ** 2) / n) for k in range(n)
            )
            expected = n if j == l else 0.0
            assert abs(total - expected) < 1e-12 * n


def test_analytic_kernel_at_magic_step():
    g = grid128()
    kernel = build_kernel(g, magic_model(g), "analytic")
    # |A| equals 1 / sqrt(dx L) at the magic step
    assert abs(kernel.amplitude) == pytest.approx(1.0 / math.sqrt(0.125 * 16.0), abs=1e-12)
    assert cmath.phase(kernel.amplitude) == pytest.approx(-math.pi / 4.0, abs=1e-12)
    assert kernel.unitarity_deviation < 1e-8
    # the deviation from the Gram rows matches the dense matrix's own
    assert kernel.unitarity_deviation == pytest.approx(max_row_sum_defect(kernel.matrix), abs=1e-15)


def test_kernel_entries_have_constant_magnitude():
    g = grid128()
    kernel = build_kernel(g, magic_model(g, harmonic_potential(1.0, 1.0)), "analytic")
    expected = g.spacing * abs(kernel.amplitude)
    np.testing.assert_allclose(np.abs(kernel.matrix), expected, rtol=1e-12)
    with pytest.raises(ValueError):
        kernel.matrix[0, 0] = 0.0


def test_off_magic_step_breaks_exact_unitarity():
    g = make_grid(64, -8.0, 0.25)
    tau = 1.3 * magic_time_step(g, 1.0, HBAR)
    kernel = build_kernel(g, StandardAction(PhysicalConstants(1.0, tau, HBAR), zero_potential()), "analytic")
    assert kernel.unitarity_deviation > 1e-2


def test_every_builtin_potential_is_exactly_unitary_at_magic_step():
    g = grid128()
    for pot in (zero_potential(), harmonic_potential(1.0, 1.0), quartic_potential(0.1)):
        kernel = build_kernel(g, magic_model(g, pot), "analytic")
        assert kernel.unitarity_deviation < 1e-8


def test_deviation_invariant_under_constant_potential_shift():
    g = grid128()
    shifted = Potential("shifted", lambda x: np.full_like(np.asarray(x, float), 2.5), lambda x: np.zeros_like(np.asarray(x, float)))
    k0 = build_kernel(g, magic_model(g), "analytic")
    k1 = build_kernel(g, magic_model(g, shifted), "analytic")
    assert k1.unitarity_deviation == pytest.approx(k0.unitarity_deviation, abs=1e-12)


def test_analytic_mode_rejects_probe_actions():
    g = grid128()
    tau = magic_time_step(g, 1.0, HBAR)
    probe = QuarticAction(PhysicalConstants(1.0, tau, HBAR), zero_potential(), 0.1)
    with pytest.raises(ValueError):
        build_kernel(g, probe, "analytic")
    with pytest.raises(ValueError):
        build_kernel(g, magic_model(g), "nonsense-mode")


def test_calibrated_mode_recovers_analytic_amplitude():
    g = grid128()
    model = magic_model(g, harmonic_potential(1.0, 1.0))
    kernel = build_kernel(g, model, "calibrated")
    assert abs(kernel.amplitude) == pytest.approx(abs(analytic_amplitude(model)), rel=1e-6)
    assert kernel.unitarity_deviation < 1e-8


def third_and_half_magic_models(grid):
    tau = magic_time_step(grid, 1.0, HBAR)
    return [StandardAction(PhysicalConstants(1.0, tau / q, HBAR), harmonic_potential(1.0, 1.0)) for q in (3, 2)]


@pytest.mark.parametrize("n", [128, 256])
def test_calibration_at_a_third_of_the_magic_step_is_the_gauss_sum_amplitude(n):
    # At tau*/q with gcd(q, N) = 1 the kernel is exactly unitary at |A| = 1 / (w sqrt(N)).
    g = make_grid(n, -8.0, 16.0 / n)
    third, half = third_and_half_magic_models(g)
    kernel = build_kernel(g, third, "calibrated")
    assert abs(kernel.amplitude) == pytest.approx(1.0 / (g.spacing * math.sqrt(n)), rel=1e-12)
    assert kernel.unitarity_deviation < 1e-10
    assert kernel.calibration["at_bracket_edge"] is False
    # At tau*/2 the off-diagonal row sum equals N: the defect is 1 for every
    # magnitude up to 1 / (w sqrt(N)), so which one is taken is not asserted.
    kernel = build_kernel(g, half, "calibrated")
    assert kernel.calibration["offdiag_row_sum"] == pytest.approx(n, rel=1e-9)
    assert kernel.unitarity_deviation == pytest.approx(1.0, abs=1e-9)


def test_unitary_at_a_third_of_the_magic_step_but_not_tracking():
    from dtqm import ehrenfest_run

    g = make_grid(256, -8.0, 0.0625)
    third, _ = third_and_half_magic_models(g)
    series = ehrenfest_run(third, g, 0.5, 0.3, 1.0, 50, amplitude_mode="calibrated")
    assert np.max(np.abs(series.norm - 1.0)) < 1e-12
    assert series.max_position_deviation() > 1.0


def test_calibrated_probe_deviation_far_exceeds_standard():
    g = grid128()
    tau = magic_time_step(g, 1.0, HBAR)
    c = PhysicalConstants(1.0, tau, HBAR)
    standard_dev = build_kernel(g, magic_model(g), "analytic").unitarity_deviation
    quartic_dev = build_kernel(g, QuarticAction(c, zero_potential(), 0.1), "calibrated").unitarity_deviation
    sine_dev = build_kernel(g, SineAction(c, 1.0), "calibrated").unitarity_deviation
    assert quartic_dev > 1e3 * standard_dev
    assert quartic_dev > 1e-3
    assert sine_dev > 1e-3


def test_calibration_error_on_nonfinite_landscape():
    class Exploding(ActionModel):
        kind = "exploding"

        def s(self, x, y):
            return np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), np.inf)

    g = make_grid(8, 0.0, 1.0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError, match="kernel phase is not finite"):
            build_kernel(g, Exploding(PhysicalConstants(1.0, 0.1, HBAR)), "calibrated")


def test_evolve_preserves_norm_over_100_steps():
    g = make_grid(256, -8.0, 0.0625)
    kernel = build_kernel(g, magic_model(g), "analytic")
    psi, _ = make_gaussian(g, 0.0, 0.0, 1.0, HBAR)
    for _ in range(100):
        psi = evolve(kernel, psi)
    assert abs(norm(g, psi) - 1.0) < 1e-6


def test_evolve_adjoint_roundtrip():
    g = grid128()
    kernel = build_kernel(g, magic_model(g, harmonic_potential(1.0, 1.0)), "analytic")
    psi, _ = make_gaussian(g, 0.5, 0.3, 1.0, HBAR)
    forward = evolve(kernel, psi)
    back = kernel.matrix.conj().T @ forward
    tolerance = 10.0 * kernel.unitarity_deviation + 1e-12
    assert float(np.max(np.abs(back - psi))) < tolerance


def test_evolve_is_linear():
    g = make_grid(64, -4.0, 0.125)
    kernel = build_kernel(g, magic_model(g), "analytic")
    rng = np.random.default_rng(12)
    psi1 = rng.normal(size=64) + 1j * rng.normal(size=64)
    psi2 = rng.normal(size=64) + 1j * rng.normal(size=64)
    a, b = 0.7 - 0.2j, -1.1 + 0.4j
    combined = evolve(kernel, a * psi1 + b * psi2)
    separate = a * evolve(kernel, psi1) + b * evolve(kernel, psi2)
    np.testing.assert_allclose(combined, separate, atol=1e-12)
    zero = evolve(kernel, np.zeros(64, dtype=complex))
    assert np.all(zero == 0.0)


def test_gauged_kernel_is_phase_conjugation_of_standard():
    g = grid128()
    tau = magic_time_step(g, 1.0, HBAR)
    c = PhysicalConstants(1.0, tau, HBAR)
    pot = harmonic_potential(1.0, 1.0)
    phase = quadratic_phase(0.3)
    plain = build_kernel(g, StandardAction(c, pot), "analytic")
    gauged = build_kernel(g, GaugedAction(c, pot, phase), "analytic")
    phi = np.exp(1j * phase.phi(g.points) / HBAR)
    conjugated = phi[:, None] * plain.matrix * phi.conj()[None, :]
    np.testing.assert_allclose(gauged.matrix, conjugated, atol=1e-12)
    assert gauged.unitarity_deviation == pytest.approx(plain.unitarity_deviation, abs=1e-12)


def test_pathsum_single_step_is_matrix_entry():
    g = make_grid(16, -2.0, 0.25)
    kernel = build_kernel(g, magic_model(g, harmonic_potential(1.0, 1.0)), "analytic")
    assert multi_step_pathsum(kernel, 1, 3, 11) == pytest.approx(kernel.matrix[11, 3], abs=1e-15)


def test_pathsum_matches_matrix_square():
    g = make_grid(32, -4.0, 0.25)
    kernel = build_kernel(g, magic_model(g, harmonic_potential(1.0, 1.0)), "analytic")
    squared = kernel.matrix @ kernel.matrix
    for initial, final in [(0, 0), (3, 17), (31, 5), (12, 12)]:
        value = multi_step_pathsum(kernel, 2, initial, final)
        reference = squared[final, initial]
        assert abs(value - reference) / abs(reference) < 1e-10


def test_pathsum_matches_matrix_cube():
    g = make_grid(16, -2.0, 0.25)
    kernel = build_kernel(g, magic_model(g), "analytic")
    cubed = kernel.matrix @ kernel.matrix @ kernel.matrix
    for initial, final in [(0, 0), (2, 11), (15, 3)]:
        value = multi_step_pathsum(kernel, 3, initial, final)
        reference = cubed[final, initial]
        assert abs(value - reference) / abs(reference) < 1e-10


def test_momentum_identity_residual_free_and_harmonic():
    g = grid128()
    alpha = math.sqrt(2.0)
    free = build_kernel(g, magic_model(g), "analytic")
    psi, _ = make_gaussian(g, 0.5, 0.0, alpha, HBAR)
    assert momentum_identity_residual(free, psi) < 1e-2
    harmonic = build_kernel(g, magic_model(g, harmonic_potential(1.0, 1.0)), "analytic")
    assert momentum_identity_residual(harmonic, psi) < 5e-2


def test_momentum_identity_sign_probe():
    # Flipping the sign of the momentum must leave an O(1) residual.
    g = grid128()
    kernel = build_kernel(g, magic_model(g), "analytic")
    psi, _ = make_gaussian(g, 0.5, 0.0, math.sqrt(2.0), HBAR)
    assert momentum_identity_residual(kernel, psi, sign=-1.0) > 1.0


@pytest.mark.parametrize("n", [16, 255, 1024])
@pytest.mark.parametrize("tau_factor", [1.0, 0.93])
@pytest.mark.parametrize("mode", ["analytic", "calibrated"])
def test_fft_apply_matches_dense_matrix(n, tau_factor, mode):
    # Oracle: the FFT apply of the standard/gauged family against the dense kernel.
    g = make_grid(n, -8.0, 16.0 / n)
    c = PhysicalConstants(1.0, tau_factor * magic_time_step(g, 1.0, HBAR), HBAR)
    pot = harmonic_potential(1.0, 1.0)
    rng = np.random.default_rng(n)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    models = [StandardAction(c, pot), GaugedAction(c, pot, linear_phase(0.7)), GaugedAction(c, pot, quadratic_phase(0.3))]
    for model in models:
        kernel = build_kernel(g, model, mode)
        assert float(np.max(np.abs(kernel.apply(v) - kernel.matrix @ v))) <= 1e-12 * np.linalg.norm(v)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    n=st.integers(4, 300),
    q=st.integers(1, 7),
    share=st.sampled_from([1.0, 0.93, 1.7]),
    potential=st.sampled_from(
        [zero_potential(), harmonic_potential(1.0, 1.0), quartic_potential(0.3), cosine_well_potential(0.8, 2.0)]
    ),
    phase=st.sampled_from([None, linear_phase(0.7), quadratic_phase(0.5)]),
    centre=st.floats(-30.0, 30.0),
    spacing=st.floats(0.02, 0.5),
    mode=st.sampled_from(["analytic", "calibrated"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_matches_the_dense_matrix_to_coordinate_rounding(n, q, share, potential, phase, centre, spacing, mode, seed):
    # The dense matrix evaluates S(x_j, x_k) from coordinates of size |x|, so
    # it carries their rounding: about eps max|S| from S itself and
    # eps (m / tau) max|x| L from the kinetic difference. The chirped kinetic
    # phase of apply comes from integers and is exact. Units: w |A| sqrt(N) |v|.
    g = make_grid(n, centre - 0.5 * n * spacing, spacing)
    c = PhysicalConstants(1.0, share * magic_time_step(g, 1.0, HBAR) / q, HBAR)
    model = StandardAction(c, potential) if phase is None else GaugedAction(c, potential, phase)
    kernel = build_kernel(g, model, mode)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    x = g.points
    s_max = float(np.max(np.abs(model.s(x[:, None], x[None, :]))))
    coordinates = c.mass / c.time_step * float(np.max(np.abs(x))) * g.extent
    unit = spacing * abs(kernel.amplitude) * math.sqrt(n) * np.linalg.norm(v)
    bound = 4 * np.finfo(float).eps * ((s_max + coordinates) / HBAR + n) * unit
    assert float(np.max(np.abs(kernel.apply(v) - kernel.matrix @ v))) <= bound


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    n=st.integers(4, 300),
    q=st.integers(1, 7),
    share=st.sampled_from([1.0, 0.93, 1.7]),
    potential=st.sampled_from(
        [zero_potential(), harmonic_potential(1.0, 1.0), quartic_potential(0.3), cosine_well_potential(0.8, 2.0)]
    ),
    action=st.sampled_from(["standard", "linear", "quadratic", "quartic", "sine"]),
    centre=st.floats(-30.0, 30.0),
    spacing=st.floats(0.02, 0.5),
    mode=st.sampled_from(["analytic", "calibrated"]),
)
def test_unitarity_deviation_matches_the_dense_defect(n, q, share, potential, action, centre, spacing, mode):
    # The deviation comes from the Gram rows of the phases; the oracle forms
    # U U^dagger from the matrix. They agree to rounding: the worst of 18,200
    # scratch draws of this strategy was 10.5 eps max(1, defect).
    g = make_grid(n, centre - 0.5 * n * spacing, spacing)
    c = PhysicalConstants(1.0, share * magic_time_step(g, 1.0, HBAR) / q, HBAR)
    model = {
        "standard": lambda: StandardAction(c, potential),
        "linear": lambda: GaugedAction(c, potential, linear_phase(0.7)),
        "quadratic": lambda: GaugedAction(c, potential, quadratic_phase(0.5)),
        "quartic": lambda: QuarticAction(c, potential, 0.1),
        "sine": lambda: SineAction(c, 1.0),
    }[action]()
    kernel = build_kernel(g, model, mode if is_standard_family(model) else "calibrated")
    defect = max_row_sum_defect(kernel.matrix)
    assert abs(kernel.unitarity_deviation - defect) <= 16 * np.finfo(float).eps * max(1.0, defect)


@pytest.mark.parametrize("n", [64, 1024])
def test_free_kernel_at_the_magic_step_moves_the_density_half_a_box_in_n_steps(n):
    # For even N, U^N at tau* is a monomial matrix: |U^N v|^2 is |v|^2 rolled by N/2 points.
    g = make_grid(n, -16.0, 32.0 / n)
    c = PhysicalConstants(1.0, magic_time_step(g, 1.0, HBAR), HBAR)
    v, _ = make_gaussian(g, -3.0, 0.4, 1.0, HBAR)
    density = np.abs(v) ** 2
    for model in (StandardAction(c, zero_potential()), GaugedAction(c, zero_potential(), linear_phase(0.4))):
        kernel = build_kernel(g, model, "analytic")
        w = v.copy()
        for _ in range(n):
            kernel.apply(w, out=w)
        assert np.max(np.abs(np.abs(w) ** 2 - np.roll(density, n // 2))) <= 1e-13 * np.max(density)


def test_dense_kernels_evolve_by_their_matrix():
    g = make_grid(32, -4.0, 0.25)
    c = PhysicalConstants(1.0, magic_time_step(g, 1.0, HBAR), HBAR)
    rng = np.random.default_rng(3)
    for model in (QuarticAction(c, zero_potential(), 0.1), SineAction(c, 1.0)):
        kernel = build_kernel(g, model, "calibrated")
        v = rng.normal(size=g.n_points) + 1j * rng.normal(size=g.n_points)
        assert np.array_equal(evolve(kernel, v), kernel.matrix @ v)


def test_a_2d_action_is_refused_at_the_lattice():
    from dtqm import VectorPotentialAction2D, bilinear_field, ehrenfest_run

    g = make_grid(32, -4.0, 0.25)
    c = PhysicalConstants(1.0, magic_time_step(g, 1.0, HBAR), HBAR)
    model = VectorPotentialAction2D(c, zero_potential(), bilinear_field(0.1), bilinear_field(0.0))
    for mode in ("analytic", "calibrated"):
        with pytest.raises(ValueError, match="got a 2D action"):
            build_kernel(g, model, mode)
    with pytest.raises(ValueError, match="one-dimensional"):
        ehrenfest_run(model, g, 0.0, 0.0, 1.0, 5)


def test_analytic_evolve_path_does_no_dense_work(monkeypatch):
    import dtqm.propagator
    from dtqm import ehrenfest_run

    def forbidden(*args, **kwargs):
        raise AssertionError("dense N x N work on the evolve path")

    monkeypatch.setattr(dtqm.propagator, "_dense_phases", forbidden)
    monkeypatch.setattr(dtqm.propagator, "unitarity_defect", forbidden)
    g = make_grid(1024, -8.0, 16.0 / 1024)
    series = ehrenfest_run(magic_model(g, harmonic_potential(1.0, 1.0)), g, 0.5, 0.3, 1.0, 20)
    assert abs(series.norm[-1] - 1.0) < 1e-10
    small = make_grid(256, -8.0, 0.0625)
    c = PhysicalConstants(1.0, magic_time_step(small, 1.0, HBAR), HBAR)
    worst = gauge_equivalence_run(small, c, harmonic_potential(1.0, 1.0), quadratic_phase(0.3), 0.5, 0.3, n_steps=20)
    assert worst < 1e-10


def count_dense_work(monkeypatch) -> tuple[list, list]:
    """Record each _dense_phases result and each N^3 Gram product (unitarity_defect) from now on."""
    import dtqm.propagator

    dense_phases, gram_rows = dtqm.propagator._dense_phases, dtqm.propagator.unitarity_defect
    built, grams = [], []

    def counting_phases(grid, model):
        built.append(dense_phases(grid, model))
        return built[-1]

    def counting_grams(phases):
        grams.append(1)
        return gram_rows(phases)

    monkeypatch.setattr(dtqm.propagator, "_dense_phases", counting_phases)
    monkeypatch.setattr(dtqm.propagator, "unitarity_defect", counting_grams)
    return built, grams


def test_unitarity_deviation_is_computed_once(monkeypatch):
    built, grams = count_dense_work(monkeypatch)
    g = grid128()
    model = magic_model(g, harmonic_potential(1.0, 1.0))
    kernel = build_kernel(g, model, "analytic")
    assert not built and not grams
    first = kernel.unitarity_deviation
    assert kernel.unitarity_deviation == first == pytest.approx(max_row_sum_defect(kernel.matrix), abs=1e-15)
    assert (len(built), len(grams)) == (1, 1)
    # Built on first read bit for bit as a calibrated build assembles it.
    assert np.array_equal(kernel.matrix, g.spacing * kernel.amplitude * built[0][0])
    # cli's build reads the matrix (for eigvals) before the deviation: still one Gram product.
    built.clear()
    grams.clear()
    c = PhysicalConstants(1.0, 0.93 * magic_time_step(g, 1.0, HBAR), HBAR)
    off_magic = build_kernel(g, StandardAction(c, harmonic_potential(1.0, 1.0)), "analytic")
    matrix = off_magic.matrix
    assert off_magic.unitarity_deviation == pytest.approx(max_row_sum_defect(matrix), rel=1e-14)
    assert (len(built), len(grams)) == (1, 1)


def test_a_calibrated_kernel_builds_its_dense_phases_once(monkeypatch):
    built, grams = count_dense_work(monkeypatch)
    g = make_grid(32, -4.0, 0.25)
    c = PhysicalConstants(1.0, magic_time_step(g, 1.0, HBAR), HBAR)
    for model in (QuarticAction(c, zero_potential(), 0.1), StandardAction(c, harmonic_potential(1.0, 1.0))):
        built.clear()
        grams.clear()
        kernel = build_kernel(g, model, "calibrated")
        assert kernel.unitarity_deviation == pytest.approx(max_row_sum_defect(kernel.matrix), abs=1e-14)
        kernel.apply(np.ones(g.n_points, dtype=complex))
        # The matrix scales the phases calibration built, and the deviation reads
        # calibration's Gram rows: nothing is built or multiplied again.
        assert (len(built), len(grams)) == (1, 1)
        assert np.array_equal(kernel.matrix, g.spacing * kernel.amplitude * built[0][0])


def count_ffts(monkeypatch) -> list:
    """Record (name, length) of every np.fft.fft / np.fft.ifft call from now on."""
    calls = []

    def counting(name, transform):
        def wrapped(*args, **kwargs):
            result = transform(*args, **kwargs)
            calls.append((name, len(result)))
            return result

        return wrapped

    monkeypatch.setattr(np.fft, "fft", counting("fft", np.fft.fft))
    monkeypatch.setattr(np.fft, "ifft", counting("ifft", np.fft.ifft))
    return calls


def expected_ffts(n: int, tau_factor: float) -> list:
    # tau* / q: one forward size-N FFT (the chirped DFT); otherwise the 2N pair.
    if tau_factor in (1.0, 1.0 / 2.0, 1.0 / 3.0, 0.2):
        return [("fft", n)]
    return [("fft", 2 * n), ("ifft", 2 * n)]


@pytest.mark.parametrize("n", [16, 255, 256, 257, 1024])
@pytest.mark.parametrize("tau_factor", [1.0, 1.0 / 3.0, 0.93, 1.0 / 2.0, 0.2])
def test_circulant_apply_matches_dense_matrix(n, tau_factor, monkeypatch):
    # Oracle: at tau* / q the kinetic factor is a chirped DFT with exact integer
    # phases, its rows gathered by q j mod N (not a permutation when gcd(q, N) > 1);
    # the dense matrix is built from model.s all the same.
    g = make_grid(n, -8.0, 16.0 / n)
    c = PhysicalConstants(1.0, tau_factor * magic_time_step(g, 1.0, HBAR), HBAR)
    pot = harmonic_potential(1.0, 1.0)
    rng = np.random.default_rng(n)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    for model in (StandardAction(c, pot), GaugedAction(c, pot, quadratic_phase(0.3))):
        kernel = build_kernel(g, model)
        with monkeypatch.context() as patch:
            calls = count_ffts(patch)
            result = kernel.apply(v)
        assert calls == expected_ffts(n, tau_factor)
        assert float(np.max(np.abs(result - kernel.matrix @ v))) <= 1e-12 * np.linalg.norm(v)


@pytest.mark.parametrize("n", [16, 255, 256, 257, 1024])
def test_magic_step_detection(n, monkeypatch):
    g = make_grid(n, -8.0, 16.0 / n)
    tau = magic_time_step(g, 1.0, HBAR)
    v = np.ones(n, dtype=complex)
    for factor in (1.0, 1.0 / 2.0, 1.0 / 3.0, 0.2, 0.93, 1.0 + 1e-9, 2.0):
        kernel = build_kernel(g, StandardAction(PhysicalConstants(1.0, factor * tau, HBAR), zero_potential()))
        with monkeypatch.context() as patch:
            calls = count_ffts(patch)
            kernel.apply(v)
        assert calls == expected_ffts(n, factor), factor
    # Gauss sum: at tau* the analytic amplitude is exactly 1 / (w sqrt(N)), and
    # the kernel is unitary for even and odd N alike (K = diag(c) F diag(c)).
    kernel = build_kernel(g, magic_model(g))
    assert abs(g.spacing * abs(kernel.amplitude) * math.sqrt(n) - 1.0) <= 1e-12
    assert max_row_sum_defect(kernel.matrix) < 1e-10


def test_apply_into_out_is_bit_identical():
    from dtqm import SineAction

    g = make_grid(255, -8.0, 16.0 / 255)
    tau = magic_time_step(g, 1.0, HBAR)
    pot = harmonic_potential(1.0, 1.0)
    kernels = [
        build_kernel(g, StandardAction(PhysicalConstants(1.0, f * tau, HBAR), pot)) for f in (1.0, 1.0 / 3.0, 0.93)
    ]
    kernels.append(build_kernel(g, SineAction(PhysicalConstants(1.0, tau, HBAR), 1.0), "calibrated"))
    rng = np.random.default_rng(5)
    v = rng.normal(size=255) + 1j * rng.normal(size=255)
    for kernel in kernels:
        expected = kernel.apply(v)
        buf = np.empty_like(v)
        assert kernel.apply(v, out=buf) is buf
        np.testing.assert_array_equal(buf, expected)
        alias = v.copy()
        assert kernel.apply(alias, out=alias) is alias
        np.testing.assert_array_equal(alias, expected)


def test_magic_apply_into_out_allocates_nothing():
    import tracemalloc

    n = 1024
    g = make_grid(n, -8.0, 16.0 / n)
    tau = magic_time_step(g, 1.0, HBAR)
    pot = harmonic_potential(1.0, 1.0)
    rng = np.random.default_rng(7)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    out = np.empty_like(v)
    kernel = build_kernel(g, StandardAction(PhysicalConstants(1.0, tau, HBAR), pot))
    for _ in range(3):  # warm-up: numpy's FFT caches its plan on first use
        kernel.apply(v, out=out)
    tracemalloc.start()
    try:
        kernel.apply(v, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One complex vector of n points is 16 n bytes; a step holds less than that.
    assert peak < 16 * n
    # At tau* / 3 the gather copies one vector, and the values still match the matrix.
    kernel = build_kernel(g, StandardAction(PhysicalConstants(1.0, tau / 3.0, HBAR), pot))
    assert kernel.apply(v, out=out) is out
    assert float(np.max(np.abs(out - kernel.matrix @ v))) <= 1e-12 * np.linalg.norm(v)


def test_dense_size_limit_applies_to_the_matrix_only():
    from dtqm.propagator import MAX_POINTS_1D

    n = 2 * MAX_POINTS_1D
    g = make_grid(n, -8.0, 16.0 / n)
    model = magic_model(g, harmonic_potential(1.0, 1.0))
    kernel = build_kernel(g, model)
    psi, _ = make_gaussian(g, 0.5, 0.3, 1.0, HBAR)
    for _ in range(10):
        psi = evolve(kernel, psi)
    assert abs(norm(g, psi) - 1.0) < 1e-12
    with pytest.raises(ValueError, match=f"dense 1D kernels are limited to {MAX_POINTS_1D} points, got {n}"):
        kernel.matrix
    with pytest.raises(ValueError, match="dense 1D kernels are limited"):
        build_kernel(g, model, "calibrated")


def builtin_family_models(constants):
    """Every built-in potential as a standard action and under every built-in gauge phase."""
    from dtqm import cosine_well_potential, linear_phase, zero_phase

    pots = [zero_potential(), harmonic_potential(1.0, 1.0), quartic_potential(0.02), cosine_well_potential(6.0, 0.35)]
    phases = [zero_phase(), linear_phase(0.3), quadratic_phase(0.2)]
    return [StandardAction(constants, p) for p in pots] + [
        GaugedAction(constants, p, phase) for p in pots for phase in phases
    ]


def gauss_sum_cases():
    """(n, q, tau factor, model index, mode): each lattice, q, step, built-in and mode at least once.

    Every (n, q) with gcd(q, n) = 1 is taken at tau* / q and 1e-13 either side
    of it; the 16 built-in models and the two modes rotate through the cases.
    """
    steps = [
        (n, q, f)
        for n in (16, 127, 128, 255, 256)
        for q in (1, 2, 3, 5)
        if math.gcd(q, n) == 1
        for f in (1.0, 1.0 + 1e-13, 1.0 - 1e-13)
    ]
    return [(n, q, f, i % 16, ("analytic", "calibrated")[i // 16 % 2]) for i, (n, q, f) in enumerate(steps)]


@pytest.mark.parametrize("n, q, tau_factor, model_index, mode", gauss_sum_cases())
def test_gauss_sum_magnitude_matches_eigvals(n, q, tau_factor, model_index, mode):
    g = make_grid(n, -8.0, 16.0 / n)
    c = PhysicalConstants(1.0, tau_factor * magic_time_step(g, 1.0, HBAR) / q, HBAR)
    kernel = build_kernel(g, builtin_family_models(c)[model_index], mode)
    gauss = g.spacing * abs(kernel.amplitude) * math.sqrt(n)
    magnitudes = np.abs(np.linalg.eigvals(kernel.matrix))
    worst = max(abs(magnitudes.min() - gauss), abs(magnitudes.max() - gauss)) / gauss
    # The dense matrix is built from S at the configured step itself. A relative
    # step error delta adds the phase -a delta (j - k)^2 with a = pi q / N; its
    # cross term 2 a delta j k moves the singular values, and so the eigenvalue
    # magnitudes, by up to 2 pi q N |delta| to first order.
    assert worst <= 2.0 * math.pi * q * n * abs(tau_factor - 1.0) + 1e-12
    if tau_factor == 1.0:
        assert (kernel.q, kernel.apply_path) == (q, "chirped_dft")
        assert kernel.gauss_sum_magnitude == gauss
    else:
        # 1e-13 off tau* / q is past the rounding-level snap: no Gauss sum is
        # claimed, and apply() is the kernel from S at the configured step.
        assert (kernel.q, kernel.apply_path, kernel.gauss_sum_magnitude) == (None, "embedding_2n", None)
        assert kernel.summary["q_offset"] is None
        rng = np.random.default_rng(n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert float(np.max(np.abs(kernel.apply(v) - kernel.matrix @ v))) <= 1e-12 * np.linalg.norm(v)


def test_the_benchmarks_operating_points_snap(tmp_path):
    # evolve_1024 steps at tau*: a kernel that missed the snap would take the
    # size-2N FFT pair on every step. 128 points at spacing 0.125 is the
    # pipeline's build lattice.
    import json

    from dtqm.config import build_action, build_grid, load_config
    from dtqm.correspondence import _sweep_grid

    def snapped(grid, model):
        kernel = build_kernel(grid, model)
        return kernel.apply_path, kernel.q

    def harmonic(mass, tau, hbar):
        return StandardAction(PhysicalConstants(mass, tau, hbar), harmonic_potential(mass, 1.0))

    for n in (4, 39, 128, 256, 1024, 4096):
        for mass in (0.37, 1.0, 2.5):
            for length in (16.0, 32.0):
                grid = {"n_points": n, "x_min": -0.5 * length, "spacing": length / n}
                payload = {
                    "grid": grid,
                    "constants": {"mass": mass, "hbar": 1.0, "tau": "magic"},
                    "action": {"kind": "standard", "potential": {"name": "harmonic", "omega": 1.0}},
                    "run": {"x0": 0.0, "p0": 0.0, "n_steps": 1},
                }
                path = tmp_path / "evolve.json"
                path.write_text(json.dumps(payload))
                cfg = load_config(str(path), "evolve")
                g = build_grid(cfg)
                assert snapped(g, build_action(cfg)) == ("chirped_dft", 1), (n, mass, length)
                magic = magic_time_step(g, mass, 1.0)
                for q in range(2, 8):
                    assert snapped(g, harmonic(mass, magic / q, 1.0)) == ("chirped_dft", q), (n, mass, length, q)
            for hbar in (1.0, 0.7, 0.5, 0.35, 0.25):
                g = _sweep_grid(hbar, mass, 0.1, n, 0.3)
                assert snapped(g, harmonic(mass, 0.1, hbar)) == ("chirped_dft", 1), (n, mass, hbar)


def test_gauss_sum_magnitude_is_none_where_the_spectrum_is_not_known():
    class Subclass(StandardAction):
        pass

    g = make_grid(16, -4.0, 0.5)
    tau = magic_time_step(g, 1.0, HBAR)

    def kernel(factor, make=StandardAction, mode="analytic"):
        c = PhysicalConstants(1.0, factor * tau, HBAR)
        model = make(c, zero_potential()) if make in (StandardAction, Subclass) else make(c)
        return build_kernel(g, model, mode)

    cases = [
        (kernel(0.93), "embedding_2n", None),
        (kernel(0.5), "chirped_dft", 2),  # gcd(2, 16) = 2: F_2 repeats rows
        (kernel(1.0 / 16.0), "chirped_dft", 16),  # every row is the first
        (kernel(1.0, lambda c: QuarticAction(c, zero_potential(), 0.1), "calibrated"), "dense", None),
        (kernel(1.0, lambda c: SineAction(c, 1.0), "calibrated"), "dense", None),
        (kernel(1.0, Subclass, "calibrated"), "dense", None),
    ]
    for k, path, q in cases:
        assert (k.apply_path, k.q, k.gauss_sum_magnitude) == (path, q, None)
    assert kernel(1.0).gauss_sum_magnitude == pytest.approx(1.0, abs=1e-15)
