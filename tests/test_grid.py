"""Tests for lattices, wavefunctions, Gaussian packets and gauge phases.

Observables come from ``packet_observables``, the one observables API. The
inner-product tests check ``oracles.inner``, the quadrature oracle that other
tests rely on.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import expect_p, expect_x, inner, norm, position_spread

from dtqm import (
    WaveState,
    apply_gauge_phase,
    make_gaussian,
    make_grid,
    momentum_matrix,
    packet_observables,
)

HBAR = 1.0


def observables(psi):
    """(x_mean, p_mean, x_spread, norm) of one state, through packet_observables."""
    return tuple(float(column[0]) for column in packet_observables(psi.amplitudes[None, :], psi.grid, HBAR))


def x_mean(psi):
    return observables(psi)[0]


def p_mean(psi):
    return observables(psi)[1]


def x_spread(psi):
    return observables(psi)[2]


def packet_norm(psi):
    return observables(psi)[3]


def grid128():
    return make_grid(128, -8.0, 0.125)


def test_make_grid_extent():
    g = grid128()
    assert g.extent == 16.0
    assert g.points[-1] == 7.875
    g4 = make_grid(4, 0.0, 1.0)
    np.testing.assert_array_equal(g4.points, [0.0, 1.0, 2.0, 3.0])
    assert g4.extent == 4.0
    assert g4.points is g4.points
    with pytest.raises(ValueError):
        g4.points[0] = 1.0


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        make_grid(3, 0.0, 1.0)
    with pytest.raises(ValueError):
        make_grid(8, 0.0, 0.0)
    with pytest.raises(ValueError):
        make_grid(8, 0.0, -0.5)


def test_wavestate_validates_shape_and_is_readonly():
    g = make_grid(8, 0.0, 1.0)
    with pytest.raises(ValueError):
        WaveState(g, np.ones(7))
    with pytest.raises(ValueError):
        WaveState(g, np.array([np.inf] + [0.0] * 7))
    psi = WaveState(g, np.ones(8))
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 2.0


def test_inner_normalized_state():
    g = grid128()
    psi = make_gaussian(g, 0.0, 0.0, 1.0, HBAR)
    assert abs(inner(psi, psi) - 1.0) < 1e-12


def test_inner_disjoint_supports():
    g = make_grid(16, 0.0, 1.0)
    a = np.zeros(16, dtype=complex)
    b = np.zeros(16, dtype=complex)
    a[:4] = 1.0
    b[8:] = 1.0 + 0.5j
    assert inner(WaveState(g, a), WaveState(g, b)) == 0.0


def test_inner_conjugate_symmetry():
    g = make_grid(32, -4.0, 0.25)
    rng = np.random.default_rng(11)
    a = WaveState(g, rng.normal(size=32) + 1j * rng.normal(size=32))
    b = WaveState(g, rng.normal(size=32) + 1j * rng.normal(size=32))
    assert inner(a, b) == pytest.approx(np.conj(inner(b, a)), abs=1e-15)


def test_inner_positive_definite():
    g = make_grid(32, -4.0, 0.25)
    rng = np.random.default_rng(7)
    for _ in range(20):
        amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        value = inner(WaveState(g, amps), WaveState(g, amps))
        assert value.real > 0.0
        assert abs(value.imag) < 1e-15 * value.real


def test_expect_x_symmetric_packet():
    g = grid128()
    psi = make_gaussian(g, 1.5, 0.0, 1.0, HBAR)
    assert x_mean(psi) == pytest.approx(1.5, abs=1e-9)


def test_expect_x_uniform_state_gives_grid_midpoint():
    g = grid128()
    amps = np.full(128, 1.0 / math.sqrt(16.0), dtype=complex)
    psi = WaveState(g, amps)
    midpoint = float(np.mean(g.points))
    assert x_mean(psi) == pytest.approx(midpoint, abs=1e-12)


def test_expect_x_offset_gaussian():
    g = grid128()
    psi = make_gaussian(g, -2.0, 0.0, 1.0, HBAR)
    # independent quadrature of the sampled density
    dens = np.abs(psi.amplitudes) ** 2
    oracle = float(np.sum(g.points * dens) * 0.125)
    assert x_mean(psi) == pytest.approx(oracle, abs=1e-14)
    assert x_mean(psi) == pytest.approx(-2.0, abs=1e-9)


def test_packet_observables_divide_by_the_row_norm():
    # A scaled copy of a state has the same means and spread, and its norm scales.
    g = grid128()
    psi = make_gaussian(g, -1.0, 0.4, 1.0, HBAR)
    x, p, spread, n = packet_observables(np.array([psi.amplitudes, 3.0 * psi.amplitudes]), g, HBAR)
    assert x[1] == pytest.approx(x[0], abs=1e-14)
    assert p[1] == pytest.approx(p[0], abs=1e-14)
    assert spread[1] == pytest.approx(spread[0], abs=1e-14)
    assert n[1] == pytest.approx(3.0 * n[0], abs=1e-14)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(4, 300),
    rows=st.integers(1, 5),
    x_min=st.floats(-10.0, 9.0),
    fill=st.floats(0.01, 1.0),
    hbar=st.floats(1e-3, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_packet_observables_match_the_single_state_oracles(n, rows, x_min, fill, hbar, seed):
    # Random normalized rows on a lattice inside [-10, 10]; each row is checked
    # against the oracles at 1e-13 times the scale of the quantity. The spread
    # is checked as the variance, on the scale of the second moment: both sides
    # take it as <x^2> - <x>^2, whose rounding on that scale a square root
    # divides by the spread.
    g = make_grid(n, x_min, fill * (10.0 - x_min) / n)
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
    block /= np.sqrt(g.spacing * np.sum(np.abs(block) ** 2, axis=1, keepdims=True))
    x, p, spread, norms = packet_observables(block.copy(), g, hbar)
    x_scale = float(np.max(np.abs(g.points)))
    p_scale = hbar / g.spacing
    for r in range(rows):
        psi = WaveState(g, block[r])
        assert abs(x[r] - expect_x(psi)) <= 1e-13 * x_scale
        assert abs(spread[r] ** 2 - position_spread(psi) ** 2) <= 1e-13 * x_scale**2
        assert abs(p[r] - expect_p(psi, hbar)) <= 1e-13 * p_scale
        assert abs(norms[r] - norm(psi)) <= 1e-13


def test_expect_p_real_state_is_zero():
    g = grid128()
    psi = make_gaussian(g, 0.5, 0.0, 1.0, HBAR)  # p0 = 0 gives a real profile
    assert abs(p_mean(psi)) < 1e-9


def test_expect_p_plane_wave_matches_difference_formula():
    # A lattice-commensurate plane wave is an exact eigenvector of the
    # central-difference operator with eigenvalue hbar sin(p dx / hbar) / dx.
    g = grid128()
    dx, length = 0.125, 16.0
    p0 = 2.0 * math.pi / length  # one Fourier mode, about 0.3927
    xs = g.points
    psi = WaveState(g, np.exp(1j * p0 * xs / HBAR) / math.sqrt(length))
    expected = HBAR * math.sin(p0 * dx / HBAR) / dx
    assert p_mean(psi) == pytest.approx(expected, abs=1e-12)
    # close to p0 itself for this resolution
    assert p_mean(psi) == pytest.approx(p0, abs=1e-3)


def test_expect_p_gaussian_packet():
    # Quadrature oracle: p0 * sinc(p0 dx / hbar) * exp(-dx^2 / (8 sigma^2)).
    g = make_grid(256, -8.0, 0.0625)
    dx = 0.0625
    alpha, p0 = 2.0, 1.0
    sigma = alpha * math.sqrt(HBAR / 2.0)
    psi = make_gaussian(g, 0.0, p0, alpha, HBAR)
    oracle = p0 * (math.sin(p0 * dx / HBAR) / (p0 * dx / HBAR)) * math.exp(-dx * dx / (8 * sigma * sigma))
    measured = p_mean(psi)
    assert measured == pytest.approx(oracle, abs=1e-6)
    assert measured == pytest.approx(p0, abs=1e-3)


def test_momentum_matrix_is_exactly_hermitian():
    g = grid128()
    p = momentum_matrix(g, HBAR)
    assert np.array_equal(p, p.conj().T)


def test_expect_p_matches_momentum_matrix():
    g = make_grid(64, -4.0, 0.125)
    psi = make_gaussian(g, 0.3, 0.7, 1.0, HBAR)
    p = momentum_matrix(g, HBAR)
    direct = (g.spacing * np.vdot(psi.amplitudes, p @ psi.amplitudes))
    assert abs(direct.imag) < 1e-9
    assert p_mean(psi) == pytest.approx(direct.real, abs=1e-13)


def test_make_gaussian_norm():
    g = grid128()
    psi = make_gaussian(g, 0.0, 0.5, 1.0, HBAR)
    assert abs(packet_norm(psi) - 1.0) < 1e-12
    assert psi.warnings == ()


def test_make_gaussian_position_variance():
    g = make_grid(256, -8.0, 0.0625)
    for alpha in (1.0, 1.5, 2.0):
        psi = make_gaussian(g, 0.0, 0.0, alpha, HBAR)
        expected = alpha * alpha * HBAR / 2.0
        variance = x_spread(psi) ** 2
        assert variance == pytest.approx(expected, rel=0.01)


def test_make_gaussian_uncertainty_product():
    g = make_grid(256, -8.0, 0.0625)
    psi = make_gaussian(g, 0.0, 0.0, 1.0, HBAR)
    p = momentum_matrix(g, HBAR)
    p_psi = p @ psi.amplitudes
    p_sq = (g.spacing * np.vdot(p_psi, p_psi)).real
    dp = math.sqrt(p_sq - p_mean(psi) ** 2)
    product = x_spread(psi) * dp
    assert product == pytest.approx(HBAR / 2.0, rel=0.02)


def test_make_gaussian_width_warnings():
    g = grid128()
    narrow = make_gaussian(g, 0.0, 0.0, 0.2, HBAR)  # sigma = 0.14 < 2 dx
    assert any("below resolvable" in w for w in narrow.warnings)
    wide = make_gaussian(g, 0.0, 0.0, 4.0, HBAR)  # sigma = 2.8 > L / 8
    assert any("above boundary-safe" in w for w in wide.warnings)


def test_make_gaussian_that_cannot_be_normalized_is_a_floating_point_error():
    # A width that underflows to 0 leaves no finite normalisation.
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="cannot be normalized"):
            make_gaussian(grid128(), 0.0, 0.0, 5e-324, HBAR)
    # A packet far outside the box underflows to zero everywhere.
    with pytest.raises(FloatingPointError, match="cannot be normalized"):
        make_gaussian(grid128(), 1e3, 0.0, 1.0, HBAR)


def test_apply_gauge_phase_zero_is_identity():
    g = grid128()
    psi = make_gaussian(g, 0.0, 0.3, 1.0, HBAR)
    out = apply_gauge_phase(psi, lambda x: np.zeros_like(x), HBAR)
    np.testing.assert_array_equal(out.amplitudes, psi.amplitudes)


def test_apply_gauge_phase_preserves_density():
    g = grid128()
    psi = make_gaussian(g, 0.0, 0.3, 1.0, HBAR)
    rng = np.random.default_rng(3)
    field = rng.normal(size=128) * 5.0
    out = apply_gauge_phase(psi, field, HBAR)
    np.testing.assert_allclose(np.abs(out.amplitudes), np.abs(psi.amplitudes), rtol=1e-15)
    assert packet_norm(out) == pytest.approx(packet_norm(psi), abs=1e-15)


def test_apply_gauge_phase_shifts_momentum():
    # Linear phase k x multiplies by exp(-i k x / hbar), shifting momentum by -k.
    g = grid128()
    length = 16.0
    k = 2.0 * math.pi / length  # commensurate so the shifted state stays exact
    uniform = WaveState(g, np.full(128, 1.0 / math.sqrt(length), dtype=complex))
    assert p_mean(uniform) == pytest.approx(0.0, abs=1e-15)
    shifted = apply_gauge_phase(uniform, lambda x: k * x, HBAR)
    formula = -HBAR * math.sin(k * 0.125 / HBAR) / 0.125
    assert p_mean(shifted) == pytest.approx(formula, abs=1e-12)
    assert p_mean(shifted) == pytest.approx(-k, abs=1e-3)


def test_apply_gauge_phase_rejects_nonfinite():
    g = grid128()
    psi = make_gaussian(g, 0.0, 0.0, 1.0, HBAR)
    field = np.zeros(128)
    field[5] = np.inf
    with pytest.raises(ValueError):
        apply_gauge_phase(psi, field, HBAR)
