"""Tests for lattices, Gaussian packets, packet observables and gauge phases.

Observables come from ``packet_observables``, the one observables API. The
inner-product tests check ``oracles.inner``, the quadrature oracle that other
tests rely on.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import expect_p, expect_x, inner, momentum, norm, position_spread

from dtqm import (
    make_gaussian,
    make_grid,
    packet_observables,
)

HBAR = 1.0


def observables(g, a):
    """(x_mean, p_mean, x_spread, norm) of one state, through packet_observables."""
    return tuple(float(column[0]) for column in packet_observables(a[None, :], g, HBAR))


def x_mean(g, a):
    return observables(g, a)[0]


def p_mean(g, a):
    return observables(g, a)[1]


def x_spread(g, a):
    return observables(g, a)[2]


def packet_norm(g, a):
    return observables(g, a)[3]


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
    np.testing.assert_array_equal(g4.centred_points, [-2.0, -1.0, 0.0, 1.0])
    assert g4.centred_points is g4.centred_points
    with pytest.raises(ValueError):
        g4.centred_points[0] = 1.0


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        make_grid(3, 0.0, 1.0)
    with pytest.raises(ValueError):
        make_grid(8, 0.0, 0.0)
    with pytest.raises(ValueError):
        make_grid(8, 0.0, -0.5)


def test_inner_normalized_state():
    g = grid128()
    psi, _ = make_gaussian(g, 0.0, 0.0, 1.0, HBAR)
    assert abs(inner(g, psi, psi) - 1.0) < 1e-12


def test_inner_disjoint_supports():
    g = make_grid(16, 0.0, 1.0)
    a = np.zeros(16, dtype=complex)
    b = np.zeros(16, dtype=complex)
    a[:4] = 1.0
    b[8:] = 1.0 + 0.5j
    assert inner(g, a, b) == 0.0


def test_inner_conjugate_symmetry():
    g = make_grid(32, -4.0, 0.25)
    rng = np.random.default_rng(11)
    a = rng.normal(size=32) + 1j * rng.normal(size=32)
    b = rng.normal(size=32) + 1j * rng.normal(size=32)
    assert inner(g, a, b) == pytest.approx(np.conj(inner(g, b, a)), abs=1e-15)


def test_inner_positive_definite():
    g = make_grid(32, -4.0, 0.25)
    rng = np.random.default_rng(7)
    for _ in range(20):
        amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        value = inner(g, amps, amps)
        assert value.real > 0.0
        assert abs(value.imag) < 1e-15 * value.real


def test_expect_x_symmetric_packet():
    g = grid128()
    psi, _ = make_gaussian(g, 1.5, 0.0, 1.0, HBAR)
    assert x_mean(g, psi) == pytest.approx(1.5, abs=1e-9)


def test_expect_x_uniform_state_gives_grid_midpoint():
    g = grid128()
    amps = np.full(128, 1.0 / math.sqrt(16.0), dtype=complex)
    midpoint = float(np.mean(g.points))
    assert x_mean(g, amps) == pytest.approx(midpoint, abs=1e-12)


def test_expect_x_offset_gaussian():
    g = grid128()
    psi, _ = make_gaussian(g, -2.0, 0.0, 1.0, HBAR)
    # independent quadrature of the sampled density
    dens = np.abs(psi) ** 2
    oracle = float(np.sum(g.points * dens) * 0.125)
    assert x_mean(g, psi) == pytest.approx(oracle, abs=1e-14)
    assert x_mean(g, psi) == pytest.approx(-2.0, abs=1e-9)


def test_packet_observables_divide_by_the_row_norm():
    # A scaled copy of a state has the same means and spread, and its norm scales.
    g = grid128()
    psi, _ = make_gaussian(g, -1.0, 0.4, 1.0, HBAR)
    x, p, spread, n = packet_observables(np.array([psi, 3.0 * psi]), g, HBAR)
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
    # is on the scale of the largest distance from the box centre: the
    # observables take its moments about the centre, the oracle about the mean.
    g = make_grid(n, x_min, fill * (10.0 - x_min) / n)
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
    block /= np.sqrt(g.spacing * np.sum(np.abs(block) ** 2, axis=1, keepdims=True))
    x, p, spread, norms = packet_observables(block.copy(), g, hbar)
    x_scale = float(np.max(np.abs(g.points)))
    c_scale = float(np.max(np.abs(g.centred_points)))
    p_scale = hbar / g.spacing
    for r, psi in enumerate(block):
        assert abs(x[r] - expect_x(g, psi)) <= 1e-13 * x_scale
        assert abs(spread[r] - position_spread(g, psi)) <= 1e-13 * c_scale
        assert abs(p[r] - expect_p(g, psi, hbar)) <= 1e-13 * p_scale
        assert abs(norms[r] - norm(g, psi)) <= 1e-13


def test_packet_spread_far_from_the_origin_matches_the_two_pass_oracle():
    # sigma = 0.00707 (3.6 dx) at x0 = 1000 on [999, 1001]: moments about the
    # origin, <x^2> - <x>^2, lose about 8.5e-7 of this spread to cancellation.
    hbar = 1e-4
    g = make_grid(1024, 999.0, 2.0 / 1024)
    psi, flags = make_gaussian(g, 1000.0, 0.0, 1.0, hbar)
    assert flags == ()
    spread = packet_observables(psi[None, :], g, hbar)[2][0]
    assert spread == pytest.approx(position_spread(g, psi), rel=1e-13)


def test_packet_spread_does_not_depend_on_where_the_box_sits():
    # The spread's moments are taken about the box centre, so the same
    # amplitudes on a translated lattice give the same spread, bit for bit.
    rng = np.random.default_rng(5)
    block = rng.normal(size=(3, 64)) + 1j * rng.normal(size=(3, 64))
    spreads = [packet_observables(block, make_grid(64, x_min, 0.125), HBAR)[2] for x_min in (-4.0, 0.0, 1e3)]
    np.testing.assert_array_equal(spreads[1], spreads[0])
    np.testing.assert_array_equal(spreads[2], spreads[0])


def test_expect_p_real_state_is_zero():
    g = grid128()
    psi, _ = make_gaussian(g, 0.5, 0.0, 1.0, HBAR)  # p0 = 0 gives a real profile
    assert abs(p_mean(g, psi)) < 1e-9


def test_expect_p_plane_wave_matches_difference_formula():
    # A lattice-commensurate plane wave is an exact eigenvector of the
    # central-difference operator with eigenvalue hbar sin(p dx / hbar) / dx.
    g = grid128()
    dx, length = 0.125, 16.0
    p0 = 2.0 * math.pi / length  # one Fourier mode, about 0.3927
    xs = g.points
    psi = np.exp(1j * p0 * xs / HBAR) / math.sqrt(length)
    expected = HBAR * math.sin(p0 * dx / HBAR) / dx
    assert p_mean(g, psi) == pytest.approx(expected, abs=1e-12)
    # close to p0 itself for this resolution
    assert p_mean(g, psi) == pytest.approx(p0, abs=1e-3)


def test_expect_p_gaussian_packet():
    # Quadrature oracle: p0 * sinc(p0 dx / hbar) * exp(-dx^2 / (8 sigma^2)).
    g = make_grid(256, -8.0, 0.0625)
    dx = 0.0625
    alpha, p0 = 2.0, 1.0
    sigma = alpha * math.sqrt(HBAR / 2.0)
    psi, _ = make_gaussian(g, 0.0, p0, alpha, HBAR)
    oracle = p0 * (math.sin(p0 * dx / HBAR) / (p0 * dx / HBAR)) * math.exp(-dx * dx / (8 * sigma * sigma))
    measured = p_mean(g, psi)
    assert measured == pytest.approx(oracle, abs=1e-6)
    assert measured == pytest.approx(p0, abs=1e-3)


def test_make_gaussian_norm():
    g = grid128()
    psi, flags = make_gaussian(g, 0.0, 0.5, 1.0, HBAR)
    assert abs(packet_norm(g, psi) - 1.0) < 1e-12
    assert flags == ()


def test_make_gaussian_returns_a_fresh_complex_array():
    g = grid128()
    first, _ = make_gaussian(g, 0.0, 0.5, 1.0, HBAR)
    second, _ = make_gaussian(g, 0.0, 0.5, 1.0, HBAR)
    assert first.shape == (128,) and first.dtype == complex
    assert first.flags.writeable and not np.shares_memory(first, second)
    np.testing.assert_array_equal(first, second)


def test_make_gaussian_position_variance():
    g = make_grid(256, -8.0, 0.0625)
    for alpha in (1.0, 1.5, 2.0):
        psi, _ = make_gaussian(g, 0.0, 0.0, alpha, HBAR)
        expected = alpha * alpha * HBAR / 2.0
        variance = x_spread(g, psi) ** 2
        assert variance == pytest.approx(expected, rel=0.01)


def test_make_gaussian_uncertainty_product():
    g = make_grid(256, -8.0, 0.0625)
    psi, _ = make_gaussian(g, 0.0, 0.0, 1.0, HBAR)
    p_psi = momentum(g, psi, HBAR)
    p_sq = (g.spacing * np.vdot(p_psi, p_psi)).real
    dp = math.sqrt(p_sq - p_mean(g, psi) ** 2)
    product = x_spread(g, psi) * dp
    assert product == pytest.approx(HBAR / 2.0, rel=0.02)


def test_make_gaussian_width_warnings():
    g = grid128()
    _, narrow = make_gaussian(g, 0.0, 0.0, 0.2, HBAR)  # sigma = 0.14 < 2 dx
    assert any("below resolvable" in w for w in narrow)
    _, wide = make_gaussian(g, 0.0, 0.0, 4.0, HBAR)  # sigma = 2.8 > L / 8
    assert any("above boundary-safe" in w for w in wide)


def test_make_gaussian_that_cannot_be_normalized_is_a_floating_point_error():
    # A width that underflows to 0 leaves no finite normalisation.
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="cannot be normalized"):
            make_gaussian(grid128(), 0.0, 0.0, 5e-324, HBAR)
    # A packet far outside the box underflows to zero everywhere.
    with pytest.raises(FloatingPointError, match="cannot be normalized"):
        make_gaussian(grid128(), 1e3, 0.0, 1.0, HBAR)


def test_apply_gauge_phase_preserves_density():
    # A gauge phase is the pointwise multiply by exp(i phi(x) / hbar): it keeps every |psi_j|.
    g = grid128()
    psi, _ = make_gaussian(g, 0.0, 0.3, 1.0, HBAR)
    rng = np.random.default_rng(3)
    field = rng.normal(size=128) * 5.0
    out = psi * np.exp(1j * field / HBAR)
    np.testing.assert_allclose(np.abs(out), np.abs(psi), rtol=1e-15)
    assert packet_norm(g, out) == pytest.approx(packet_norm(g, psi), abs=1e-15)


def test_apply_gauge_phase_shifts_momentum():
    # A linear phase k x multiplies by exp(i k x / hbar), shifting momentum by +k.
    g = grid128()
    length = 16.0
    k = 2.0 * math.pi / length  # commensurate so the shifted state stays exact
    uniform = np.full(128, 1.0 / math.sqrt(length), dtype=complex)
    assert p_mean(g, uniform) == pytest.approx(0.0, abs=1e-15)
    shifted = uniform * np.exp(1j * k * g.points / HBAR)
    formula = HBAR * math.sin(k * 0.125 / HBAR) / 0.125
    assert p_mean(g, shifted) == pytest.approx(formula, abs=1e-12)
    assert p_mean(g, shifted) == pytest.approx(k, abs=1e-3)
