"""Tests for Ehrenfest tracking, the hbar sweep, and gauge equivalence."""

import math

import numpy as np
import pytest

import dtqm.correspondence
from dtqm import (
    BoundaryError,
    PhysicalConstants,
    StandardAction,
    ehrenfest_run,
    gauge_equivalence_run,
    harmonic_potential,
    hbar_sweep,
    integrate,
    invert_momentum,
    magic_time_step,
    make_grid,
    quadratic_phase,
    quartic_potential,
    zero_potential,
)
from dtqm.potentials import GaugePhase

HBAR = 1.0


def magic_standard(grid, pot):
    tau = magic_time_step(grid, 1.0, HBAR)
    return StandardAction(PhysicalConstants(1.0, tau, HBAR), pot)


def test_free_packet_mean_position_is_constant():
    # Wide box so the spreading packet never reaches the wrap seam.
    g = make_grid(512, -16.0, 0.0625)
    series = ehrenfest_run(magic_standard(g, zero_potential()), g, 0.0, 0.0, math.sqrt(2.0), 10)
    assert float(np.max(np.abs(series.x_mean))) < 1e-9


def test_harmonic_tracking():
    g = make_grid(256, -8.0, 0.0625)
    model = magic_standard(g, harmonic_potential(1.0, 1.0))
    series = ehrenfest_run(model, g, 0.5, 0.3, 1.0, 50)
    assert series.max_position_deviation() < 1e-3
    assert series.max_momentum_deviation() < 1e-3
    # per-step norm preservation within 10x the kernel's unitarity deviation
    from dtqm import build_kernel

    deviation = build_kernel(g, model, "analytic").unitarity_deviation
    step_drift = np.abs(np.diff(series.norm))
    assert float(step_drift.max()) <= 10.0 * deviation + 1e-14


def test_zero_steps_records_initial_observables_only():
    g = make_grid(256, -8.0, 0.0625)
    series = ehrenfest_run(magic_standard(g, zero_potential()), g, 0.0, 0.0, 1.0, 0)
    assert len(series.steps) == 1
    assert len(series.x_classical) == 1
    assert series.x_mean[0] == pytest.approx(0.0, abs=1e-9)


def test_boundary_violation_reports_first_step():
    g = make_grid(128, -8.0, 0.125)
    model = magic_standard(g, zero_potential())
    with pytest.raises(BoundaryError) as info:
        ehrenfest_run(model, g, 0.0, 1.0, 1.0, 40)  # drifts into the wall
    assert info.value.step == 15


def test_momentum_correspondence():
    g = make_grid(256, -8.0, 0.0625)
    model = magic_standard(g, harmonic_potential(1.0, 1.0))
    series = ehrenfest_run(model, g, 0.5, 0.3, 1.0, 50)
    # classical arrays come from the same seed construction
    x_m1 = invert_momentum(model, 0.5, 0.3)
    reference = integrate(model, 0.5, x_m1, 50)
    np.testing.assert_allclose(series.x_classical, reference.positions, atol=1e-14)
    np.testing.assert_allclose(series.p_classical, reference.momenta, atol=1e-14)
    assert series.p_classical[0] == pytest.approx(0.3, abs=1e-12)


def quartic_factory(tau):
    def factory(hbar):
        return StandardAction(PhysicalConstants(1.0, tau, hbar), quartic_potential(0.1))

    return factory


def test_hbar_sweep_quartic_deviation_shrinks():
    report = hbar_sweep(quartic_factory(0.1), [1.0, 0.5, 0.25, 0.125], 1.0, 0.0, 30, 256)
    assert report.errors == {}
    assert report.monotone_flag
    devs = report.max_deviation
    assert all(b <= a + 1e-6 for a, b in zip(devs, devs[1:]))
    assert devs[-1] < devs[0]
    assert report.finest is not None
    assert len(report.finest.steps) == 31
    # The finest run is measured against the one track the sweep shares.
    assert report.max_deviation[-1] == report.finest.max_position_deviation()
    model = quartic_factory(0.1)(1.0)
    track = integrate(model, 1.0, invert_momentum(model, 1.0, 0.0), 30)
    assert np.array_equal(report.finest.x_classical, track.positions)


def test_hbar_sweep_harmonic_is_flat_and_small():
    def factory(hbar):
        return StandardAction(PhysicalConstants(1.0, 0.1, hbar), harmonic_potential(1.0, 1.0))

    report = hbar_sweep(factory, [1.0, 0.5, 0.25], 0.8, 0.0, 30, 256)
    assert report.errors == {}
    assert all(d < 1e-3 for d in report.max_deviation)


def test_hbar_sweep_preconditions():
    with pytest.raises(ValueError):
        hbar_sweep(quartic_factory(0.1), [1.0, 0.5], 1.0, 0.0, 10, 128)
    with pytest.raises(ValueError):
        hbar_sweep(quartic_factory(0.1), [0.5, 1.0, 0.25], 1.0, 0.0, 10, 128)
    with pytest.raises(ValueError):
        hbar_sweep(quartic_factory(0.1), [1.0, -0.5, 0.25], 1.0, 0.0, 10, 128)

    def inconsistent(hbar):
        return StandardAction(PhysicalConstants(1.0, 0.1 * hbar, hbar), zero_potential())

    with pytest.raises(ValueError):
        hbar_sweep(inconsistent, [1.0, 0.5, 0.25], 1.0, 0.0, 10, 128)


def test_hbar_sweep_records_per_run_errors_and_continues():
    # Tiny lattice: the retuned boxes are too small for the classical
    # excursion, so every run fails the boundary estimate but the sweep
    # still returns a report.
    report = hbar_sweep(quartic_factory(0.1), [1.0, 0.5, 0.25], 2.0, 0.0, 30, 64)
    assert len(report.errors) > 0
    assert not report.monotone_flag
    assert any(math.isnan(d) for d in report.max_deviation)


def test_hbar_sweep_inverts_the_momentum_map_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return invert_momentum(*args, **kwargs)

    monkeypatch.setattr(dtqm.correspondence, "invert_momentum", counted)
    report = hbar_sweep(quartic_factory(0.1), [1.0, 0.5, 0.25], 1.0, 0.0, 20, 128)
    assert report.errors == {}
    assert len(calls) == 1


def test_gauge_equivalence_zero_phase():
    g = make_grid(128, -8.0, 0.125)
    tau = magic_time_step(g, 1.0, HBAR)
    c = PhysicalConstants(1.0, tau, HBAR)
    zero = GaugePhase("zero", lambda x: np.zeros_like(x), lambda x: np.zeros_like(x))
    assert gauge_equivalence_run(g, c, harmonic_potential(1.0, 1.0), zero, 0.5, 0.0, 1.0, 30) < 1e-14


def test_gauge_equivalence_constant_phase():
    g = make_grid(128, -8.0, 0.125)
    tau = magic_time_step(g, 1.0, HBAR)
    c = PhysicalConstants(1.0, tau, HBAR)
    flat = GaugePhase(
        "const",
        lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    assert gauge_equivalence_run(g, c, harmonic_potential(1.0, 1.0), flat, 0.5, 0.0, 1.0, 30) < 1e-12


def test_gauge_equivalence_quadratic_phase():
    g = make_grid(256, -8.0, 0.0625)
    tau = magic_time_step(g, 1.0, HBAR)
    c = PhysicalConstants(1.0, tau, HBAR)
    discrepancy = gauge_equivalence_run(
        g, c, harmonic_potential(1.0, 1.0), quadratic_phase(0.3), 1.0, 0.0, 1.0, 100
    )
    assert discrepancy < 1e-10
