"""Tests for Ehrenfest tracking, the hbar sweep, and gauge equivalence."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import expect_p, expect_x, gauge_equivalence_run, norm, position_spread

import dtqm.correspondence
from dtqm import (
    BoundaryError,
    GaugedAction,
    NumericalError,
    PhysicalConstants,
    QuarticAction,
    StandardAction,
    build_kernel,
    ehrenfest_run,
    evolve,
    harmonic_potential,
    hbar_sweep,
    integrate,
    invert_momentum,
    magic_time_step,
    make_gaussian,
    make_grid,
    packet_observables,
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


def quartic_model(tau):
    return StandardAction(PhysicalConstants(1.0, tau, HBAR), quartic_potential(0.1))


def test_hbar_sweep_quartic_deviation_shrinks():
    model = quartic_model(0.1)
    constants = model.constants
    report = hbar_sweep(model, [1.0, 0.5, 0.25, 0.125], 1.0, 0.0, 30, 256)
    assert report.errors == {}
    assert report.monotone_flag
    devs = report.max_deviation
    assert all(b <= a + 1e-6 for a, b in zip(devs, devs[1:]))
    assert devs[-1] < devs[0]
    assert report.finest is not None
    assert len(report.finest.steps) == 31
    # The finest run is measured against the one track the sweep shares.
    assert report.max_deviation[-1] == report.finest.max_position_deviation()
    # Each run steps a re-quantized copy: the caller's model keeps its constants.
    assert model.constants is constants and model.constants.hbar == HBAR
    track = integrate(model, 1.0, invert_momentum(model, 1.0, 0.0), 30)
    assert np.array_equal(report.finest.x_classical, track.positions)


def test_hbar_sweep_harmonic_is_flat_and_small():
    model = StandardAction(PhysicalConstants(1.0, 0.1, HBAR), harmonic_potential(1.0, 1.0))
    report = hbar_sweep(model, [1.0, 0.5, 0.25], 0.8, 0.0, 30, 256)
    assert report.errors == {}
    assert all(d < 1e-3 for d in report.max_deviation)


def test_hbar_sweep_slack_scales_with_the_deviations():
    # Every deviation is far below 1e-6, and each is over 50 times the last:
    # the deviation grows as hbar shrinks, so the sweep is not monotone.
    model = StandardAction(PhysicalConstants(1.0, 0.1, HBAR), harmonic_potential(1.0, 1.0))
    report = hbar_sweep(model, [1.0, 0.5, 0.25], 1.0, 0.0, 30, 256)
    assert report.errors == {}
    devs = report.max_deviation
    assert max(devs) < 1e-6 and devs[0] < devs[1] < devs[2]
    assert not report.monotone_flag


def test_hbar_sweep_preconditions():
    with pytest.raises(ValueError):
        hbar_sweep(quartic_model(0.1), [1.0, 0.5], 1.0, 0.0, 10, 128)
    with pytest.raises(ValueError):
        hbar_sweep(quartic_model(0.1), [0.5, 1.0, 0.25], 1.0, 0.0, 10, 128)
    with pytest.raises(ValueError):
        hbar_sweep(quartic_model(0.1), [1.0, -0.5, 0.25], 1.0, 0.0, 10, 128)
    probe = QuarticAction(PhysicalConstants(1.0, 0.1, HBAR), quartic_potential(0.1), 0.01)
    with pytest.raises(ValueError, match="standard or gauged"):
        hbar_sweep(probe, [1.0, 0.5, 0.25], 1.0, 0.0, 10, 128)


def test_hbar_sweep_records_per_run_errors_and_continues():
    # Tiny lattice: the retuned boxes are too small for the classical
    # excursion, so every run fails the boundary estimate but the sweep
    # still returns a report.
    report = hbar_sweep(quartic_model(0.1), [1.0, 0.5, 0.25], 2.0, 0.0, 30, 64)
    assert len(report.errors) > 0
    assert not report.monotone_flag
    assert any(math.isnan(d) for d in report.max_deviation)


def test_hbar_sweep_inverts_the_momentum_map_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return invert_momentum(*args, **kwargs)

    monkeypatch.setattr(dtqm.correspondence, "invert_momentum", counted)
    report = hbar_sweep(quartic_model(0.1), [1.0, 0.5, 0.25], 1.0, 0.0, 20, 128)
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


def test_gauge_equivalence_run_raises_at_the_first_non_finite_density():
    # At 0.37 tau* the 16-point kernels are far from unitary: the amplitudes
    # grow every step until they overflow, and then go NaN. The run has to
    # stop there, not return the largest finite discrepancy before it.
    g = make_grid(16, -4.0, 0.5)
    c = PhysicalConstants(1.0, 0.37 * magic_time_step(g, 1.0, HBAR), HBAR)
    args = (g, c, harmonic_potential(1.0, 1.0), quadratic_phase(0.3), 0.0, 0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"packet density is not finite at step \d+$") as failure:
            gauge_equivalence_run(*args, 1000)
        step = int(str(failure.value).rsplit(" ", 1)[1])
        assert 0 < step < 1000
        assert math.isfinite(gauge_equivalence_run(*args, step - 1))


def test_packet_observables_match_grid_observables():
    g = make_grid(256, -8.0, 0.0625)
    model = magic_standard(g, harmonic_potential(1.0, 1.0))
    kernel = build_kernel(g, model)
    states = [make_gaussian(g, 0.5, 0.3, 1.0, HBAR)[0]]
    for _ in range(60):
        states.append(evolve(kernel, states[-1]))
    block = np.array(states)
    x_mean, p_mean, x_spread, norms = packet_observables(block, g, HBAR)
    for n in (0, 1, 17, 42, 60):
        assert abs(x_mean[n] - expect_x(g, states[n])) < 1e-13
        assert abs(p_mean[n] - expect_p(g, states[n], HBAR)) < 1e-13
        assert abs(x_spread[n] - position_spread(g, states[n])) < 1e-13
        assert abs(norms[n] - norm(g, states[n])) < 1e-13
    # ehrenfest_run reduces the same amplitudes, bit for bit.
    series = ehrenfest_run(model, g, 0.5, 0.3, 1.0, 60)
    for got, want in zip((series.x_mean, series.p_mean, series.x_spread, series.norm), (x_mean, p_mean, x_spread, norms)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("rows", [1, 7, 200])
def test_packet_run_series_does_not_depend_on_the_block_size(monkeypatch, rows):
    g = make_grid(128, -8.0, 0.125)
    model = magic_standard(g, harmonic_potential(1.0, 1.0))
    reference = ehrenfest_run(model, g, 0.5, 0.3, 1.0, 150)  # one default block
    assert len(reference.steps) <= dtqm.correspondence.BLOCK_BYTES // (16 * 128)
    monkeypatch.setattr(dtqm.correspondence, "BLOCK_BYTES", rows * 16 * 128)
    series = ehrenfest_run(model, g, 0.5, 0.3, 1.0, 150)
    short = ehrenfest_run(model, g, 0.5, 0.3, 1.0, 40)
    for name in ("x_mean", "p_mean", "x_spread", "norm"):
        np.testing.assert_array_equal(getattr(series, name), getattr(reference, name))
        np.testing.assert_array_equal(getattr(short, name), getattr(reference, name)[:41])


def test_packet_observables_match_grid_observables_on_an_odd_lattice():
    # Odd N: the hop term's vecdot and the wrap term cover 254 + 1 pairs.
    g = make_grid(255, -8.0, 16.0 / 255)
    kernel = build_kernel(g, magic_standard(g, harmonic_potential(1.0, 1.0)))
    states = [make_gaussian(g, 0.5, 0.3, 1.0, HBAR)[0]]
    for _ in range(30):
        states.append(evolve(kernel, states[-1]))
    x_mean, p_mean, x_spread, norms = packet_observables(np.array(states), g, HBAR)
    for n, psi in enumerate(states):
        assert abs(x_mean[n] - expect_x(g, psi)) < 1e-13
        assert abs(p_mean[n] - expect_p(g, psi, HBAR)) < 1e-13
        assert abs(x_spread[n] - position_spread(g, psi)) < 1e-13
        assert abs(norms[n] - norm(g, psi)) < 1e-13


@pytest.mark.parametrize("rows", [1, 7, 200])
def test_odd_lattice_series_does_not_depend_on_the_block_size(monkeypatch, rows):
    g = make_grid(255, -8.0, 16.0 / 255)
    model = magic_standard(g, harmonic_potential(1.0, 1.0))
    reference = ehrenfest_run(model, g, 0.5, 0.3, 1.0, 150)
    monkeypatch.setattr(dtqm.correspondence, "BLOCK_BYTES", rows * 16 * 255)
    series = ehrenfest_run(model, g, 0.5, 0.3, 1.0, 150)
    for name in ("x_mean", "p_mean", "x_spread", "norm"):
        np.testing.assert_array_equal(getattr(series, name), getattr(reference, name))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    n=st.integers(16, 300),
    q=st.integers(1, 7),
    share=st.sampled_from([1.0, 0.93, 1.7]),
    gauged=st.booleans(),
    rows=st.integers(1, 40),
    n_steps=st.integers(1, 90),
)
def test_packet_run_series_does_not_depend_on_the_block_budget(n, q, share, gauged, rows, n_steps):
    # tau* / q takes the one-FFT path, the other shares the 2N embedding; the
    # default budget holds every one of these runs in one block. omega = 0.2
    # keeps the classical orbit stable and inside the box at the largest step.
    g = make_grid(n, -8.0, 16.0 / n)
    c = PhysicalConstants(1.0, share * magic_time_step(g, 1.0, HBAR) / q, HBAR)
    pot = harmonic_potential(1.0, 0.2)
    model = GaugedAction(c, pot, quadratic_phase(0.3)) if gauged else StandardAction(c, pot)
    reference = ehrenfest_run(model, g, 0.5, 0.3, 1.0, n_steps)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dtqm.correspondence, "BLOCK_BYTES", rows * 16 * n)
        series = ehrenfest_run(model, g, 0.5, 0.3, 1.0, n_steps)
    for name in ("x_mean", "p_mean", "x_spread", "norm"):
        np.testing.assert_array_equal(getattr(series, name), getattr(reference, name))


def test_non_finite_amplitudes_are_a_numerical_error(monkeypatch):
    build = dtqm.correspondence.build_kernel

    class Poisoned:
        """Applies the real kernel, then returns infinite amplitudes from the fifth step on."""

        def __init__(self, kernel):
            self.kernel = kernel
            self.calls = 0

        def apply(self, amplitudes, out=None):
            self.calls += 1
            out = self.kernel.apply(amplitudes, out=out)
            if self.calls >= 5:
                out[...] = np.inf
            return out

    monkeypatch.setattr(dtqm.correspondence, "build_kernel", lambda *args: Poisoned(build(*args)))
    g = make_grid(128, -8.0, 0.125)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or invalid-value warning on the way
        with pytest.raises(NumericalError, match="not finite at step 5"):
            ehrenfest_run(magic_standard(g, harmonic_potential(1.0, 1.0)), g, 0.5, 0.3, 1.0, 20)


def test_hbar_sweep_reports_packet_warnings():
    # sigma / dx = alpha sqrt(m N / (4 pi tau)) is the same for every hbar of
    # a sweep, so alpha = 0.1 under-resolves every run.
    report = hbar_sweep(quartic_model(0.1), [1.0, 0.5, 0.25], 1.0, 0.0, 30, 256, alpha=0.1)
    assert report.errors == {}
    assert sorted(report.packet_warnings) == [0.25, 0.5, 1.0]
    for flags in report.packet_warnings.values():
        assert len(flags) == 1 and "below resolvable limit" in flags[0]
    assert report.as_dict()["packet_warnings"]["0.25"] == list(report.packet_warnings[0.25])
    clean = hbar_sweep(quartic_model(0.1), [1.0, 0.5, 0.25], 1.0, 0.0, 30, 256)
    assert clean.packet_warnings == {} and clean.as_dict()["packet_warnings"] == {}


def test_harmonic_tracking_past_the_dense_limit():
    # N=4096: four times the dense limit, on the one-FFT chirped-DFT path, with
    # blocks cut to the byte budget (16 rows here).
    g = make_grid(4096, -8.0, 16.0 / 4096)
    model = magic_standard(g, harmonic_potential(1.0, 1.0))
    assert dtqm.correspondence.BLOCK_BYTES // (16 * 4096) == 16
    series = ehrenfest_run(model, g, 0.5, 0.3, 1.0, 250)
    assert series.max_position_deviation() < 1e-3
    assert series.max_momentum_deviation() < 1e-3
    assert float(np.max(np.abs(series.norm - 1.0))) < 1e-12


def test_one_row_blocks_build_the_axis_once(monkeypatch):
    # N=65536: the byte budget leaves one row per block, so packet_observables
    # runs once per step; the lattice points are built once for the whole run.
    from functools import cached_property

    from dtqm.grid import SpatialGrid

    n = 65536
    assert dtqm.correspondence.BLOCK_BYTES // (16 * n) == 1
    g = make_grid(n, -8.0, 16.0 / n)
    model = magic_standard(g, harmonic_potential(1.0, 1.0))
    builds = []
    points = SpatialGrid.points.func

    def counting(self):
        builds.append(1)
        return points(self)

    counted = cached_property(counting)
    counted.__set_name__(SpatialGrid, "points")
    monkeypatch.setattr(SpatialGrid, "points", counted)
    series = ehrenfest_run(model, g, 0.5, 0.3, 1.0, 5)
    assert len(series.norm) == 6
    assert len(builds) == 1
