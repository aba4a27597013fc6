"""Tests for the discrete classical solver and its oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import leapfrog_reference

from dtqm import (
    GaugedAction,
    GaugePhase,
    NumericalError,
    PhysicalConstants,
    Potential,
    QuarticAction,
    SineAction,
    StandardAction,
    TrajectoryStatus,
    build_kernel,
    cosine_well_potential,
    eom_step,
    harmonic_potential,
    integrate,
    invert_momentum,
    is_standard_family,
    linear_phase,
    magic_time_step,
    make_grid,
    quadratic_phase,
    quartic_potential,
    zero_phase,
    zero_potential,
)
from dtqm.rootfind import bracketed_newton, scan_roots

HBAR = 1.0


def standard(tau=0.1, pot=None):
    return StandardAction(PhysicalConstants(1.0, tau, HBAR), pot or zero_potential())


def test_momentum_from_pair_values():
    assert standard().ds_dx(0.1, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert standard().ds_dx(0.5, 0.5) == 0.0
    harm = standard(pot=harmonic_potential(1.0, 1.0))
    assert harm.ds_dx(1.0, 1.0) == pytest.approx(-0.05, abs=1e-15)


def test_eom_step_free_particle():
    result = eom_step(standard(), 0.0, 0.1)
    assert result.status is TrajectoryStatus.COMPLETE
    assert result.x_next == pytest.approx(0.2, abs=1e-12)


def test_eom_step_harmonic():
    model = standard(pot=harmonic_potential(1.0, 1.0))
    result = eom_step(model, 0.0, 0.1)
    assert result.status is TrajectoryStatus.COMPLETE
    assert result.x_next == pytest.approx(0.199, abs=1e-12)


def test_eom_step_matches_closed_form():
    model = standard(tau=0.05, pot=harmonic_potential(1.0, 1.3))
    rng = np.random.default_rng(21)
    for x_prev, x_now in rng.uniform(-2, 2, size=(25, 2)):
        expected = 2 * x_now - x_prev - 0.05**2 * 1.0 * 1.3**2 * x_now
        result = eom_step(model, x_prev, x_now)
        assert result.status is TrajectoryStatus.COMPLETE
        assert result.x_next == pytest.approx(expected, abs=1e-10)


def test_sine_action_no_solution_instance():
    # Documented probe instance: near the gradient's turning point with a
    # small step, no root falls inside the search region.
    model = SineAction(PhysicalConstants(1.0, 0.01, HBAR), 1.0)
    result = eom_step(model, 1.4, 1.45)
    assert result.status is TrajectoryStatus.NO_SOLUTION
    assert result.x_next is None
    assert result.residual > 0.0


def test_sine_action_non_unique_step():
    # A wider search region covers two balancing points; the tie-break picks
    # the one closest to free motion and flags the ambiguity.
    model = SineAction(PhysicalConstants(1.0, 0.1, HBAR), 1.0)
    result = eom_step(model, 0.5, 0.5)
    assert result.status is TrajectoryStatus.NON_UNIQUE
    assert result.x_next is not None


def test_integrate_free_particle_is_arithmetic_progression():
    traj = integrate(standard(), 0.1, 0.0, 50)
    assert traj.status is TrajectoryStatus.COMPLETE
    np.testing.assert_allclose(traj.positions, 0.1 + 0.1 * np.arange(51), atol=1e-12)
    np.testing.assert_allclose(traj.momenta, np.ones(51), atol=1e-12)


def test_integrate_matches_leapfrog_oracle():
    pot = harmonic_potential(1.0, 1.0)
    model = standard(pot=pot)
    traj = integrate(model, 1.0, 1.0, 1000)
    assert traj.status is TrajectoryStatus.COMPLETE
    reference = leapfrog_reference(pot.dv, 1.0, 0.1, 1.0, 1.0, 1000)
    np.testing.assert_allclose(traj.positions, reference, atol=1e-12)


def test_trajectory_momenta_and_residual_invariants():
    pot = harmonic_potential(1.0, 1.0)
    model = standard(pot=pot)
    traj = integrate(model, 0.8, 0.75, 100)
    # p_n recomputed from the pair (x_n, x_{n-1})
    for n in range(1, 101):
        p = model.ds_dx(traj.positions[n], traj.positions[n - 1])
        assert traj.momenta[n] == pytest.approx(p, abs=1e-14)
    # interior triples satisfy the balance equation
    tol = 1e-10 * (1.0 / 0.1) * max(1.0, float(np.max(np.abs(traj.positions))))
    for n in range(1, 100):
        g = float(model.ds_dx(traj.positions[n], traj.positions[n - 1])) + float(
            model.ds_dy(traj.positions[n + 1], traj.positions[n])
        )
        assert abs(g) < tol
    assert traj.residuals.max() < tol


def test_integrate_gauge_invariance():
    pot = harmonic_potential(1.0, 1.0)
    c = PhysicalConstants(1.0, 0.1, HBAR)
    plain = integrate(StandardAction(c, pot), 1.0, 0.98, 200)
    gauged = integrate(GaugedAction(c, pot, quadratic_phase(0.3)), 1.0, 0.98, 200)
    np.testing.assert_allclose(gauged.positions, plain.positions, atol=1e-10)


def test_integrate_time_reversal():
    model = standard(pot=harmonic_potential(1.0, 1.0))
    forward = integrate(model, 1.0, 0.95, 50)
    backward = integrate(model, forward.positions[-2], forward.positions[-1], 49)
    np.testing.assert_allclose(backward.positions, forward.positions[::-1][1:], atol=1e-9)


def test_integrate_sine_action_stops_with_no_solution():
    model = SineAction(PhysicalConstants(1.0, 0.01, HBAR), 1.0)
    traj = integrate(model, 1.45, 1.4, 50)
    assert traj.status is TrajectoryStatus.NO_SOLUTION
    assert traj.failure_step == 1
    assert traj.label() == "no_solution_at(1)"
    assert len(traj.positions) == 1


def test_integrate_sine_action_non_unique_is_flagged_not_fatal():
    model = SineAction(PhysicalConstants(1.0, 0.01, HBAR), 1.0)
    traj = integrate(model, 0.3, 0.2, 50)
    assert traj.status is TrajectoryStatus.NON_UNIQUE
    assert traj.failure_step == 2
    assert len(traj.positions) == 51  # integration continued after the flag


def test_quartic_probe_step_with_zero_potential():
    # Equal incoming and outgoing displacements balance the cubic terms too,
    # so free motion stays an exact solution of the probe's equation.
    model = QuarticAction(PhysicalConstants(1.0, 0.5, HBAR), zero_potential(), 0.1)
    result = eom_step(model, 0.0, 0.5)
    assert result.status is TrajectoryStatus.COMPLETE
    assert result.x_next == pytest.approx(1.0, abs=1e-10)


def test_leapfrog_free_particle():
    xs = leapfrog_reference(lambda x: 0.0, 1.0, 0.1, 0.2, 0.1, 10)
    np.testing.assert_allclose(xs, 0.2 + 0.1 * np.arange(11), atol=1e-14)


def test_leapfrog_energy_stays_bounded():
    # Discrete energy of the harmonic run oscillates but does not drift;
    # bounds frozen from a pilot run at tau = 0.05 (max deviation 3.2e-4).
    pot = harmonic_potential(1.0, 1.0)
    xs = leapfrog_reference(pot.dv, 1.0, 0.05, 1.0, 1.0, 10000)
    v = (xs[2:] - xs[:-2]) / (2 * 0.05)
    energy = 0.5 * v**2 + pot.v(xs[1:-1])
    assert np.max(np.abs(energy - energy[0])) < 1e-3
    assert abs(energy[:100].mean() - energy[-100:].mean()) < 1e-4


def test_invert_momentum_roundtrip():
    model = standard(pot=harmonic_potential(1.0, 1.0))
    x_prev = invert_momentum(model, 1.0, 0.7)
    assert model.ds_dx(1.0, x_prev) == pytest.approx(0.7, abs=1e-12)
    # standard family closed form: x_prev = x0 - (tau/m)(p0 + tau V'(x0)/2)
    expected = 1.0 - 0.1 * (0.7 + 0.05 * 1.0)
    assert x_prev == pytest.approx(expected, abs=1e-12)


def test_invert_momentum_unreachable_value():
    model = SineAction(PhysicalConstants(1.0, 0.1, HBAR), 1.0)
    with pytest.raises(NumericalError):
        invert_momentum(model, 0.5, 2.0)  # gradient is bounded by c = 1


def test_integrate_rejects_zero_steps():
    with pytest.raises(ValueError):
        integrate(standard(), 0.0, 0.0, 0)


def test_scan_roots_root_on_scan_point_and_one_broadcast_call():
    shapes = []

    def g(x):
        shapes.append(np.shape(x))
        return np.asarray(x, dtype=float) - 0.5

    roots, residuals, xs, gs = scan_roots(g, lambda x: 1.0, 0.0, 1.0, 4, 1e-12, 0.0, 0.0)
    assert roots == [0.5]
    assert residuals == [0.0]
    assert xs[2] == 0.5 and gs[2] == 0.0
    assert shapes == [(5,)]  # a root on a scan point needs no refinement


def test_scan_roots_merges_refinements_within_merge_tol():
    # Roots on either side of the scan point 0.25: two brackets, two refinements.
    a, b = 0.25 - 1e-9, 0.25 + 1e-9

    def g(x):
        return (x - a) * (x - b)

    def dg(x):
        return 2.0 * x - a - b

    separate, separate_residuals, _, _ = scan_roots(g, dg, 0.0, 1.0, 4, 0.0, 0.0, 0.0)
    assert separate == pytest.approx([a, b], abs=1e-15)
    assert separate_residuals == [abs(g(r)) for r in separate]
    merged, merged_residuals, _, _ = scan_roots(g, dg, 0.0, 1.0, 4, 0.0, 0.0, 1e-8)
    assert merged == separate[:1]
    assert merged_residuals == separate_residuals[:1]  # the cluster keeps its first root's residual


@pytest.mark.parametrize("scale", [1e-200, 1e200], ids=["products_underflow", "products_overflow"])
def test_scan_roots_compares_signs_at_any_magnitude(scale):
    # The product of two adjacent scan values rounds to -0.0 or overflows to -inf.
    def g(x):
        return scale * (x - 0.3)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots, residuals, _, _ = scan_roots(g, lambda x: scale, 0.0, 1.0, 64, 0.0, 1e-15, 0.0)
    assert roots == [pytest.approx(0.3, abs=1e-15)]
    assert residuals == [abs(g(roots[0]))]


def test_bracketed_newton_calls_dg_once_per_step():
    calls = {"g": 0, "dg": 0}

    def g(x):
        calls["g"] += 1
        return x**3 - 2.0

    def dg(x):
        calls["dg"] += 1
        return 3.0 * x * x

    x, gx = bracketed_newton(g, dg, 0.0, 2.0, -2.0, 6.0, 1e-12)
    assert x == pytest.approx(2.0 ** (1 / 3), abs=1e-12) and abs(gx) <= 1e-12
    # g at the midpoint and after each of the five steps; no dg at the root returned.
    assert calls == {"g": 6, "dg": 5}


def test_generic_step_evaluates_each_point_once():
    # One broadcast ds_dy over the scan, one per refinement iterate, and none
    # afterwards: the kept root's residual is the one its refinement computed.
    model = QuarticAction(PhysicalConstants(1.0, 0.1, HBAR), harmonic_potential(1.0, 1.0), 0.1)
    ds_dy = model.ds_dy
    points = []

    def spy(x, y):
        points.append(x)
        return ds_dy(x, y)

    model.ds_dy = spy
    result = eom_step(model, 0.97, 1.0)
    assert result.status is TrajectoryStatus.COMPLETE
    scan, iterates = points[0], points[1:]
    assert np.shape(scan) == (65,) and iterates and all(np.ndim(x) == 0 for x in iterates)
    assert len(set(iterates)) == len(iterates) and iterates[-1] == result.x_next
    x_now, x_prev = np.float64(1.0), np.float64(0.97)
    assert result.residual == abs(float(model.ds_dx(x_now, x_prev)) + ds_dy(np.float64(result.x_next), x_now))


def test_scan_roots_without_sign_change_is_empty():
    roots, residuals, xs, gs = scan_roots(lambda x: x * x + 1.0, lambda x: 2.0 * x, -1.0, 1.0, 64, 1e-12, 0.0, 0.0)
    assert roots == residuals == []
    assert len(xs) == len(gs) == 65
    assert float(np.min(gs)) == 1.0


# --- closed-form steps of the standard family vs the general scan path


class ScanStandard(StandardAction):
    """Same physics as StandardAction; a subclass, so it takes the general scan path."""


class ScanGauged(GaugedAction):
    """Same physics as GaugedAction; a subclass, so it takes the general scan path."""


def _closed_and_scan_pairs():
    pots = {
        "harmonic": harmonic_potential(1.0, 1.0),
        "quartic": quartic_potential(0.05),
        "cosine_well": cosine_well_potential(6.0, 0.35),
    }
    pairs = [pytest.param(StandardAction, ScanStandard, (pot,), id=name) for name, pot in pots.items()]
    fields = (pots["cosine_well"], quadratic_phase(0.3))
    pairs.append(pytest.param(GaugedAction, ScanGauged, fields, id="gauged"))
    return pairs


@st.composite
def _seeds(draw):
    """(tau, x0, x_minus1): speeds up to 2, as in the family fuzz, and 0.5 <= |x0| <= 2.

    The scan resolves a root to rounding at the scale max(1, |x|, R), so a
    track far below unit scale cannot match the closed form relative to its
    own scale; such tracks are left out here.
    """
    tau = draw(st.floats(0.02, 0.2))
    x0 = draw(st.floats(-2.0, -0.5) | st.floats(0.5, 2.0))
    return tau, x0, draw(st.floats(x0 - 2.0 * tau, x0 + 2.0 * tau))


@pytest.mark.parametrize("fast_model, scan_model, fields", _closed_and_scan_pairs())
@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@given(seed=_seeds(), p0=st.floats(-2.0, 2.0))
@example(seed=(0.1, 1.0, 0.97), p0=0.7)
def test_closed_form_integrate_matches_scan_path(fast_model, scan_model, fields, seed, p0):
    # The scan runs through both of its callers, eom_step and invert_momentum.
    tau, x0, x_minus1 = seed
    c = PhysicalConstants(1.0, tau, HBAR)
    fast, scan = fast_model(c, *fields), scan_model(c, *fields)
    assert is_standard_family(fast) and not is_standard_family(scan)
    a = integrate(fast, x0, x_minus1, 400)
    b = integrate(scan, x0, x_minus1, 400)
    assert (a.status, a.failure_step) == (b.status, b.failure_step) == (TrajectoryStatus.COMPLETE, None)
    # Relative to the track's scale: the two roundings differ near zero crossings too.
    for u, v in ((a.positions, b.positions), (a.momenta, b.momenta)):
        np.testing.assert_allclose(u, v, rtol=0, atol=1e-12 * float(np.max(np.abs(v))))
    tol = 1e-10 * (1.0 / tau) * max(1.0, float(np.max(np.abs(a.positions))))
    assert a.residuals[0] == 0.0 and a.residuals.max() < tol
    np.testing.assert_allclose(invert_momentum(fast, x0, p0), invert_momentum(scan, x0, p0), rtol=1e-12)


@pytest.mark.parametrize("omega, x_minus1, label", [(20.0, 1.0, "no_solution_at(1)"), (19.5, 0.9, "no_solution_at(15)")])
def test_closed_form_hands_over_to_the_scan_outside_the_search_region(omega, x_minus1, label):
    # omega * tau near 2: the linear root leaves the scan's [x_now - R, x_now + R].
    # The family's closed form is its one real root wherever it lies, so the
    # run completes; the scan path still reports no_solution there.
    c = PhysicalConstants(1.0, 0.1, HBAR)
    pot = harmonic_potential(1.0, omega)
    a = integrate(StandardAction(c, pot), 1.0, x_minus1, 40)
    assert a.status is TrajectoryStatus.COMPLETE and len(a.positions) == 41
    expected = leapfrog_reference(pot.dv, 1.0, 0.1, 1.0, x_minus1, 40)
    np.testing.assert_allclose(a.positions, expected, rtol=0, atol=1e-12 * float(np.max(np.abs(expected))))
    step = eom_step(StandardAction(c, pot), x_minus1, 1.0)
    assert step.status is TrajectoryStatus.COMPLETE and step.x_next == a.positions[1]
    assert integrate(ScanStandard(c, pot), 1.0, x_minus1, 40).label() == label


def test_non_finite_closed_form_root_is_a_numerical_error():
    model = StandardAction(PhysicalConstants(1.0, 0.1, HBAR), harmonic_potential(1.0, 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="not finite"):
            integrate(model, 1e308, -1e308, 5)
        with pytest.raises(NumericalError, match="not finite"):
            eom_step(model, -1e308, 1e308)
        with pytest.raises(NumericalError, match="not finite"):
            invert_momentum(model, 1.7e308, -1e308)


def test_closed_form_overflow_is_a_numerical_error_not_a_warning():
    # The magic steps of a 256-point lattice with spacing 1/16, as in an evolve run.
    grid = make_grid(256, -8.0, 0.0625)
    runaway = StandardAction(PhysicalConstants(1.0, magic_time_step(grid, 1.0, HBAR), HBAR), quartic_potential(-1.0))
    heavy = StandardAction(
        PhysicalConstants(1e300, magic_time_step(grid, 1e300, HBAR), HBAR), harmonic_potential(1e300, 1.0)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="not finite"):
            invert_momentum(heavy, 0.5, 0.3)
        # V = -x^4 runs away to x ~ 1e108 within 14 steps, where V' overflows.
        x_minus1 = invert_momentum(runaway, 0.5, 0.3)
        failed = []
        for n in range(1, 21):
            try:
                trajectory = integrate(runaway, 0.5, x_minus1, n)
            except NumericalError as exc:
                assert "not finite" in str(exc)
                failed.append(n)
            else:
                assert np.all(np.isfinite(trajectory.momenta)) and np.all(np.isfinite(trajectory.residuals))
        # Every run that reaches the overflow fails, also the one whose last momentum overflows.
        assert failed == list(range(failed[0], 21)) and failed[0] <= 14
        with pytest.raises(NumericalError, match="not finite"):
            eom_step(runaway, 2.812114144621711e36, 2.2531966101729874e108)


def test_closed_form_path_runs_no_scan(monkeypatch):
    import dtqm.classical
    import dtqm.rootfind

    def forbidden(*args, **kwargs):
        raise AssertionError("root scan on the closed-form path")

    monkeypatch.setattr(dtqm.rootfind, "scan_roots", forbidden)
    monkeypatch.setattr(dtqm.classical, "scan_roots", forbidden)
    c = PhysicalConstants(1.0, 0.1, HBAR)
    for model in (
        StandardAction(c, harmonic_potential(1.0, 1.0)),
        GaugedAction(c, cosine_well_potential(6.0, 0.35), quadratic_phase(0.3)),
    ):
        x_m1 = invert_momentum(model, 1.0, 0.4)
        traj = integrate(model, 1.0, x_m1, 200)
        assert traj.status is TrajectoryStatus.COMPLETE and len(traj.positions) == 201
        assert traj.momenta[0] == pytest.approx(0.4, abs=1e-12)


def test_subclass_takes_the_scan_path_and_the_dense_kernel(monkeypatch):
    import dtqm.classical

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return scan_roots(*args, **kwargs)

    monkeypatch.setattr(dtqm.classical, "scan_roots", counted)
    c = PhysicalConstants(1.0, 0.1, HBAR)
    pot = harmonic_potential(1.0, 1.0)
    integrate(StandardAction(c, pot), 1.0, 0.98, 20)
    assert not calls
    integrate(ScanStandard(c, pot), 1.0, 0.98, 20)
    assert len(calls) == 20
    grid = make_grid(32, -4.0, 0.25)
    assert build_kernel(grid, StandardAction(c, pot))._factors is not None
    assert build_kernel(grid, ScanStandard(c, pot), "calibrated")._factors is None


# --- the family loop against the model's own evaluators

POTENTIALS = {
    "zero": zero_potential(),
    "harmonic": harmonic_potential(1.0, 1.0),
    "quartic": quartic_potential(0.05),
    "cosine_well": cosine_well_potential(6.0, 0.35),
}
PHASES = {"zero": zero_phase(), "linear": linear_phase(0.4), "quadratic": quadratic_phase(0.3)}


def _family_runs():
    c = PhysicalConstants(1.0, 0.1, HBAR)
    for name, pot in POTENTIALS.items():
        yield pytest.param(StandardAction(c, pot), 0.97, 200, id=f"standard-{name}")
        for phase_name, phase in PHASES.items():
            yield pytest.param(GaugedAction(c, pot, phase), 0.97, 200, id=f"gauged-{name}-{phase_name}")
    # omega * tau = 2: the root leaves the scan's search region at the first step.
    yield pytest.param(StandardAction(c, harmonic_potential(1.0, 20.0)), 1.0, 40, id="hand-over")


def _evaluator_track(model, x0, x_minus1, n_steps):
    """x_{n+1} = x_n + (tau/m)(dS(x_n, x_{n-1})/dx + dS(x_n, x_n)/dy), through the public evaluators."""
    c = model.constants
    xs = [x_minus1, x0]
    for _ in range(n_steps):
        x, y = xs[-1], xs[-2]
        xs.append(x + (c.time_step / c.mass) * (float(model.ds_dx(x, y)) + float(model.ds_dy(x, x))))
    return np.array(xs)


@pytest.mark.parametrize("model, x_minus1, n_steps", _family_runs())
def test_family_track_is_bit_identical_to_the_evaluators(model, x_minus1, n_steps):
    # The gauge term drops out of the equation of motion: a gauged track is the standard one.
    expected = _evaluator_track(StandardAction(model.constants, model.potential), 1.0, x_minus1, n_steps)
    trajectory = integrate(model, 1.0, x_minus1, n_steps)
    assert trajectory.status is TrajectoryStatus.COMPLETE
    assert np.array_equal(trajectory.positions, expected[1:])
    for n in range(1, n_steps + 1):
        assert eom_step(model, expected[n - 1], expected[n]).x_next == expected[n + 1]


def test_family_integrate_calls_dv_once_per_step(monkeypatch):
    import dtqm.classical
    import dtqm.rootfind

    def forbidden(*args, **kwargs):
        raise AssertionError("root scan on the closed-form path")

    monkeypatch.setattr(dtqm.rootfind, "scan_roots", forbidden)
    monkeypatch.setattr(dtqm.classical, "scan_roots", forbidden)
    calls = []

    def spy(name, f):
        def counted(x):
            calls.append(name)
            return f(x)

        return counted

    pot, phase = POTENTIALS["cosine_well"], PHASES["quadratic"]
    pot = Potential(pot.name, pot.v, spy("dv", pot.dv))
    phase = GaugePhase(phase.name, phase.phi, spy("dphi", phase.dphi))
    c = PhysicalConstants(1.0, 0.1, HBAR)
    n = 50
    # dv: one call per step, then one each for the momenta and residual
    # broadcasts; dphi enters only those two.
    for model, dphi_calls in ((StandardAction(c, pot), 0), (GaugedAction(c, pot, phase), 2)):
        calls.clear()
        assert integrate(model, 1.0, 0.98, n).status is TrajectoryStatus.COMPLETE
        assert calls.count("dv") == n + 2 and calls.count("dphi") == dphi_calls


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(
    potential=st.sampled_from(sorted(POTENTIALS)),
    phase=st.sampled_from([None, *sorted(PHASES)]),
    tau=st.floats(0.01, 0.5),
    x0=st.floats(-2.0, 2.0),
    velocity=st.floats(-2.0, 2.0),
    n_steps=st.integers(1, 200),
)
@example(potential="harmonic", phase="linear", tau=0.1, x0=1e-10, velocity=1e-9, n_steps=100)
def test_family_integrate_matches_the_leapfrog_recursion(potential, phase, tau, x0, velocity, n_steps):
    pot = POTENTIALS[potential]
    c = PhysicalConstants(1.0, tau, HBAR)
    model = StandardAction(c, pot) if phase is None else GaugedAction(c, pot, PHASES[phase])
    x_minus1 = x0 - tau * velocity
    trajectory = integrate(model, x0, x_minus1, n_steps)
    assert trajectory.status is TrajectoryStatus.COMPLETE
    expected = leapfrog_reference(pot.dv, 1.0, tau, x0, x_minus1, n_steps)
    np.testing.assert_allclose(trajectory.positions, expected, rtol=0, atol=1e-12 * float(np.max(np.abs(expected))))


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    mass=_log_uniform(0.1, 10.0),
    tau=_log_uniform(0.1, 10.0),
    hbar=_log_uniform(0.1, 10.0),
    epsilon=_log_uniform(1e-3, 10.0),
    potential=st.sampled_from(sorted(POTENTIALS)),
    x_prev=st.floats(-3.0, 3.0),
    x_now=st.floats(-3.0, 3.0),
)
def test_a_strictly_monotone_scanned_step_is_never_non_unique(mass, tau, hbar, epsilon, potential, x_prev, x_now):
    # d2S/dxdy = -m / tau - 12 eps d^2 < 0 everywhere, so the step equation has
    # at most one root: the scan may miss it (no_solution outside the search
    # radius) but never sees two.
    model = QuarticAction(PhysicalConstants(mass, tau, hbar), POTENTIALS[potential], epsilon)
    status = eom_step(model, x_prev, x_now).status
    assert status in (TrajectoryStatus.COMPLETE, TrajectoryStatus.NO_SOLUTION)
