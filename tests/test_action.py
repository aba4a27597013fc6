"""Tests for the action families, their analytic derivatives, and the one family test every fast path reads."""

import math

import numpy as np
import pytest
from oracles import continuum_lagrangian, lagrangian_limit, lagrangian_limit_2d

from dtqm import (
    GaugedAction,
    PhysicalConstants,
    QuarticAction,
    SineAction,
    StandardAction,
    VectorPotentialAction2D,
    bilinear_field,
    build_kernel,
    cosine_well_potential,
    harmonic_potential,
    hbar_sweep,
    integrate,
    is_standard_family,
    linear_phase,
    make_grid,
    quadratic_phase,
    quartic_potential,
    sine_field,
    zero_field,
    zero_phase,
    zero_potential,
)
from dtqm import config
from dtqm.potentials import GaugePhase

FD_STEP = 1e-4
FD_RTOL = 1e-6


def constants(tau=0.5, mass=1.0, hbar=1.0):
    return PhysicalConstants(mass, tau, hbar)


def test_constants_must_be_positive():
    with pytest.raises(ValueError):
        PhysicalConstants(0.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        PhysicalConstants(1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        PhysicalConstants(1.0, 0.1, 0.0)


def test_constants_are_frozen_floats_with_value_equality():
    c = PhysicalConstants(1, 0.5, 2)
    assert repr(c) == "PhysicalConstants(mass=1.0, time_step=0.5, hbar=2.0)"
    assert c == PhysicalConstants(1.0, 0.5, 2.0) and c != PhysicalConstants(1.0, 0.5, 3.0)
    assert c != (1.0, 0.5, 2.0)
    assert hash(c) == hash(PhysicalConstants(1.0, 0.5, 2.0)) == hash((1.0, 0.5, 2.0))
    assert all(type(v) is float for v in (c.mass, c.time_step, c.hbar))
    with pytest.raises(AttributeError):
        c.hbar = 3.0
    with pytest.raises(AttributeError):
        c.extra = 1.0
    assert c.hbar == 2.0


def test_standard_action_values():
    model = StandardAction(constants(tau=0.5), zero_potential())
    assert float(model.s(1.0, 0.0)) == pytest.approx(1.0, abs=1e-15)
    assert float(model.d2s_dxdy(0.3, -1.2)) == -2.0
    # V(x) = x^2 / 2 at coincident points: kinetic term vanishes
    model = StandardAction(constants(tau=0.1), harmonic_potential(1.0, 1.0))
    assert float(model.s(2.0, 2.0)) == pytest.approx(-0.2, abs=1e-15)


def test_mixed_derivative_constant_for_standard_family():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-5.0, 5.0, size=(50, 2))
    for model in (
        StandardAction(constants(), cosine_well_potential(0.7, 1.3)),
        GaugedAction(constants(), quartic_potential(0.4), quadratic_phase(0.9)),
    ):
        values = model.d2s_dxdy(pts[:, 0], pts[:, 1])
        np.testing.assert_array_equal(values, np.full(50, -2.0))


def test_gauged_action_constant_phase_matches_standard():
    pot = harmonic_potential(1.0, 1.0)
    flat = GaugePhase(
        "const",
        lambda x: np.full_like(np.asarray(x, dtype=float), 3.7),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    base = StandardAction(constants(), pot)
    gauged = GaugedAction(constants(), pot, flat)
    xs = np.linspace(-3, 3, 17)
    np.testing.assert_allclose(gauged.s(xs[:, None], xs[None, :]), base.s(xs[:, None], xs[None, :]), atol=1e-15)


def test_gauged_action_difference_is_phase_difference():
    pot = quartic_potential(0.2)
    phase = quadratic_phase(1.0)
    base = StandardAction(constants(), pot)
    gauged = GaugedAction(constants(), pot, phase)
    assert float(gauged.s(1.0, 0.0) - base.s(1.0, 0.0)) == pytest.approx(1.0, abs=1e-15)
    assert float(gauged.s(1.3, 1.3) - base.s(1.3, 1.3)) == 0.0
    rng = np.random.default_rng(9)
    x, y = rng.uniform(-5, 5, size=(2, 40))
    np.testing.assert_allclose(
        gauged.s(x, y) - base.s(x, y), phase.phi(x) - phase.phi(y), atol=1e-12
    )


def test_quartic_probe_values():
    model = QuarticAction(constants(tau=0.5), zero_potential(), 0.1)
    # mixed derivative -m/tau - 12 eps (x - y)^2 at x - y = 1
    assert float(model.d2s_dxdy(1.0, 0.0)) == pytest.approx(-3.2, abs=1e-15)
    base = StandardAction(constants(tau=0.5), zero_potential())
    off = QuarticAction(constants(tau=0.5), zero_potential(), 0.0)
    xs = np.linspace(-3, 3, 13)
    np.testing.assert_array_equal(off.s(xs[:, None], xs[None, :]), base.s(xs[:, None], xs[None, :]))
    # At eps = 0 the probe is the standard body it extends, in every evaluator.
    pot = harmonic_potential(1.0, 1.3)
    base = StandardAction(constants(tau=0.5), pot)
    off = QuarticAction(constants(tau=0.5), pot, 0.0)
    x, y = np.random.default_rng(11).uniform(-5.0, 5.0, size=(2, 200))
    for name in ("s", "ds_dx", "ds_dy", "d2s_dxdy"):
        np.testing.assert_array_equal(getattr(off, name)(x, y), getattr(base, name)(x, y))
        assert all(getattr(off, name)(a, b) == getattr(base, name)(a, b) for a, b in zip(x[:20], y[:20]))


def test_sine_probe_values():
    model = SineAction(constants(), 2.0)
    assert float(model.ds_dy(math.pi / 2.0, 0.0)) == pytest.approx(-2.0, abs=1e-14)
    # gradient bound |dS/dy| <= c
    rng = np.random.default_rng(2)
    x, y = rng.uniform(-10, 10, size=(2, 200))
    assert np.max(np.abs(model.ds_dy(x, y))) <= 2.0
    with pytest.raises(ValueError):
        SineAction(constants(), 0.0)


def test_builtins_give_scalars_and_arrays_the_same_bits():
    # A scalar root refinement and a broadcast pass over the same points agree
    # bit for bit, and an integer argument neither wraps nor truncates.
    xs = np.random.default_rng(3).uniform(-5.0, 5.0, 400)
    ints = np.arange(99_998, 100_002)
    pots = (zero_potential(), harmonic_potential(1.0, 1.3), quartic_potential(0.4), cosine_well_potential(0.8, 2.0))
    phases = (zero_phase(), linear_phase(0.7), quadratic_phase(0.5))
    for f in [g for p in pots for g in (p.v, p.dv)] + [g for p in phases for g in (p.phi, p.dphi)]:
        whole = f(xs)
        assert all(f(np.float64(x)) == w and f(float(x)) == w for x, w in zip(xs, whole))
        np.testing.assert_array_equal(f(ints), f(ints.astype(float)))


def test_action_evaluators_give_scalars_and_arrays_the_same_bits():
    # The classical solver refines in np.float64 the roots that a broadcast scan found.
    x, y = np.random.default_rng(5).uniform(-5.0, 5.0, size=(2, 400))
    models = (
        StandardAction(constants(), harmonic_potential(1.0, 1.2)),
        StandardAction(constants(tau=0.1), quartic_potential(0.3)),
        GaugedAction(constants(), cosine_well_potential(0.8, 2.0), quadratic_phase(0.5)),
        QuarticAction(constants(), harmonic_potential(1.0, 1.0), 0.15),
        SineAction(constants(), 1.3),
    )
    for model in models:
        for f in (model.s, model.ds_dx, model.ds_dy, model.d2s_dxdy):
            whole = f(x, y)
            assert all(f(a, b) == w for a, b, w in zip(x, y, whole)), (model.kind, f.__name__)


def _fd_1d(f, x, y, step=FD_STEP):
    dx = (f(x + step, y) - f(x - step, y)) / (2 * step)
    dy = (f(x, y + step) - f(x, y - step)) / (2 * step)
    return dx, dy


def all_1d_models():
    return [
        StandardAction(constants(), harmonic_potential(1.0, 1.2)),
        StandardAction(constants(tau=0.1), quartic_potential(0.3)),
        StandardAction(constants(), cosine_well_potential(0.8, 2.0)),
        GaugedAction(constants(), harmonic_potential(1.0, 1.0), quadratic_phase(0.5)),
        GaugedAction(constants(tau=0.2), zero_potential(), linear_phase(0.7)),
        QuarticAction(constants(), harmonic_potential(1.0, 1.0), 0.15),
        SineAction(constants(), 1.3),
    ]


def test_gradients_match_finite_differences_1d():
    rng = np.random.default_rng(42)
    pts = rng.uniform(-5.0, 5.0, size=(100, 2))
    for model in all_1d_models():
        for x, y in pts:
            fdx, fdy = _fd_1d(lambda a, b: float(model.s(a, b)), x, y)
            scale = max(abs(fdx), abs(fdy), 1e-3)
            assert abs(float(model.ds_dx(x, y)) - fdx) < FD_RTOL * scale
            assert abs(float(model.ds_dy(x, y)) - fdy) < FD_RTOL * scale


def test_mixed_derivative_matches_finite_differences_1d():
    rng = np.random.default_rng(43)
    pts = rng.uniform(-5.0, 5.0, size=(40, 2))
    for model in all_1d_models():
        for x, y in pts:
            fd = (
                float(model.ds_dx(x, y + FD_STEP)) - float(model.ds_dx(x, y - FD_STEP))
            ) / (2 * FD_STEP)
            scale = max(abs(fd), 1e-3)
            assert abs(float(model.d2s_dxdy(x, y)) - fd) < FD_RTOL * scale


def vp2d_models():
    return [
        VectorPotentialAction2D(constants(), zero_potential(), zero_field(), zero_field()),
        VectorPotentialAction2D(constants(), harmonic_potential(1.0, 1.0), bilinear_field(0.5), bilinear_field(0.2)),
        VectorPotentialAction2D(constants(tau=0.1), quartic_potential(0.1), sine_field(0.8), bilinear_field(0.3)),
    ]


def test_gradients_match_finite_differences_2d():
    rng = np.random.default_rng(44)
    pts = rng.uniform(-5.0, 5.0, size=(25, 2, 2))
    for model in vp2d_models():
        for x, y in pts:
            gx = np.asarray(model.ds_dx(x, y))
            gy = np.asarray(model.ds_dy(x, y))
            for axis in range(2):
                dv = np.zeros(2)
                dv[axis] = FD_STEP
                fdx = (float(model.s(x + dv, y)) - float(model.s(x - dv, y))) / (2 * FD_STEP)
                fdy = (float(model.s(x, y + dv)) - float(model.s(x, y - dv))) / (2 * FD_STEP)
                scale = max(abs(fdx), abs(fdy), 1e-3)
                assert abs(gx[axis] - fdx) < FD_RTOL * scale
                assert abs(gy[axis] - fdy) < FD_RTOL * scale


def test_mixed_block_matches_finite_differences_2d():
    rng = np.random.default_rng(45)
    pts = rng.uniform(-4.0, 4.0, size=(10, 2, 2))
    for model in vp2d_models():
        for x, y in pts:
            block = np.asarray(model.d2s_dxdy(x, y))
            for b in range(2):
                dv = np.zeros(2)
                dv[b] = FD_STEP
                fd_col = (np.asarray(model.ds_dx(x, y + dv)) - np.asarray(model.ds_dx(x, y - dv))) / (2 * FD_STEP)
                np.testing.assert_allclose(block[:, b], fd_col, rtol=2e-6, atol=2e-6)


def test_vp2d_zero_fields_reduce_to_standard_2d():
    c = constants(tau=0.25)
    model = VectorPotentialAction2D(c, harmonic_potential(1.0, 1.0), zero_field(), zero_field())
    x = np.array([0.7, -0.4])
    y = np.array([0.1, 0.2])
    kinetic = 0.5 * c.mass / c.time_step * float(np.sum((x - y) ** 2))
    pot = harmonic_potential(1.0, 1.0).v
    expected = kinetic - 0.5 * c.time_step * float(pot(x[0]) + pot(x[1]) + pot(y[0]) + pot(y[1]))
    assert float(model.s(x, y)) == pytest.approx(expected, abs=1e-14)
    # Each axis is the standard body: gradients and the diagonal block bit for bit.
    axis = StandardAction(c, quartic_potential(0.3))
    model = VectorPotentialAction2D(c, axis.potential, zero_field(), zero_field())
    x, y = np.random.default_rng(12).uniform(-4.0, 4.0, size=(2, 50, 2))
    for name in ("ds_dx", "ds_dy"):
        want = np.stack([getattr(axis, name)(x[:, k], y[:, k]) for k in range(2)], axis=-1)
        np.testing.assert_array_equal(getattr(model, name)(x, y), want)
    block = model.d2s_dxdy(x, y)
    for k in range(2):
        np.testing.assert_array_equal(block[:, k, k], axis.d2s_dxdy(x[:, k], y[:, k]))
    want = axis.s(x[:, 0], y[:, 0]) + axis.s(x[:, 1], y[:, 1])
    np.testing.assert_allclose(model.s(x, y), want, rtol=1e-14, atol=1e-14 * float(np.max(np.abs(want))))


def test_vp2d_perturbation_vanishes_at_coincident_points():
    model = VectorPotentialAction2D(constants(), zero_potential(), bilinear_field(1.0), sine_field(0.7))
    rng = np.random.default_rng(6)
    for x in rng.uniform(-3, 3, size=(20, 2)):
        assert float(model.perturbation(x, x)) == pytest.approx(0.0, abs=1e-15)


def test_vp2d_mixed_trace_is_zero():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-4, 4, size=(30, 2, 2))
    for model in vp2d_models():
        for x, y in pts:
            block = np.asarray(model.d2s_dxdy(x, y))
            pert_trace = block[0, 0] + block[1, 1] - 2 * (-model.constants.mass / model.constants.time_step)
            assert pert_trace == 0.0


def test_continuum_lagrangian_free_particle():
    model = StandardAction(constants(tau=0.5), zero_potential())
    assert continuum_lagrangian(model, 0.3, 2.0) == pytest.approx(2.0, abs=1e-14)
    assert lagrangian_limit(model, 0.3, 2.0) == pytest.approx(2.0, abs=1e-15)


def test_continuum_lagrangian_harmonic_at_rest():
    model = StandardAction(constants(tau=0.1), harmonic_potential(1.0, 1.0))
    # v = 0: the ratio collapses to -V(x) with no step error at all
    assert continuum_lagrangian(model, 1.0, 0.0) == pytest.approx(-0.5, abs=1e-15)


def test_continuum_lagrangian_error_halves_with_tau():
    pot = quartic_potential(1.0)
    for tau in (0.1, 0.05):
        coarse = StandardAction(constants(tau=tau), pot)
        fine = StandardAction(constants(tau=tau / 2), pot)
        e1 = abs(continuum_lagrangian(coarse, 1.0, 1.0) - lagrangian_limit(coarse, 1.0, 1.0))
        e2 = abs(continuum_lagrangian(fine, 1.0, 1.0) - lagrangian_limit(fine, 1.0, 1.0))
        assert 0.4 < e2 / e1 < 0.6


def test_lagrangian_limit_2d_zero_fields():
    model = VectorPotentialAction2D(constants(tau=0.2), harmonic_potential(1.0, 1.0), zero_field(), zero_field())
    x = np.array([1.0, -0.5])
    v = np.array([0.5, 2.0])
    expected = 0.5 * float(v @ v) - 0.5 * (1.0 + 0.25)
    assert lagrangian_limit_2d(model, x, v) == pytest.approx(expected, abs=1e-14)


def test_lagrangian_limit_2d_bilinear_field():
    # a1(a, b) = a b: qA_1 at x = (0, 1) is x2 = 1, so L = 1/2 + 1 * 1 = 3/2.
    model = VectorPotentialAction2D(constants(tau=0.1), zero_potential(), bilinear_field(1.0), zero_field())
    value = lagrangian_limit_2d(model, np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert value == pytest.approx(1.5, abs=1e-14)


def test_continuum_lagrangian_2d_error_halves_with_tau():
    # Along directions where the dropped total-derivative term vanishes the
    # finite-step ratio converges to the magnetic Lagrangian at first order.
    x = np.array([0.6, 1.1])
    v1 = 1.0
    v2 = -v1 * (math.cos(x[0]) * math.sin(x[1])) / (math.sin(x[0]) * math.cos(x[1]))
    v = np.array([v1, v2])
    errors = []
    for tau in (0.05, 0.025, 0.0125):
        model = VectorPotentialAction2D(constants(tau=tau), quartic_potential(0.1), sine_field(1.0), zero_field())
        errors.append(abs(continuum_lagrangian(model, x, v) - lagrangian_limit_2d(model, x, v)))
    assert 0.4 < errors[1] / errors[0] < 0.6
    assert 0.4 < errors[2] / errors[1] < 0.6


# --- one family test: is_standard_family decides every fast path

# One block per kind config.build_action can make.
CONFIG_ACTIONS = {
    "standard": {"kind": "standard", "potential": {"name": "harmonic"}},
    "gauged": {"kind": "gauged", "potential": {"name": "cosine_well"}, "phase": {"name": "linear"}},
    "quartic": {"kind": "quartic", "potential": {"name": "zero"}, "epsilon": 0.1},
    "sine": {"kind": "sine", "strength": 1.0},
    "vector_potential_2d": {
        "kind": "vector_potential_2d",
        "potential": {"name": "zero"},
        "a1": {"name": "bilinear"},
        "a2": {"name": "zero"},
    },
}


def _config_model(kind):
    cfg = {"constants": {"mass": 1.0, "tau": 0.1, "hbar": 1.0}, "action": config._validate_action(CONFIG_ACTIONS[kind])}
    return config.build_action(cfg)


def _family_subclass(family):
    """An instance of a subclass of StandardAction or GaugedAction, with the same physics, named after its base."""
    subclass = type(f"Custom{family.__name__}", (family,), {})
    model = _config_model(family.kind)
    if family is GaugedAction:
        return subclass(model.constants, model.potential, model.phase)
    return subclass(model.constants, model.potential)


def test_config_actions_cover_every_kind():
    assert sorted(CONFIG_ACTIONS) == sorted(config._ACTIONS)


@pytest.mark.parametrize(
    "case",
    [*CONFIG_ACTIONS, StandardAction, GaugedAction],
    ids=lambda case: f"{case.__name__}_subclass" if isinstance(case, type) else case,
)
def test_one_family_test_decides_every_fast_path(case, monkeypatch):
    import dtqm.classical
    import dtqm.rootfind

    model = _family_subclass(case) if isinstance(case, type) else _config_model(case)
    grid = make_grid(32, -4.0, 0.25)

    def accepts(call):
        try:
            call()
        except ValueError:
            return False
        return True

    calls = {"track": 0, "newton": 0}

    def counted(key, function):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(dtqm.classical, "_family_track", counted("track", dtqm.classical._family_track))
    monkeypatch.setattr(dtqm.rootfind, "bracketed_newton", counted("newton", dtqm.rootfind.bracketed_newton))
    x0 = np.float64(0.5) if model.dimension == 1 else np.array([0.5, 0.2])
    integrate(model, x0, x0 - 0.01, 5)
    closed_form = calls["track"] > 0 and calls["newton"] == 0
    analytic = accepts(lambda: build_kernel(grid, model))
    sweep = accepts(lambda: hbar_sweep(model, [1.0, 0.5, 0.25], 0.5, 0.0, 3, 128))
    fft = model.dimension == 1 and build_kernel(grid, model, "calibrated").apply_path != "dense"
    assert [analytic, sweep, fft, closed_form] == [is_standard_family(model)] * 4


@pytest.mark.parametrize("family", [StandardAction, GaugedAction])
def test_analytic_kernel_and_sweep_refuse_a_family_subclass(family):
    # A subclass inherits its base's kind, so the refusal names the class.
    model = _family_subclass(family)
    assert model.kind == family.kind and not is_standard_family(model)
    with pytest.raises(ValueError, match=f"got Custom{family.__name__}$"):
        build_kernel(make_grid(32, -4.0, 0.25), model)
    with pytest.raises(ValueError, match=f"got Custom{family.__name__}$"):
        hbar_sweep(model, [1.0, 0.5, 0.25], 0.5, 0.0, 3, 128)
