"""Tests for the mixed-derivative constancy check."""

import numpy as np
import pytest

from dtqm import (
    CriterionError,
    GaugedAction,
    PhysicalConstants,
    QuarticAction,
    SineAction,
    StandardAction,
    VectorPotentialAction2D,
    bilinear_field,
    check_criterion,
    harmonic_potential,
    quadratic_phase,
    sine_field,
    zero_field,
    zero_potential,
)

CONST = PhysicalConstants(1.0, 0.5, 1.0)


def test_standard_action_is_constant():
    report = check_criterion(StandardAction(CONST, harmonic_potential(1.0, 1.0)), (-2.0, 2.0))
    assert report.is_constant
    assert report.samples == 1024
    assert report.det_min == report.det_max == report.det_mean == -2.0
    assert report.relative_spread == 0.0


def test_quartic_probe_report_values():
    # Hand formula: det = -m/tau - 12 eps (x - y)^2; midpoint stratification
    # over [-0.5, 0.5] reaches |x - y| = 31/32 at most and 0 exactly.
    report = check_criterion(QuarticAction(CONST, zero_potential(), 0.1), (-0.5, 0.5))
    assert not report.is_constant
    assert report.det_max == pytest.approx(-2.0, abs=1e-14)
    assert report.det_min == pytest.approx(-2.0 - 1.2 * (31.0 / 32.0) ** 2, abs=1e-12)
    assert report.relative_spread == pytest.approx(0.5119417561928437, abs=1e-12)


def test_gauged_report_identical_to_standard():
    pot = harmonic_potential(1.0, 1.0)
    base = check_criterion(StandardAction(CONST, pot), (-2.0, 2.0))
    gauged = check_criterion(GaugedAction(CONST, pot, quadratic_phase(0.8)), (-2.0, 2.0))
    assert gauged == base


def test_sine_probe_not_constant():
    report = check_criterion(SineAction(CONST, 1.0), (-1.0, 1.0))
    assert not report.is_constant
    assert report.det_min < report.det_max < 0.0


def test_degenerate_mean_uses_the_spread_relative_to_the_largest_det():
    # Symmetric domain makes the sampled mean of -cos(x)cos(y) essentially
    # zero; the fallback must still flag the probe as non-constant.
    report = check_criterion(SineAction(CONST, 1.0), (-np.pi, np.pi))
    largest = max(abs(report.det_min), abs(report.det_max))
    assert abs(report.det_mean) < 1e-14 * largest
    assert report.relative_spread == pytest.approx((report.det_max - report.det_min) / largest, abs=1e-14)
    assert not report.is_constant


def _scaled_actions(c):
    """(action, domain) pairs whose S is c times that at c = 1: mass, epsilon, the
    harmonic potential built from that mass and the sine strength all carry c."""
    constants = PhysicalConstants(c, 0.1, 1.0)
    pot = harmonic_potential(c, 1.0)
    return [
        (StandardAction(constants, pot), (-2.0, 2.0)),
        (QuarticAction(constants, pot, 0.1 * c), (-2.0, 2.0)),
        (SineAction(constants, c), (-1.0, 1.0)),
        (SineAction(constants, c), (-np.pi, np.pi)),
    ]


@pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
def test_the_verdict_does_not_depend_on_the_scale_of_the_action(scale):
    for (model, domain), (unit, _) in zip(_scaled_actions(scale), _scaled_actions(1.0)):
        report, reference = check_criterion(model, domain), check_criterion(unit, domain)
        assert report.is_constant is (model.kind == "standard"), (model.kind, domain, report)
        assert report.relative_spread == pytest.approx(reference.relative_spread, rel=1e-12)


def test_is_constant_monotone_in_tolerance():
    tolerances = [1e-12, 1e-8, 1e-4, 1e-1, 1.0]
    for model in (
        StandardAction(CONST, zero_potential()),
        QuarticAction(CONST, zero_potential(), 0.1),
        SineAction(CONST, 1.0),
    ):
        verdicts = [check_criterion(model, (-1.0, 1.0), tolerance=t).is_constant for t in tolerances]
        # loosening the tolerance never flips true -> false
        for earlier, later in zip(verdicts, verdicts[1:]):
            assert later or not earlier


def test_sample_count_and_preconditions():
    report = check_criterion(StandardAction(CONST, zero_potential()), (-1.0, 1.0), n_samples=100)
    assert report.samples >= 100
    with pytest.raises(ValueError):
        check_criterion(StandardAction(CONST, zero_potential()), (-1.0, 1.0), n_samples=8)
    with pytest.raises(ValueError):
        check_criterion(StandardAction(CONST, zero_potential()), (1.0, 1.0))


def test_evaluator_failure_carries_coordinates():
    class Broken(StandardAction):
        def d2s_dxdy(self, x, y):
            if np.ndim(x) == 0 and float(x) > 0:
                raise RuntimeError("boom")
            if np.ndim(x) > 0:
                raise RuntimeError("vector boom")
            return super().d2s_dxdy(x, y)

    with pytest.raises(CriterionError, match="x="):
        check_criterion(Broken(CONST, zero_potential()), (-1.0, 1.0))


def test_vp2d_bilinear_fields_keep_constant_determinant():
    # Constant mixed second partials leave det = (m/tau)^2 + ((c1 - c2)/2)^2.
    model = VectorPotentialAction2D(CONST, zero_potential(), bilinear_field(0.5), bilinear_field(0.3))
    report = check_criterion(model, (-1.0, 1.0), n_samples=1296)
    assert report.is_constant
    assert report.det_mean == pytest.approx(4.01, abs=1e-12)
    assert report.trace_linearized == 0.0


def test_vp2d_sine_field_breaks_constancy_but_not_linearization():
    model = VectorPotentialAction2D(CONST, zero_potential(), sine_field(0.5), bilinear_field(0.3))
    report = check_criterion(model, (-1.0, 1.0), n_samples=1296)
    assert not report.is_constant
    assert report.trace_linearized == 0.0


def test_check_linearized_zero_fields():
    model = VectorPotentialAction2D(CONST, zero_potential(), zero_field(), zero_field())
    assert check_criterion(model, (-1.0, 1.0)).trace_linearized == 0.0


def test_check_linearized_quartic_perturbation_probe():
    # An extra eps (x1 - y1)^4 adds 12 eps (x1 - y1)^2 to the trace of the
    # mixed block; the stratified grid over [-1, 1] reaches |x1 - y1| = 5/3.
    class Probe(VectorPotentialAction2D):
        kind = "quartic_perturbation_probe"

        def d2s_dxdy(self, x, y):
            block = super().d2s_dxdy(x, y)
            d = np.asarray(x)[..., 0] - np.asarray(y)[..., 0]
            block[..., 0, 0] += 12.0 * 0.05 * d * d
            return block

    probe = Probe(CONST, zero_potential(), zero_field(), zero_field())
    value = check_criterion(probe, (-1.0, 1.0), 1296).trace_linearized
    assert value == pytest.approx(12.0 * 0.05 * (5.0 / 3.0) ** 2, abs=1e-12)
    assert value > 0.0


def test_check_linearized_rejects_1d_actions():
    # 1D actions have no linearized trace to report.
    assert check_criterion(StandardAction(CONST, zero_potential()), (-1.0, 1.0)).trace_linearized is None
