"""Constancy check for the mixed second derivative of one-step actions.

A one-step kernel built from an action can only be unitary (to leading
order in hbar) when det(d2 S / dx dy) is the same number everywhere. The
checker samples that determinant on a deterministic stratified grid of
(x, y) pairs and reports whether it is constant at a given tolerance.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .action import ActionModel
from .classical import NumericalError

__all__ = ["CriterionReport", "CriterionError", "check_criterion"]

# A mean at most this fraction of the largest |det| is degenerate: the spread
# is then reported relative to that largest |det| instead of to the mean.
DEGENERATE_MEAN = 1e-14

MIN_SAMPLES = 16
DEFAULT_SAMPLES = 1024
DEFAULT_TOLERANCE = 1e-8


class CriterionError(NumericalError):
    """Sampling failed: an action evaluator raised (the message carries the
    coordinates), or the sample points or determinants are not finite."""


@dataclass(frozen=True)
class CriterionReport:
    samples: int
    det_min: float
    det_max: float
    det_mean: float
    relative_spread: float
    is_constant: bool
    tolerance: float
    trace_linearized: float | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def _midpoints(lo: float, hi: float, m: int) -> np.ndarray:
    return lo + (np.arange(m) + 0.5) * (hi - lo) / m


def _sample_pairs(dimension: int, domain, n_samples: int):
    """Stratified midpoint grid over domain^2; deterministic and reproducible."""
    lo, hi = float(domain[0]), float(domain[1])
    if not hi > lo:
        raise ValueError(f"degenerate domain [{lo}, {hi}]")
    n_axes = 2 * dimension
    per_axis = max(2, math.ceil(n_samples ** (1.0 / n_axes)))
    t = _midpoints(lo, hi, per_axis)
    if not np.all(np.isfinite(t)):
        raise CriterionError(f"the sample points of the domain [{lo}, {hi}] are not finite")
    mesh = np.meshgrid(*([t] * n_axes), indexing="ij")
    cols = np.stack([m.ravel() for m in mesh], axis=-1)  # (S, 2 * dim)
    if dimension == 1:
        return cols[:, 0], cols[:, 1]
    return cols[:, :dimension], cols[:, dimension:]


def _locate_failure(model, xs, ys, original: Exception):
    # Re-evaluate sample by sample to attach coordinates to the failure.
    for xi, yi in zip(xs, ys):
        try:
            model.d2s_dxdy(xi, yi)
        except Exception as exc:
            raise CriterionError(f"action evaluator failed at x={xi}, y={yi}: {exc}") from exc
    raise original


def check_criterion(
    model: ActionModel,
    domain,
    n_samples: int = DEFAULT_SAMPLES,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CriterionReport:
    """Sample det(d2 S / dx dy) over domain^2 and summarize its spread.

    ``domain`` is an interval (lo, hi) applied per axis. ``n_samples`` is a
    lower bound on the number of (x, y) pairs; the stratified grid rounds it
    up to a power of the per-axis resolution. The verdict ``is_constant`` is
    relative spread below ``tolerance``. The spread is taken relative to the
    mean, or, when the mean is degenerate (at most DEGENERATE_MEAN times
    the largest |det|), relative to the largest |det|; it is 0 when every det
    is 0. Both are ratios, so scaling S by a constant moves them only by
    rounding.

    For 2D actions ``trace_linearized`` is max |d2S/dx1dy1 + d2S/dx2dy2 + 2m/tau|:
    the mixed block's trace less its kinetic part, which the linearized
    criterion requires to vanish. It is None for 1D actions.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_SAMPLES}, got {n_samples}")
    # Overflow is not reported as a warning: the samples and the summary are checked.
    with np.errstate(over="ignore", invalid="ignore"):
        xs, ys = _sample_pairs(model.dimension, domain, n_samples)
        try:
            mixed = np.asarray(model.d2s_dxdy(xs, ys), dtype=float)
        except Exception as exc:
            _locate_failure(model, xs, ys, exc)
            raise  # unreachable; _locate_failure always raises
        trace = None
        if model.dimension == 1:
            dets = mixed
        else:
            dets = mixed[..., 0, 0] * mixed[..., 1, 1] - mixed[..., 0, 1] * mixed[..., 1, 0]
            kinetic = model.dimension * model.constants.mass / model.constants.time_step
            trace = float(np.max(np.abs(mixed[..., 0, 0] + mixed[..., 1, 1] + kinetic)))
        det_min = float(dets.min())
        det_max = float(dets.max())
        det_mean = float(dets.mean())
    spread = det_max - det_min
    # A verdict never comes from a determinant that is not finite.
    if not all(map(math.isfinite, (det_min, det_max, det_mean, spread))):
        raise CriterionError(f"det(d2S/dxdy) is not finite over the domain {tuple(domain)}")
    largest = max(abs(det_min), abs(det_max))
    if abs(det_mean) > DEGENERATE_MEAN * largest:
        relative_spread = spread / abs(det_mean)
    else:  # a degenerate mean, zero included
        relative_spread = spread / largest if largest else 0.0
    return CriterionReport(
        samples=int(dets.size),
        det_min=det_min,
        det_max=det_max,
        det_mean=det_mean,
        relative_spread=float(relative_spread),
        is_constant=bool(relative_spread < tolerance),
        tolerance=float(tolerance),
        trace_linearized=trace,
    )
