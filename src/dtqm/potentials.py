"""Named potentials, gauge phases, and 2D stream functions with analytic derivatives.

The closed set of built-ins below is what the experiment configs can select;
arbitrary runtime expressions are deliberately not supported. Every entry
carries its derivatives so that action models never fall back to numerical
differentiation.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Potential",
    "zero_potential",
    "harmonic_potential",
    "quartic_potential",
    "cosine_well_potential",
    "GaugePhase",
    "zero_phase",
    "linear_phase",
    "quadratic_phase",
    "GaugeField2D",
    "zero_field",
    "bilinear_field",
    "sine_field",
]


@dataclass(frozen=True)
class Potential:
    """Scalar potential V(x) with derivative, for floats, ``np.float64`` or arrays.

    In two dimensions the built-ins are applied separably, V(x1) + V(x2),
    which keeps one definition valid for every grid dimension.
    """

    name: str
    v: Callable
    dv: Callable


def _zeros(x):
    return np.zeros(np.shape(x))


def zero_potential() -> Potential:
    return Potential("zero", _zeros, _zeros)


def harmonic_potential(mass: float, omega: float) -> Potential:
    k = mass * omega * omega
    return Potential("harmonic", lambda x: 0.5 * k * np.square(x), lambda x: k * x)


def quartic_potential(strength: float) -> Potential:
    # np.power, not **: on an np.float64, ** rounds through the C library's pow,
    # unlike numpy's loop over an array. Float exponents keep integers from wrapping.
    return Potential(
        "quartic",
        lambda x: strength * np.power(x, 4.0),
        lambda x: 4.0 * strength * np.power(x, 3.0),
    )


def cosine_well_potential(depth: float, wavenumber: float = 1.0) -> Potential:
    return Potential(
        "cosine_well",
        lambda x: depth * (1.0 - np.cos(wavenumber * x)),
        lambda x: depth * wavenumber * np.sin(wavenumber * x),
    )


@dataclass(frozen=True)
class GaugePhase:
    """Position-dependent phase generator chi(x) with derivative."""

    name: str
    phi: Callable
    dphi: Callable


def zero_phase() -> GaugePhase:
    return GaugePhase("zero", _zeros, _zeros)


def linear_phase(slope: float) -> GaugePhase:
    return GaugePhase(
        "linear",
        lambda x: slope * x,
        lambda x: np.full(np.shape(x), slope),
    )


def quadratic_phase(curvature: float) -> GaugePhase:
    return GaugePhase(
        "quadratic",
        lambda x: curvature * np.square(x),
        lambda x: 2.0 * curvature * x,
    )


@dataclass(frozen=True)
class GaugeField2D:
    """Two-argument generator used by the 2D vector-potential action.

    Carries first partials in both slots plus the mixed second partial,
    everything vectorized.
    """

    name: str
    f: Callable
    d_da: Callable
    d_db: Callable
    d2_dadb: Callable


def _zeros2(a, b):
    return np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)))


def zero_field() -> GaugeField2D:
    return GaugeField2D("zero", _zeros2, _zeros2, _zeros2, _zeros2)


def bilinear_field(strength: float) -> GaugeField2D:
    return GaugeField2D(
        "bilinear",
        lambda a, b: strength * np.asarray(a, dtype=float) * np.asarray(b, dtype=float),
        lambda a, b: strength * np.asarray(b, dtype=float) * np.ones(np.broadcast_shapes(np.shape(a), np.shape(b))),
        lambda a, b: strength * np.asarray(a, dtype=float) * np.ones(np.broadcast_shapes(np.shape(a), np.shape(b))),
        lambda a, b: np.full(np.broadcast_shapes(np.shape(a), np.shape(b)), strength),
    )


def sine_field(strength: float) -> GaugeField2D:
    return GaugeField2D(
        "sine",
        lambda a, b: strength * np.sin(a) * np.sin(b),
        lambda a, b: strength * np.cos(a) * np.sin(b),
        lambda a, b: strength * np.sin(a) * np.cos(b),
        lambda a, b: strength * np.cos(a) * np.cos(b),
    )
