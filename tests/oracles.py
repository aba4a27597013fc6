"""Single-state 1D lattice observables, as test oracles for ``packet_observables``.

Each function takes one WaveState on a 1D grid and computes its quantity
directly from the amplitudes in the plainest form: one quadrature sum or
``np.vdot``, and ``np.roll`` for the central difference. The position
moments assume a normalized state; ``packet_observables`` divides by the
row's squared norm instead, and reduces row by row with ``np.vecdot``.
"""

import math

import numpy as np


def inner(a, b) -> complex:
    """Quadrature inner product <a|b>; conjugates the first argument."""
    return complex(a.grid.spacing * np.vdot(a.amplitudes, b.amplitudes))


def norm(psi) -> float:
    return math.sqrt(inner(psi, psi).real)


def _density(psi) -> np.ndarray:
    return psi.grid.spacing * np.abs(psi.amplitudes) ** 2


def expect_x(psi) -> float:
    """Mean position of a normalized state."""
    return float(psi.grid.points @ _density(psi))


def expect_p(psi, hbar: float) -> float:
    """Mean momentum from the central difference with periodic wraparound (real part)."""
    a = psi.amplitudes
    derivative = (np.roll(a, -1) - np.roll(a, 1)) / (2.0 * psi.grid.spacing)
    return float((psi.grid.spacing * np.vdot(a, -1j * hbar * derivative)).real)


def position_spread(psi) -> float:
    """Standard deviation of position of a normalized state."""
    xs = psi.grid.points
    dens = _density(psi)
    mean = xs @ dens
    return math.sqrt(max(float((xs * xs) @ dens - mean * mean), 0.0))
