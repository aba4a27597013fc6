"""Single-state 1D lattice observables, as test oracles for ``packet_observables``.

Each function takes a 1D grid and one state's amplitudes on it, and computes
its quantity directly from the amplitudes in the plainest form: one
quadrature sum or ``np.vdot``, ``np.roll`` for the central difference, and
two passes for the spread. The position moments assume a normalized state;
``packet_observables`` divides by the row's squared norm instead, and
reduces row by row with ``np.vecdot``.
"""

import math

import numpy as np


def inner(grid, a, b) -> complex:
    """Quadrature inner product <a|b>; conjugates the first argument."""
    return complex(grid.spacing * np.vdot(a, b))


def norm(grid, a) -> float:
    return math.sqrt(inner(grid, a, a).real)


def _density(grid, a) -> np.ndarray:
    return grid.spacing * np.abs(a) ** 2


def expect_x(grid, a) -> float:
    """Mean position of a normalized state."""
    return float(grid.points @ _density(grid, a))


def expect_p(grid, a, hbar: float) -> float:
    """Mean momentum from the central difference with periodic wraparound (real part)."""
    derivative = (np.roll(a, -1) - np.roll(a, 1)) / (2.0 * grid.spacing)
    return float((grid.spacing * np.vdot(a, -1j * hbar * derivative)).real)


def position_spread(grid, a) -> float:
    """Standard deviation of position of a normalized state, about its mean: two passes."""
    dens = _density(grid, a)
    offsets = grid.points - grid.points @ dens
    return math.sqrt(float((offsets * offsets) @ dens))
