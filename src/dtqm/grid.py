"""Uniform periodic 1D position lattices, Gaussian packets, and the packet observables.

A state is a complex array of amplitudes on the lattice's points.
All integrals over position are realized as rectangle-rule sums with the
spacing as the cell weight; the lattice is periodic, so its extent counts
the wrap interval (L = n * dx, not (n-1) * dx).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SpatialGrid",
    "make_grid",
    "packet_observables",
    "make_gaussian",
    "momentum_matrix",
]


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform 1D lattice with periodic topology: the points x_min + j * spacing, 0 <= j < n_points."""

    n_points: int
    x_min: float
    spacing: float

    @property
    def extent(self) -> float:
        return self.n_points * self.spacing

    @cached_property
    def points(self) -> np.ndarray:
        """The lattice points, built on first read; read-only."""
        # A lattice past the largest float has non-finite points. That is not
        # reported as a warning: kernels and packets built on it check them.
        with np.errstate(over="ignore", invalid="ignore"):
            pts = self.x_min + self.spacing * np.arange(self.n_points)
        pts.flags.writeable = False
        return pts

    @cached_property
    def centred_points(self) -> np.ndarray:
        """The lattice points less the box centre x_min + L / 2, built on first read; read-only."""
        # As with points, a lattice past the largest float is not reported here.
        with np.errstate(over="ignore", invalid="ignore"):
            pts = self.spacing * (np.arange(self.n_points) - 0.5 * self.n_points)
        pts.flags.writeable = False
        return pts


def make_grid(n_points: int, x_min: float, spacing: float) -> SpatialGrid:
    """Build a periodic lattice of n_points cells of size spacing."""
    if n_points < 4:
        raise ValueError(f"n_points must be at least 4, got {n_points}")
    if not spacing > 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    return SpatialGrid(int(n_points), float(x_min), float(spacing))


def packet_observables(block: np.ndarray, grid: SpatialGrid, hbar: float):
    """Mean position and momentum, position spread and norm of each row of a block.

    This is the lattice's one observables path. Each row holds the raw
    amplitudes of one state. The means are divided by the row's squared
    norm, so a series stays meaningful when a non-magic time step lets the
    norm drift. The momentum is the expectation of momentum_matrix, in the
    form w (hbar / dx) Im sum_j conj(a_j) a_{j+1}, with periodic wraparound.
    Returns four arrays: (x_mean, p_mean, x_spread, norm). The spread is
    taken from the moments about the box centre c, so its rounding is on the
    scale of the box, not of the distance from the coordinate origin. The
    axes come from the grid's cached points, so a run that reduces one row
    per call does not rebuild them each time.

    Every reduction runs row by row (a sum or a vecdot), never as one matrix
    product over the block, so a row's values do not depend on how many rows
    the block holds.
    """
    xc = grid.centred_points
    w = grid.spacing
    dens = np.abs(block)
    np.square(dens, out=dens)
    nsq = w * dens.sum(axis=1)
    x_mean = w * np.vecdot(dens, grid.points) / nsq
    xc_mean = w * np.vecdot(dens, xc) / nsq
    xc_sq = w * np.vecdot(dens, xc * xc) / nsq
    # vecdot conjugates its first argument; the last term closes the periodic wrap.
    hop = np.vecdot(block[:, :-1], block[:, 1:]).imag + (block[:, -1].conj() * block[:, 0]).imag
    p_mean = w * (hbar / w) * hop / nsq
    return x_mean, p_mean, np.sqrt(np.maximum(xc_sq - xc_mean * xc_mean, 0.0)), np.sqrt(nsq)


def make_gaussian(
    grid: SpatialGrid, x0: float, p0: float, alpha: float, hbar: float
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Minimum-uncertainty Gaussian packet, numerically normalized to 1.

    Returns (amplitudes, warnings): a fresh complex array on the grid's
    points and the packet's non-fatal quality flags, which never affect the
    numerics. The position spread is alpha * sqrt(hbar / 2) and the momentum
    spread sqrt(hbar / 2) / alpha. Packets too narrow for the lattice
    (sigma < 2 dx) or too wide for the box (sigma > L / 8) are still built
    but flagged. A packet whose squared norm is zero or not finite (a width
    that underflows, say) raises FloatingPointError, so the amplitudes
    returned are finite.
    """
    if not hbar > 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")

    xs = grid.points
    dx = grid.spacing
    sigma = alpha * math.sqrt(hbar / 2.0)
    flags: list[str] = []
    if sigma < 2.0 * dx:
        flags.append(f"width {sigma:.4g} below resolvable limit {2.0 * dx:.4g}")
    if sigma > grid.extent / 8.0:
        flags.append(f"width {sigma:.4g} above boundary-safe limit {grid.extent / 8.0:.4g}")
    d = xs - x0
    amps = np.exp(-(d * d / (4.0 * sigma * sigma)) + 1j * (p0 * xs / hbar))
    norm_sq = dx * float(np.sum(np.abs(amps) ** 2))
    if not 0.0 < norm_sq < math.inf:
        raise FloatingPointError(f"Gaussian packet cannot be normalized: squared norm {norm_sq!r}")
    amps /= math.sqrt(norm_sq)
    return amps, tuple(flags)


def momentum_matrix(grid: SpatialGrid, hbar: float) -> np.ndarray:
    """Dense central-difference momentum matrix of a grid, with periodic wraparound.

    Exactly Hermitian: the only nonzero entries are -i hbar / (2 dx) one step
    above the diagonal and its conjugate one step below (cyclically).
    """
    n = grid.n_points
    p = np.zeros((n, n), dtype=complex)
    coeff = -1j * hbar / (2.0 * grid.spacing)
    idx = np.arange(n)
    p[idx, (idx + 1) % n] = coeff
    p[idx, (idx - 1) % n] = -coeff
    return p
