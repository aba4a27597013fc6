"""Uniform periodic position lattices, wavefunctions, and the packet observables.

A lattice has one or two axes; Gaussian packets, gauge phases, the momentum
matrix and the observables are one-dimensional. All integrals over position
are realized as rectangle-rule sums with the cell weight prod(spacing); the
lattice is periodic, so the extent of an axis counts the wrap interval
(L = n * dx, not (n-1) * dx).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SpatialGrid",
    "WaveState",
    "make_grid",
    "make_grid_2d",
    "packet_observables",
    "make_gaussian",
    "apply_gauge_phase",
    "momentum_matrix",
]


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform lattice with periodic topology, one or two axes.

    Points along axis a are x_min[a] + j * spacing[a] for 0 <= j < shape[a].
    Two-dimensional grids are the Cartesian product of two 1D axes, stored
    row-major over (axis 0, axis 1) with a single flat index; every module
    that flattens 2D data uses this same order.
    """

    shape: tuple[int, ...]
    x_min: tuple[float, ...]
    spacing: tuple[float, ...]

    @property
    def dimension(self) -> int:
        return len(self.shape)

    @property
    def n_total(self) -> int:
        return int(np.prod(self.shape))

    @property
    def extent(self) -> tuple[float, ...]:
        return tuple(n * d for n, d in zip(self.shape, self.spacing))

    @property
    def weight(self) -> float:
        """Quadrature weight of one lattice cell."""
        return float(np.prod(self.spacing))

    def axis_points(self, axis: int = 0) -> np.ndarray:
        # A lattice past the largest float has non-finite points. That is not
        # reported as a warning: kernels and packets built on it check them.
        with np.errstate(over="ignore", invalid="ignore"):
            return self.x_min[axis] + self.spacing[axis] * np.arange(self.shape[axis])

    @cached_property
    def coordinates(self) -> np.ndarray:
        """All lattice points as an (n_total, dimension) array, flat row-major order."""
        axes = [self.axis_points(a) for a in range(self.dimension)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        pts.flags.writeable = False
        return pts


def make_grid(n_points: int, x_min: float, spacing: float) -> SpatialGrid:
    """Build a 1D periodic lattice of n_points cells of size spacing."""
    if n_points < 4:
        raise ValueError(f"n_points must be at least 4, got {n_points}")
    if not spacing > 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    return SpatialGrid((int(n_points),), (float(x_min),), (float(spacing),))


def make_grid_2d(shape, x_min, spacing) -> SpatialGrid:
    """Build a 2D lattice as the product of two 1D axes.

    Each argument may be a scalar (shared by both axes) or a pair.
    """
    ns = np.broadcast_to(np.asarray(shape, dtype=int), (2,))
    x0 = np.broadcast_to(np.asarray(x_min, dtype=float), (2,))
    dx = np.broadcast_to(np.asarray(spacing, dtype=float), (2,))
    if np.any(ns < 4):
        raise ValueError(f"each axis needs at least 4 points, got {tuple(ns)}")
    if np.any(dx <= 0):
        raise ValueError(f"spacings must be positive, got {tuple(dx)}")
    return SpatialGrid(tuple(int(n) for n in ns), tuple(map(float, x0)), tuple(map(float, dx)))


@dataclass(frozen=True, eq=False)
class WaveState:
    """Complex amplitudes over a grid; immutable after construction.

    ``warnings`` carries non-fatal quality flags (for instance a Gaussian
    packet too narrow for the lattice); it never affects the numerics.
    """

    grid: SpatialGrid
    amplitudes: np.ndarray
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.grid.n_total,):
            raise ValueError(
                f"amplitudes shape {amps.shape} does not match grid size {self.grid.n_total}"
            )
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def packet_observables(block: np.ndarray, grid: SpatialGrid, hbar: float):
    """Mean position and momentum, position spread and norm of each row of a 1D block.

    This is the lattice's one observables path. Each row holds the raw
    amplitudes of one state. The means are divided by the row's squared
    norm, so a series stays meaningful when a non-magic time step lets the
    norm drift. The momentum is the expectation of momentum_matrix, in the
    form w (hbar / dx) Im sum_j conj(a_j) a_{j+1}, with periodic wraparound.
    Returns four arrays: (x_mean, p_mean, x_spread, norm). The axis comes
    from the grid's cached coordinates, so a run that reduces one row per
    call does not rebuild it each time.

    Every reduction runs row by row (a sum or a vecdot), never as one matrix
    product over the block, so a row's values do not depend on how many rows
    the block holds.
    """
    xs = grid.coordinates[:, 0]
    w = grid.weight
    dens = np.abs(block)
    np.square(dens, out=dens)
    nsq = w * dens.sum(axis=1)
    x_mean = w * np.vecdot(dens, xs) / nsq
    x_sq = w * np.vecdot(dens, xs * xs) / nsq
    # vecdot conjugates its first argument; the last term closes the periodic wrap.
    hop = np.vecdot(block[:, :-1], block[:, 1:]).imag + (block[:, -1].conj() * block[:, 0]).imag
    p_mean = w * (hbar / grid.spacing[0]) * hop / nsq
    return x_mean, p_mean, np.sqrt(np.maximum(x_sq - x_mean * x_mean, 0.0)), np.sqrt(nsq)


def make_gaussian(grid: SpatialGrid, x0: float, p0: float, alpha: float, hbar: float) -> WaveState:
    """Minimum-uncertainty Gaussian packet on a 1D grid, numerically normalized to 1.

    The position spread is alpha * sqrt(hbar / 2) and the momentum spread
    sqrt(hbar / 2) / alpha. Packets too narrow for the lattice (sigma < 2 dx)
    or too wide for the box (sigma > L / 8) are still built but flagged
    through ``WaveState.warnings``. A packet whose squared norm is zero or
    not finite (a width that underflows, say) raises FloatingPointError.
    """
    if not hbar > 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if grid.dimension != 1:
        raise ValueError("Gaussian packets are one-dimensional")

    xs = grid.coordinates[:, 0]
    dx = grid.spacing[0]
    sigma = alpha * math.sqrt(hbar / 2.0)
    flags: list[str] = []
    if sigma < 2.0 * dx:
        flags.append(f"axis 0: width {sigma:.4g} below resolvable limit {2.0 * dx:.4g}")
    if sigma > grid.extent[0] / 8.0:
        flags.append(f"axis 0: width {sigma:.4g} above boundary-safe limit {grid.extent[0] / 8.0:.4g}")
    d = xs - x0
    amps = np.exp(-(d * d / (4.0 * sigma * sigma)) + 1j * (p0 * xs / hbar))
    norm_sq = grid.weight * float(np.sum(np.abs(amps) ** 2))
    if not 0.0 < norm_sq < math.inf:
        raise FloatingPointError(f"Gaussian packet cannot be normalized: squared norm {norm_sq!r}")
    amps /= math.sqrt(norm_sq)
    return WaveState(grid, amps, tuple(flags))


def apply_gauge_phase(psi: WaveState, phi, hbar: float) -> WaveState:
    """Multiply a 1D state by exp(-i phi(x) / hbar) pointwise; preserves every |psi_j|.

    ``phi`` is either a callable evaluated on the lattice points or an array
    of per-point values.
    """
    if not hbar > 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    grid = psi.grid
    if callable(phi):
        values = np.asarray(phi(grid.coordinates[:, 0]), dtype=float)
        values = np.broadcast_to(values, (grid.n_total,))
    else:
        values = np.asarray(phi, dtype=float)
        if values.shape != (grid.n_total,):
            raise ValueError(f"phase field shape {values.shape} != ({grid.n_total},)")
    if not np.all(np.isfinite(values)):
        raise ValueError("phase field must be finite on all grid points")
    return WaveState(grid, psi.amplitudes * np.exp(-1j * values / hbar), psi.warnings)


def momentum_matrix(grid: SpatialGrid, hbar: float) -> np.ndarray:
    """Dense central-difference momentum matrix of a 1D grid, with periodic wraparound.

    Exactly Hermitian: the only nonzero entries are -i hbar / (2 dx) one step
    above the diagonal and its conjugate one step below (cyclically).
    """
    n = grid.shape[0]
    p = np.zeros((n, n), dtype=complex)
    coeff = -1j * hbar / (2.0 * grid.spacing[0])
    idx = np.arange(n)
    p[idx, (idx + 1) % n] = coeff
    p[idx, (idx - 1) % n] = -coeff
    return p
