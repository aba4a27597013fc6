"""Uniform periodic 1D position lattices, wavefunctions, and the packet observables.

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
    "WaveState",
    "make_grid",
    "packet_observables",
    "make_gaussian",
    "apply_gauge_phase",
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


def make_grid(n_points: int, x_min: float, spacing: float) -> SpatialGrid:
    """Build a periodic lattice of n_points cells of size spacing."""
    if n_points < 4:
        raise ValueError(f"n_points must be at least 4, got {n_points}")
    if not spacing > 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    return SpatialGrid(int(n_points), float(x_min), float(spacing))


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
        if amps.shape != (self.grid.n_points,):
            raise ValueError(
                f"amplitudes shape {amps.shape} does not match grid size {self.grid.n_points}"
            )
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def packet_observables(block: np.ndarray, grid: SpatialGrid, hbar: float):
    """Mean position and momentum, position spread and norm of each row of a block.

    This is the lattice's one observables path. Each row holds the raw
    amplitudes of one state. The means are divided by the row's squared
    norm, so a series stays meaningful when a non-magic time step lets the
    norm drift. The momentum is the expectation of momentum_matrix, in the
    form w (hbar / dx) Im sum_j conj(a_j) a_{j+1}, with periodic wraparound.
    Returns four arrays: (x_mean, p_mean, x_spread, norm). The axis comes
    from the grid's cached points, so a run that reduces one row per
    call does not rebuild it each time.

    Every reduction runs row by row (a sum or a vecdot), never as one matrix
    product over the block, so a row's values do not depend on how many rows
    the block holds.
    """
    xs = grid.points
    w = grid.spacing
    dens = np.abs(block)
    np.square(dens, out=dens)
    nsq = w * dens.sum(axis=1)
    x_mean = w * np.vecdot(dens, xs) / nsq
    x_sq = w * np.vecdot(dens, xs * xs) / nsq
    # vecdot conjugates its first argument; the last term closes the periodic wrap.
    hop = np.vecdot(block[:, :-1], block[:, 1:]).imag + (block[:, -1].conj() * block[:, 0]).imag
    p_mean = w * (hbar / w) * hop / nsq
    return x_mean, p_mean, np.sqrt(np.maximum(x_sq - x_mean * x_mean, 0.0)), np.sqrt(nsq)


def make_gaussian(grid: SpatialGrid, x0: float, p0: float, alpha: float, hbar: float) -> WaveState:
    """Minimum-uncertainty Gaussian packet, numerically normalized to 1.

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
    return WaveState(grid, amps, tuple(flags))


def apply_gauge_phase(psi: WaveState, phi, hbar: float) -> WaveState:
    """Multiply a state by exp(-i phi(x) / hbar) pointwise; preserves every |psi_j|.

    ``phi`` is either a callable evaluated on the lattice points or an array
    of per-point values.
    """
    if not hbar > 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    grid = psi.grid
    if callable(phi):
        values = np.asarray(phi(grid.points), dtype=float)
        values = np.broadcast_to(values, (grid.n_points,))
    else:
        values = np.asarray(phi, dtype=float)
        if values.shape != (grid.n_points,):
            raise ValueError(f"phase field shape {values.shape} != ({grid.n_points},)")
    if not np.all(np.isfinite(values)):
        raise ValueError("phase field must be finite on all grid points")
    return WaveState(grid, psi.amplitudes * np.exp(-1j * values / hbar), psi.warnings)


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
