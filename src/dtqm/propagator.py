"""One-step evolution kernels built from an action's phase, on a 1D lattice.

The kernel matrix is U_jk = w A exp(i S(x_j, x_k) / hbar) with w the cell
weight (the spacing), so every entry has the same magnitude w |A| and all
structure lives in the phase. Kernels are built for 1D actions only; the 2D
vector-potential action enters through the criterion and the classical
solver. For the standard/gauged family the phase splits into
diagonal potential/gauge terms and a kinetic term that depends on j - k
only, so U = diag(left) K diag(right) with K a Toeplitz chirp; those kernels
are applied by FFT, on any number of points: one size-N FFT at tau* / q,
where K is a chirped DFT, and a size-2N pair otherwise. Every other kernel
(the probes) is applied as a dense matrix. The dense matrix and the
unitarity defect are built on first read, up to MAX_POINTS_1D points.
Unitarity is quantified by the max-row-sum norm of U U^dagger - I, which
bounds the worst-case action on normalized states. With U = w A P and P
unimodular, U U^dagger = (w |A|)^2 P P^dagger: the defect and the
calibration read the row sums of one Gram product |P P^dagger|.

At tau* / q with gcd(q, N) = 1 the chirped DFT is sqrt(N) times a unitary,
so U is w |A| sqrt(N) times a unitary and every eigenvalue has that
magnitude (the Gauss sum); ``gauss_sum_magnitude`` gives it without an
eigensolve. The unitarity defect is still measured from the dense phases.
"""

import cmath
import math
from functools import cached_property

import numpy as np

from .action import ActionModel, GaugedAction, is_standard_family
from .classical import NumericalError
from .grid import SpatialGrid

__all__ = ["PropagatorKernel", "magic_time_step", "analytic_amplitude", "unitarity_defect", "build_kernel", "evolve"]

# Size limit of the dense N x N work: the kernel matrix and calibration.
MAX_POINTS_1D = 1024
# Relative distance of N a / pi from an integer q below which the kinetic
# factor is taken as the exact chirped DFT of tau = tau* / q: rounding level,
# so a snapped kernel is the kernel from S at the configured step to roundoff.
MAGIC_TOLERANCE = 8 * np.finfo(float).eps


class PropagatorKernel:
    """One-step evolution kernel with its amplitude; matrix and defect built on first read.

    ``factors`` is (left, right, spectrum, rows) for kernels of the form
    diag(left) K diag(right) (see _kernel_factors); ``apply`` is then one
    size-N FFT at tau* / q and one size-2N FFT pair otherwise, O(N log N)
    either way. Without factors ``apply`` is the dense matvec. ``q`` is the
    integer with tau = tau* / q when ``apply`` is the chirped DFT, else None;
    ``q_raw`` is N a / pi before that snap (see _kernel_factors).
    ``calibration`` is None for analytic kernels and {"offdiag_row_sum": r,
    "at_bracket_edge": bool} for calibrated ones (see _calibrate), whose
    ``dense`` (phases, Gram rows) the kernel keeps; else the first read of
    ``matrix`` or ``unitarity_deviation`` builds them (see _dense_phases).
    """

    def __init__(self, grid, model, amplitude, factors, dense, calibration, q, q_raw):
        self.grid = grid
        self.model = model
        self.amplitude = amplitude
        self.calibration = calibration
        self.q = q
        self.q_raw = q_raw
        self.gcd_q_n = math.gcd(q, grid.n_points) if q is not None else None
        self._factors = factors
        self._phases, self._gram_rows = dense or (None, None)

    def _dense_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The (diagonal, off-diagonal) Gram row sums, built with the phases once per kernel."""
        if self._gram_rows is None:
            self._phases, self._gram_rows = _dense_phases(self.grid, self.model)
        return self._gram_rows

    @cached_property
    def matrix(self) -> np.ndarray:
        """w A exp(i S / hbar), the only place the phases are scaled; the phases are then dropped."""
        self._dense_rows()
        phases, self._phases = self._phases, None
        # Overflow of the weight times the amplitude is not reported as a warning:
        # eigvals and the packet checks refuse a non-finite matrix. ``phases`` is
        # named: numpy would scale a temporary in place, which rounds differently.
        with np.errstate(over="ignore", invalid="ignore"):
            matrix = self.grid.spacing * self.amplitude * phases
        matrix.flags.writeable = False
        return matrix

    @cached_property
    def unitarity_deviation(self) -> float:
        """max_j |s d_j - 1| + s off_j, s = (w |A|)^2, from the Gram row sums (see unitarity_defect)."""
        diagonal, offdiag = self._dense_rows()
        weight = self.grid.spacing * abs(self.amplitude)
        # Overflow is not reported as a warning: a report refuses a non-finite defect.
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.max(np.abs(weight * weight * diagonal - 1.0) + weight * weight * offdiag))

    @property
    def apply_path(self) -> str:
        """``chirped_dft`` (one size-N FFT), ``embedding_2n`` (a size-2N FFT pair) or ``dense``."""
        if self._factors is None:
            return "dense"
        return "chirped_dft" if self._factors[2] is None else "embedding_2n"

    @property
    def summary(self) -> dict:
        """The reports' ``kernel`` block: ``apply`` (see apply_path), ``q``, ``gcd_q_n`` = gcd(q, N)
        and ``q_offset`` = q_raw / q - 1, the relative snap of the applied step to tau* / q.
        """
        return {
            "apply": self.apply_path,
            "q": self.q,
            "gcd_q_n": self.gcd_q_n,
            "q_offset": None if self.q is None else self.q_raw / self.q - 1.0,
        }

    @property
    def gauss_sum_magnitude(self) -> float | None:
        """w |A| sqrt(N), every eigenvalue's magnitude, at tau* / q with gcd(q, N) = 1; else None.

        The rows of F_q are then a permutation of the DFT's, so F_q / sqrt(N)
        is unitary, and so is U / (w |A| sqrt(N)): |left| = w |A| and
        |right| = 1 (see _kernel_factors).
        """
        return self.grid.spacing * abs(self.amplitude) * math.sqrt(self.grid.n_points) if self.gcd_q_n == 1 else None

    def apply(self, amplitudes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """U v, by FFT when the kernel has factors and as a dense matvec otherwise.

        With ``out`` the result is written there and returned; ``out`` may be
        ``amplitudes`` itself, and the values are the same bit for bit. At
        tau* / q the FFT runs in ``out``, so a step without a gather
        allocates nothing.
        """
        if self._factors is None:
            return np.matmul(self.matrix, amplitudes, out=out)
        left, right, spectrum, rows = self._factors
        if spectrum is None:
            work = np.multiply(right, amplitudes, out=out)
            np.fft.fft(work, out=work)
            if rows is not None:
                work = work[rows]
        else:
            work = np.fft.fft(right * amplitudes, len(spectrum))
            # spectrum first: numpy's complex product is not symmetric in the last bit.
            np.multiply(spectrum, work, out=work)
            np.fft.ifft(work, out=work)
            work = work[: len(amplitudes)]
        return np.multiply(left, work, out=out)


def magic_time_step(grid: SpatialGrid, mass: float, hbar: float) -> float:
    """Time step making the free kinetic kernel an exact lattice unitary.

    At tau = m dx L / (2 pi hbar) the kinetic phase between points j and k
    is pi (j - k)^2 / N; the cross terms in U U^dagger then reduce to plain
    geometric sums that cancel exactly for j != k, for every N.
    """
    return mass * grid.spacing * grid.extent / (2.0 * math.pi * hbar)


def analytic_amplitude(model: ActionModel) -> complex:
    """Continuum stationary-phase amplitude of a 1D action: sqrt(m / (2 pi hbar tau)) e^{-i pi/4}."""
    c = model.constants
    magnitude = (c.mass / (2.0 * math.pi * c.hbar * c.time_step)) ** 0.5
    return cmath.exp(-1j * math.pi / 4.0) * magnitude


def unitarity_defect(phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums (d, off) of the diagonal and the off-diagonal of |P P^dagger|: a dense kernel's one N^3 product.

    For U = w A P, row j of |U U^dagger - I| sums to |s d_j - 1| + s off_j, s = (w |A|)^2.
    """
    gram = np.abs(phases @ phases.conj().T)
    diagonal = gram.diagonal().copy()
    np.fill_diagonal(gram, 0.0)
    return diagonal, gram.sum(axis=1)


def _dense_phases(grid: SpatialGrid, model: ActionModel):
    """(P, its Gram row sums), P = exp(i S(x_j, x_k) / hbar): the one dense build, up to MAX_POINTS_1D."""
    if grid.n_points > MAX_POINTS_1D:
        raise ValueError(f"dense 1D kernels are limited to {MAX_POINTS_1D} points, got {grid.n_points}")
    x = grid.points
    # Overflow is not reported as a warning: the phases are checked to be finite.
    with np.errstate(over="ignore", invalid="ignore"):
        action = model.s(x[:, None], x[None, :])
        phases = _finite(np.exp(1j * np.asarray(action, dtype=float) / model.constants.hbar))
    return phases, unitarity_defect(phases)


def _finite(phases: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(phases)):
        raise NumericalError("kernel phase is not finite on the grid")
    return phases


def _kernel_factors(grid: SpatialGrid, model: ActionModel, amplitude: complex):
    """((left, right, spectrum, rows), q, q_raw) with U = diag(left) K diag(right), K_jk = kin(j - k).

    S(x_j, x_k) = kin(x_j - x_k) + half_j + half_k + phi_j - phi_k, where
    half = S(x, x) / 2 = -tau V(x) / 2 and the gauge term is exactly zero at
    coincident points. The kinetic phase is a d^2 with a = m dx^2 / (2 tau hbar).

    When q = N a / pi is an integer (tau = tau* / q), (j - k)^2 = j^2 - 2jk + k^2
    makes K = diag(c) F_q diag(c), a chirped DFT: c_j = exp(i pi q j^2 / N) and
    F_q[j, k] = exp(-2 pi i q j k / N), the DFT with its rows gathered by
    q j mod N. The chirp folds into left and right, so one size-N FFT applies
    K; ``spectrum`` is None and ``rows`` the gather, None when it is the
    identity (q = 1 mod N). The chirp phase is taken mod 2N in integers, so it
    carries no O(N eps) rounding at large j. Otherwise K is embedded in a 2N
    circulant with FFT ``spectrum``, for any N and time step, ``rows`` is None
    and q is returned as None. ``q_raw`` is N a / pi as computed, before the snap.
    """
    c = model.constants
    n = grid.n_points
    x = grid.points
    a = c.mass * grid.spacing ** 2 / (2.0 * c.time_step * c.hbar)
    q = n * a / math.pi
    # As in _dense_phases, overflow is left to the finiteness checks below.
    with np.errstate(over="ignore", invalid="ignore"):
        half = 0.5 * np.asarray(model.s(x, x), dtype=float)
        gauge = np.asarray(model.phase.phi(x), dtype=float) if isinstance(model, GaugedAction) else 0.0
        left = grid.spacing * amplitude * _finite(np.exp(1j * (half + gauge) / c.hbar))
        right = _finite(np.exp(1j * (half - gauge) / c.hbar))
        whole = round(q) if math.isfinite(q) else 0
        if whole >= 1 and abs(q - whole) <= MAGIC_TOLERANCE * q:
            j = np.arange(n)
            chirp = np.exp(1j * (math.pi / n) * ((whole % (2 * n)) * (j * j % (2 * n)) % (2 * n)))
            left = left * chirp
            right = chirp * right
            spectrum = None
            rows = None if whole % n == 1 else (whole % n) * j % n
            magic_q = whole
        else:
            d = np.arange(n) * grid.spacing
            kin = _finite(np.exp(1j * c.mass * d * d / (2.0 * c.time_step * c.hbar)))
            spectrum = np.fft.fft(np.concatenate([kin, [0.0], kin[:0:-1]]))
            rows = None
            magic_q = None
    return (left, right, spectrum, rows), magic_q, q


def _calibrate(offdiag: np.ndarray, weight: float, reference: complex):
    """(A, calibration): the analytic phase, and the |A| minimizing the defect over [0.5, 1.5] x the analytic value.

    Every phase is unimodular, so (U U^dagger)_jj = w^2 |A|^2 N exactly and
    the defect is |w^2 |A|^2 N - 1| + w^2 |A|^2 r, with r = max_j sum_{k != j}
    |(P P^dagger)_jk|, the largest ``offdiag`` row sum. That is piecewise
    linear in |A|^2: for r < N its minimum is at |A| = 1 / (w sqrt(N)),
    clamped into the bracket; for r >= N the defect does not fall as |A|
    grows, and the bracket's lower edge is taken.
    """
    n, r, center = len(offdiag), float(offdiag.max()), abs(reference)
    lo, hi = 0.5 * center, 1.5 * center
    magnitude = min(max(1.0 / (weight * math.sqrt(n)), lo), hi) if r < n else lo
    return (reference / center) * magnitude, {"offdiag_row_sum": r, "at_bracket_edge": magnitude in (lo, hi)}


def build_kernel(grid: SpatialGrid, model: ActionModel, amplitude_mode: str = "analytic") -> PropagatorKernel:
    """Assemble the one-step kernel; its matrix and unitarity deviation are built on first read.

    ``analytic`` mode uses the continuum stationary-phase amplitude and is
    restricted to the standard/gauged family (``is_standard_family``), where
    that value is exact at the magic time step. ``calibrated`` mode fixes the
    phase and takes the magnitude that minimizes the deviation inside a +-50%
    bracket around the analytic value, in closed form; it accepts any action
    kind, including the inadmissible probes (whose deviation stays large no
    matter the magnitude), and builds the dense phases and their Gram rows up front.

    Standard/gauged kernels store FFT factors and are applied by FFT in
    either mode; every other kernel is applied as its dense matrix. Analytic
    kernels have no size limit; calibration and the dense matrix are
    limited to MAX_POINTS_1D points. A 2D action raises ValueError, and a
    non-finite kernel phase NumericalError.
    """
    if model.dimension != 1:
        raise ValueError(f"kernels are built on a 1D lattice, got a {model.dimension}D action")
    reference = analytic_amplitude(model)
    dense = calibration = None
    if amplitude_mode == "analytic":
        if not is_standard_family(model):
            raise ValueError(f"analytic amplitude mode needs a standard or gauged action, got {type(model).__name__}")
        amplitude = reference
    elif amplitude_mode == "calibrated":
        dense = _dense_phases(grid, model)
        amplitude, calibration = _calibrate(dense[1][1], grid.spacing, reference)
    else:
        raise ValueError(f"unknown amplitude mode '{amplitude_mode}'")
    amplitude = complex(amplitude)
    factors, q, q_raw = _kernel_factors(grid, model, amplitude) if is_standard_family(model) else (None, None, None)
    return PropagatorKernel(grid, model, amplitude, factors, dense, calibration, q, q_raw)


def evolve(kernel: PropagatorKernel, amplitudes: np.ndarray) -> np.ndarray:
    """U psi as a new array: the name perfbench's tracer wraps; the runs step with ``kernel.apply``."""
    return kernel.apply(amplitudes)
