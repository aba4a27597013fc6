"""One-step evolution kernels built from an action's phase, on a 1D lattice.

The kernel matrix is U_jk = w A exp(i S(x_j, x_k) / hbar) with w the cell
weight (the spacing), so every entry has the same magnitude w |A| and all
structure lives in the phase. Kernels are built for 1D actions only; the 2D
vector-potential action enters through the criterion alone. For the
standard/gauged family the phase splits into diagonal potential/gauge
terms and a kinetic term that depends on j - k only, so U = diag(left) K diag(right) with K a Toeplitz chirp; those kernels
are applied by FFT, on any number of points: one size-N FFT at tau* / q,
where K is a chirped DFT, and a size-2N pair otherwise. Every other kernel
(the probes) is applied as a dense matrix, whose phases are built with the
kernel, up to MAX_POINTS_1D points.
Unitarity is quantified by the max-row-sum norm of U U^dagger - I, which
bounds the worst-case action on normalized states. With U = w A P and P
unimodular, U U^dagger = (w |A|)^2 P P^dagger: the defect and the
calibration read the row sums of |P P^dagger|. For the family those rows
are Gauss sums, |sin(N a d) / sin(a d)| at offset d = j - k, whatever V and
phi (Hannay & Berry, Physica D 1 (1980) 267), so their defect and
calibration take O(N) and no dense matrix (see _offdiag_row_sum). A dense
kernel reads them from one N^3 Gram product of its phases.

At tau* / q with gcd(q, N) = 1 the chirped DFT is sqrt(N) times a unitary,
so U is w |A| sqrt(N) times a unitary and every eigenvalue has that
magnitude (the Gauss sum); ``gauss_sum_magnitude`` gives it without an
eigensolve.
"""

import cmath
import math
from functools import cached_property

import numpy as np

from .action import ActionModel, GaugedAction, is_standard_family
from .classical import NumericalError
from .grid import SpatialGrid

__all__ = ["PropagatorKernel", "magic_time_step", "analytic_amplitude", "unitarity_defect", "build_kernel", "evolve"]

# Size limit of the dense N x N work: the kernel matrix and a dense kernel's Gram product.
MAX_POINTS_1D = 1024
# Relative distance of N a / pi from an integer q below which the kinetic
# factor is taken as the exact chirped DFT of tau = tau* / q: rounding level,
# so a snapped kernel is the kernel from S at the configured step to roundoff.
MAGIC_TOLERANCE = 8 * np.finfo(float).eps


class PropagatorKernel:
    """One-step evolution kernel with its amplitude; its matrix is scaled on first read.

    ``factors`` is (left, right, spectrum, rows) for kernels of the form
    diag(left) K diag(right) (see _kernel_factors); ``apply`` is then one
    size-N FFT at tau* / q and one size-2N FFT pair otherwise, O(N log N)
    either way. Without factors ``apply`` is the dense matvec. ``q`` is the
    integer with tau = tau* / q when ``apply`` is the chirped DFT, else None;
    ``q_raw`` is N a / pi before that snap (see _snap).
    ``calibration`` is None for analytic kernels and {"offdiag_row_sum": r,
    "at_bracket_edge": bool} for calibrated ones (see _calibrate). A kernel
    with factors takes its defect from the closed-form Gram rows and builds
    only its phases, for ``matrix``. A dense kernel is always calibrated and
    keeps the ``dense`` (phases, Gram rows) its calibration built (see
    _dense_phases).
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

    @cached_property
    def matrix(self) -> np.ndarray:
        """w A exp(i S / hbar), the only place the phases are scaled; the phases are then dropped.

        A dense kernel's phases come with its Gram rows; a kernel with factors
        builds its phases alone.
        """
        if self._factors is None:
            phases, self._phases = self._phases, None
        else:
            phases = _dense_phases(self.grid, self.model)
        # Overflow of the weight times the amplitude is not reported as a warning:
        # eigvals and the packet checks refuse a non-finite matrix. ``phases`` is
        # named: numpy would scale a temporary in place, which rounds differently.
        with np.errstate(over="ignore", invalid="ignore"):
            matrix = self.grid.spacing * self.amplitude * phases
        matrix.flags.writeable = False
        return matrix

    @cached_property
    def offdiag_row_sum(self) -> float:
        """r = max_j sum_{k != j} |(P P^dagger)_jk|: the calibration's, else (analytic family) in closed form."""
        if self.calibration is not None:
            return self.calibration["offdiag_row_sum"]
        return _offdiag_row_sum(self.grid.n_points, self.q, self.q_raw)

    @cached_property
    def unitarity_deviation(self) -> float:
        """max_j |s d_j - 1| + s off_j, s = (w |A|)^2, over the Gram row sums (see unitarity_defect).

        Every d_j is exactly N for a kernel with factors, so its defect is |s N - 1| + s r.
        """
        weight = self.grid.spacing * abs(self.amplitude)
        s = weight * weight
        if self._factors is not None:
            return abs(s * self.grid.n_points - 1.0) + s * self.offdiag_row_sum
        diagonal, offdiag = self._gram_rows
        # Overflow is not reported as a warning: a report refuses a non-finite defect.
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.max(np.abs(s * diagonal - 1.0) + s * offdiag))

    @property
    def defect_source(self) -> str:
        """``closed_form`` (the Gauss-sum Gram rows of a kernel with factors) or ``gram`` (the N^3 product)."""
        return "gram" if self._factors is None else "closed_form"

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


def _dense_phases(grid: SpatialGrid, model: ActionModel) -> np.ndarray:
    """P = exp(i S(x_j, x_k) / hbar): the one dense build, up to MAX_POINTS_1D."""
    if grid.n_points > MAX_POINTS_1D:
        raise ValueError(f"dense 1D kernels are limited to {MAX_POINTS_1D} points, got {grid.n_points}")
    x = grid.points
    # Overflow is not reported as a warning: the phases are checked to be finite.
    with np.errstate(over="ignore", invalid="ignore"):
        action = model.s(x[:, None], x[None, :])
        return _finite(np.exp(1j * np.asarray(action, dtype=float) / model.constants.hbar))


def _finite(phases: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(phases)):
        raise NumericalError("kernel phase is not finite on the grid")
    return phases


def _snap(grid: SpatialGrid, model: ActionModel) -> tuple[int | None, float]:
    """(q, q_raw): q_raw = N a / pi with a = m dx^2 / (2 tau hbar), and q = round(q_raw)
    when that is an integer to rounding (tau = tau* / q), else None.
    """
    c = model.constants
    a = c.mass * grid.spacing ** 2 / (2.0 * c.time_step * c.hbar)
    q_raw = grid.n_points * a / math.pi
    whole = round(q_raw) if math.isfinite(q_raw) else 0
    return (whole if whole >= 1 and abs(q_raw - whole) <= MAGIC_TOLERANCE * q_raw else None), q_raw


def _offdiag_row_sum(n: int, q: int | None, q_raw: float) -> float:
    """r = max_j sum_{k != j} |(P P^dagger)_jk| of a family kernel, in O(N) for any V and phi.

    The chirp's cross term leaves |(P P^dagger)_jk| = f(d) = |sin(N a d) / sin(a d)|,
    d = j - k and a = pi q_raw / N; row j sums to F(j) + F(N - 1 - j), F the
    prefix sum of f. The float ratio is 0/0 wherever a d is a multiple of pi,
    so the phase is reduced in integers first: q_raw d = (q d + k) + delta,
    with q = round(q_raw), the integer k = round(e d) of e = q_raw - q and
    |delta| <= 1/2. Then f(d) = |sin(pi delta) / sin(pi (m + delta) / N)|,
    m = q d + k mod N taken in (-N/2, N/2], and f(d) = N where that
    denominator is exactly 0. At a snapped step (q given) e is 0 exactly, so
    r is that of the kernel ``apply`` applies.
    """
    if not math.isfinite(q_raw):
        raise NumericalError("kernel phase is not finite on the grid")
    whole = round(q_raw)
    d = np.arange(1, n)
    shift = (0.0 if q is not None else q_raw - whole) * d
    k = np.round(shift)
    delta = shift - k
    m = ((whole % n) * d + k.astype(np.int64)) % n
    m = np.where(2 * m > n, m - n, m)
    denominator = np.abs(np.sin(math.pi * (m + delta) / n))
    numerator = np.abs(np.sin(math.pi * delta))
    f = np.divide(numerator, denominator, out=np.full(n - 1, float(n)), where=denominator != 0.0)
    prefix = np.concatenate(([0.0], np.cumsum(f)))
    return float(np.max(prefix + prefix[::-1]))


def _kernel_factors(grid: SpatialGrid, model: ActionModel, amplitude: complex, q: int | None):
    """(left, right, spectrum, rows) with U = diag(left) K diag(right), K_jk = kin(j - k).

    S(x_j, x_k) = kin(x_j - x_k) + half_j + half_k + phi_j - phi_k, where
    half = S(x, x) / 2 = -tau V(x) / 2 and the gauge term is exactly zero at
    coincident points. The kinetic phase is a d^2 with a = m dx^2 / (2 tau hbar).

    At a snapped tau = tau* / q (see _snap), (j - k)^2 = j^2 - 2jk + k^2
    makes K = diag(c) F_q diag(c), a chirped DFT: c_j = exp(i pi q j^2 / N) and
    F_q[j, k] = exp(-2 pi i q j k / N), the DFT with its rows gathered by
    q j mod N. The chirp folds into left and right, so one size-N FFT applies
    K; ``spectrum`` is None and ``rows`` the gather, None when it is the
    identity (q = 1 mod N). The chirp phase is taken mod 2N in integers, so it
    carries no O(N eps) rounding at large j. Otherwise (q is None) K is
    embedded in a 2N circulant with FFT ``spectrum``, for any N and time step,
    and ``rows`` is None.
    """
    c = model.constants
    n = grid.n_points
    x = grid.points
    # As in _dense_phases, overflow is left to the finiteness checks below.
    with np.errstate(over="ignore", invalid="ignore"):
        half = 0.5 * np.asarray(model.s(x, x), dtype=float)
        gauge = np.asarray(model.phase.phi(x), dtype=float) if isinstance(model, GaugedAction) else 0.0
        left = grid.spacing * amplitude * _finite(np.exp(1j * (half + gauge) / c.hbar))
        right = _finite(np.exp(1j * (half - gauge) / c.hbar))
        if q is not None:
            j = np.arange(n)
            chirp = np.exp(1j * (math.pi / n) * ((q % (2 * n)) * (j * j % (2 * n)) % (2 * n)))
            left = left * chirp
            right = chirp * right
            spectrum = None
            rows = None if q % n == 1 else (q % n) * j % n
        else:
            d = np.arange(n) * grid.spacing
            kin = _finite(np.exp(1j * c.mass * d * d / (2.0 * c.time_step * c.hbar)))
            spectrum = np.fft.fft(np.concatenate([kin, [0.0], kin[:0:-1]]))
            rows = None
    return left, right, spectrum, rows


def _calibrate(r: float, n: int, weight: float, reference: complex):
    """(A, calibration): the analytic phase, and the |A| minimizing the defect over [0.5, 1.5] x the analytic value.

    Every phase is unimodular, so (U U^dagger)_jj = w^2 |A|^2 N exactly and
    the defect is |w^2 |A|^2 N - 1| + w^2 |A|^2 r, with r = max_j sum_{k != j}
    |(P P^dagger)_jk|, the largest off-diagonal Gram row sum. That is piecewise
    linear in |A|^2: for r < N its minimum is at |A| = 1 / (w sqrt(N)),
    clamped into the bracket; for r >= N the defect does not fall as |A|
    grows, and the bracket's lower edge is taken.
    """
    center = abs(reference)
    lo, hi = 0.5 * center, 1.5 * center
    magnitude = min(max(1.0 / (weight * math.sqrt(n)), lo), hi) if r < n else lo
    return (reference / center) * magnitude, {"offdiag_row_sum": r, "at_bracket_edge": magnitude in (lo, hi)}


def build_kernel(grid: SpatialGrid, model: ActionModel, amplitude_mode: str = "analytic") -> PropagatorKernel:
    """Assemble the one-step kernel; a family kernel's dense matrix is built only where read.

    ``analytic`` mode uses the continuum stationary-phase amplitude and is
    restricted to the standard/gauged family (``is_standard_family``), where
    that value is exact at the magic time step. ``calibrated`` mode fixes the
    phase and takes the magnitude that minimizes the deviation inside a +-50%
    bracket around the analytic value, in closed form; it accepts any action
    kind, including the inadmissible probes (whose deviation stays large no
    matter the magnitude). It reads the off-diagonal Gram row sum r: in O(N)
    from the Gauss sums for the family (see _offdiag_row_sum), and from the
    dense phases' Gram product, built up front, for every other kernel.

    Standard/gauged kernels store FFT factors and are applied by FFT in
    either mode, and their unitarity deviation needs no dense matrix, so they
    have no size limit. The dense matrix, and every other kernel, are
    limited to MAX_POINTS_1D points. A 2D action raises ValueError, and a
    non-finite kernel phase NumericalError.
    """
    if model.dimension != 1:
        raise ValueError(f"kernels are built on a 1D lattice, got a {model.dimension}D action")
    reference = analytic_amplitude(model)
    family = is_standard_family(model)
    q, q_raw = _snap(grid, model) if family else (None, None)
    dense = calibration = None
    if amplitude_mode == "analytic":
        if not family:
            raise ValueError(f"analytic amplitude mode needs a standard or gauged action, got {type(model).__name__}")
        amplitude = reference
    elif amplitude_mode == "calibrated":
        if family:
            r = _offdiag_row_sum(grid.n_points, q, q_raw)
        else:
            phases = _dense_phases(grid, model)
            dense = phases, unitarity_defect(phases)
            r = float(dense[1][1].max())
        amplitude, calibration = _calibrate(r, grid.n_points, grid.spacing, reference)
    else:
        raise ValueError(f"unknown amplitude mode '{amplitude_mode}'")
    amplitude = complex(amplitude)
    factors = _kernel_factors(grid, model, amplitude, q) if family else None
    return PropagatorKernel(grid, model, amplitude, factors, dense, calibration, q, q_raw)


def evolve(kernel: PropagatorKernel, amplitudes: np.ndarray) -> np.ndarray:
    """U psi as a new array: the name perfbench's tracer wraps; the runs step with ``kernel.apply``."""
    return kernel.apply(amplitudes)
