"""Discrete-time quantum mechanics on periodic lattices.

A one-step evolution kernel is built from the phase of an action S(x, y);
unitarity of that kernel restricts the admissible actions, and the same
restriction guarantees the discrete classical initial-value problem stays
solvable. The subpackages provide the lattice (grid), the action families
(action, potentials), the admissibility check (criterion), kernels and
their calibration (propagator), the discrete classical solver (classical),
correspondence experiments (correspondence), and a reproducible CLI (cli).
"""

from .action import (
    ActionModel,
    GaugedAction,
    PhysicalConstants,
    QuarticAction,
    SineAction,
    StandardAction,
    VectorPotentialAction2D,
    is_standard_family,
)
from .classical import (
    ClassicalTrajectory,
    EomResult,
    NumericalError,
    TrajectoryStatus,
    eom_step,
    integrate,
    invert_momentum,
)
from .correspondence import (
    BoundaryError,
    CorrespondenceReport,
    EhrenfestSeries,
    ehrenfest_run,
    hbar_sweep,
)
from .criterion import CriterionError, CriterionReport, check_criterion
from .grid import (
    SpatialGrid,
    make_gaussian,
    make_grid,
    packet_observables,
)
from .potentials import (
    GaugeField2D,
    GaugePhase,
    Potential,
    bilinear_field,
    cosine_well_potential,
    harmonic_potential,
    linear_phase,
    quadratic_phase,
    quartic_potential,
    sine_field,
    zero_field,
    zero_phase,
    zero_potential,
)
from .propagator import (
    PropagatorKernel,
    analytic_amplitude,
    build_kernel,
    evolve,
    magic_time_step,
    unitarity_defect,
)

__version__ = "0.1.0"
