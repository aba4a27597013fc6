"""One-step action models: the admissible families and two inadmissible probes.

An action model evaluates S(x, y) for a single time step, x being the newer
position and y the older one, together with its first derivatives and the
mixed second derivative. All derivatives are analytic; finite differences
appear only as test oracles.
"""

from dataclasses import dataclass

import numpy as np

from .potentials import GaugeField2D, GaugePhase, Potential

__all__ = [
    "PhysicalConstants",
    "ActionModel",
    "StandardAction",
    "GaugedAction",
    "QuarticAction",
    "SineAction",
    "VectorPotentialAction2D",
    "is_standard_family",
]


# Not slots=True: Python 3.11 then raises TypeError when a name that is not a field is set.
@dataclass(frozen=True)
class PhysicalConstants:
    """Mass, time step, and hbar; all strictly positive, stored as floats."""

    mass: float
    time_step: float
    hbar: float

    def __post_init__(self):
        for name in ("mass", "time_step", "hbar"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, float(value))


class ActionModel:
    """Base class; evaluators broadcast over numpy arrays.

    One-dimensional models take floats, ``np.float64`` or arrays of positions
    and use them as they are; a caller that needs an overflow to read as inf
    passes ``np.float64``, not a Python float. The 2D model
    takes arrays whose last axis has length 2; ``d2s_dxdy`` then returns the
    2x2 mixed block in the trailing two axes.
    """

    kind = "abstract"
    dimension = 1

    def __init__(self, constants: PhysicalConstants):
        self.constants = constants

    def s(self, x, y):
        raise NotImplementedError

    def ds_dx(self, x, y):
        raise NotImplementedError

    def ds_dy(self, x, y):
        raise NotImplementedError

    def d2s_dxdy(self, x, y):
        raise NotImplementedError


class _KineticAction(ActionModel):
    """The standard body, extended by the family, the quartic probe and the 2D action.

    Powers are written as products: a power of an ``np.float64`` goes through
    the C library's ``pow`` and can round unlike the same power of an array.
    """

    def __init__(self, constants: PhysicalConstants, potential: Potential):
        super().__init__(constants)
        self.potential = potential

    def s(self, x, y):
        c = self.constants
        d = x - y
        kinetic = 0.5 * c.mass / c.time_step * (d * d)
        return kinetic - 0.5 * c.time_step * (self.potential.v(x) + self.potential.v(y))

    def ds_dx(self, x, y):
        c = self.constants
        return c.mass / c.time_step * (x - y) - 0.5 * c.time_step * self.potential.dv(x)

    def ds_dy(self, x, y):
        c = self.constants
        return -c.mass / c.time_step * (x - y) - 0.5 * c.time_step * self.potential.dv(y)

    def d2s_dxdy(self, x, y):
        c = self.constants
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        return np.full(shape, -c.mass / c.time_step)


class StandardAction(_KineticAction):
    """Kinetic difference term with a symmetrically split potential.

    The mixed second derivative is the constant -m / tau, which is exactly
    the property the unitarity criterion singles out.
    """

    kind = "standard"


class GaugedAction(StandardAction):
    """Standard action plus the dynamically inert difference phi(x) - phi(y)."""

    kind = "gauged"

    def __init__(self, constants: PhysicalConstants, potential: Potential, phase: GaugePhase):
        super().__init__(constants, potential)
        self.phase = phase

    def s(self, x, y):
        # Grouped so the gauge term is exactly zero at coincident points.
        gauge = self.phase.phi(x) - self.phase.phi(y)
        return super().s(x, y) + gauge

    def ds_dx(self, x, y):
        return super().ds_dx(x, y) + self.phase.dphi(x)

    def ds_dy(self, x, y):
        return super().ds_dy(x, y) - self.phase.dphi(y)


def is_standard_family(model: ActionModel) -> bool:
    """True for exactly StandardAction and GaugedAction, not their subclasses: the one family test.

    Every fast path relies on the family's structure: a phase that factors
    into diagonal and Toeplitz parts, and the constant d2S/dxdy = -m / tau
    that makes the equation of motion linear. A subclass may override an
    evaluator and break both, so the analytic kernel and the hbar sweep
    refuse it, and every other path treats it as a general action.
    """
    return type(model) in (StandardAction, GaugedAction)


class QuarticAction(_KineticAction):
    """Standard action plus eps * (x - y)^4; deliberately inadmissible.

    The mixed second derivative picks up -12 eps (x - y)^2, so it is no
    longer constant and the one-step kernel built from it cannot be unitary.
    """

    kind = "quartic"

    def __init__(self, constants: PhysicalConstants, potential: Potential, epsilon: float):
        super().__init__(constants, potential)
        self.epsilon = float(epsilon)

    def s(self, x, y):
        d = x - y
        return super().s(x, y) + self.epsilon * ((d * d) * (d * d))

    def ds_dx(self, x, y):
        d = x - y
        return super().ds_dx(x, y) + 4.0 * self.epsilon * (d * d * d)

    def ds_dy(self, x, y):
        d = x - y
        return super().ds_dy(x, y) - 4.0 * self.epsilon * (d * d * d)

    # Not through super(): the base's np.full would cost every scalar Newton step.
    def d2s_dxdy(self, x, y):
        c = self.constants
        d = x - y
        return -c.mass / c.time_step - 12.0 * self.epsilon * d * d


class SineAction(ActionModel):
    """S = -c sin(x) sin(y); bounded gradients, |dS/dy| <= c.

    Inadmissible probe: the bounded gradient is what lets the discrete
    equation of motion run out of reachable next positions.
    """

    kind = "sine"

    def __init__(self, constants: PhysicalConstants, strength: float):
        if not strength > 0:
            raise ValueError(f"strength must be positive, got {strength}")
        super().__init__(constants)
        self.strength = float(strength)

    def s(self, x, y):
        return -self.strength * np.sin(x) * np.sin(y)

    def ds_dx(self, x, y):
        return -self.strength * np.cos(x) * np.sin(y)

    def ds_dy(self, x, y):
        return -self.strength * np.sin(x) * np.cos(y)

    def d2s_dxdy(self, x, y):
        return -self.strength * np.cos(x) * np.cos(y)


class VectorPotentialAction2D(_KineticAction):
    """2D standard action plus an antisymmetrized stream-function perturbation.

    The perturbation is
        s = ((a1(x1, y2) - a1(y1, x2)) + (a2(y1, x2) - a2(x1, y2))) / 2,
    built so that each term misses one of the paired variables: both diagonal
    mixed derivatives d2s/dx_a dy_a vanish identically, which is the
    linearized admissibility condition. In the small-step limit the extra
    term turns into a magnetic coupling q v . A with q A_a the derivative of
    a_a with respect to its own slot.

    Positions are arrays with trailing axis of length 2; built-in potentials
    act separably, V(x1) + V(x2). Only the criterion reads this action: the
    classical solver and the kernels are one-dimensional.
    """

    kind = "vector_potential_2d"
    dimension = 2

    def __init__(
        self,
        constants: PhysicalConstants,
        potential: Potential,
        a1: GaugeField2D,
        a2: GaugeField2D,
    ):
        super().__init__(constants, potential)
        self.a1 = a1
        self.a2 = a2

    @staticmethod
    def _split(x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != 2:
            raise ValueError(f"2D positions need a trailing axis of length 2, got shape {x.shape}")
        return x[..., 0], x[..., 1]

    def perturbation(self, x, y):
        x1, x2 = self._split(x)
        y1, y2 = self._split(y)
        return 0.5 * (
            self.a1.f(x1, y2) - self.a1.f(y1, x2) + self.a2.f(y1, x2) - self.a2.f(x1, y2)
        )

    def s(self, x, y):
        x1, x2 = self._split(x)
        y1, y2 = self._split(y)
        return super().s(x1, y1) + super().s(x2, y2) + self.perturbation(x, y)

    def ds_dx(self, x, y):
        x1, x2 = self._split(x)
        y1, y2 = self._split(y)
        g1 = super().ds_dx(x1, y1) + 0.5 * (self.a1.d_da(x1, y2) - self.a2.d_da(x1, y2))
        g2 = super().ds_dx(x2, y2) + 0.5 * (-self.a1.d_db(y1, x2) + self.a2.d_db(y1, x2))
        return np.stack(np.broadcast_arrays(g1, g2), axis=-1)

    def ds_dy(self, x, y):
        x1, x2 = self._split(x)
        y1, y2 = self._split(y)
        h1 = super().ds_dy(x1, y1) + 0.5 * (-self.a1.d_da(y1, x2) + self.a2.d_da(y1, x2))
        h2 = super().ds_dy(x2, y2) + 0.5 * (self.a1.d_db(x1, y2) - self.a2.d_db(x1, y2))
        return np.stack(np.broadcast_arrays(h1, h2), axis=-1)

    def d2s_dxdy(self, x, y):
        x1, x2 = self._split(x)
        y1, y2 = self._split(y)
        m12 = 0.5 * (self.a1.d2_dadb(x1, y2) - self.a2.d2_dadb(x1, y2))
        m21 = 0.5 * (-self.a1.d2_dadb(y1, x2) + self.a2.d2_dadb(y1, x2))
        m11, m12, m21, m22 = np.broadcast_arrays(super().d2s_dxdy(x1, y1), m12, m21, super().d2s_dxdy(x2, y2))
        return np.stack(
            [np.stack([m11, m12], axis=-1), np.stack([m21, m22], axis=-1)],
            axis=-2,
        )
