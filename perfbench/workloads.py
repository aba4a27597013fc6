"""Seeded experiment generators for the benchmark workloads.

Every workload is a fixed *pattern* of experiment kinds repeated in cycles.
The seed draws the physical parameters of each experiment, never the mix,
so the cost of a cycle is the same for every seed while the inputs differ.
An experiment is one or more ``dtqm`` CLI calls; each call carries the
config the program receives and the expectation the benchmark checks its
outputs against (see ``checks.py``).

Everything here is numpy and the standard library only: parameters that
must be boundary-safe are screened with the benchmark's own leapfrog
recursion, not with ``dtqm``.
"""

import math
import zlib
from dataclasses import dataclass

import numpy as np

MASS = 1.0

# The 5-sigma envelope plus the classical excursion must stay this far
# inside the box (as a share of the half-width), so that the program's own
# boundary check never fires on generated inputs.
BOUNDARY_SIGMAS = 5.0
BOUNDARY_MARGIN = 0.9

SWEEP_HBARS = [1.0, 0.7, 0.5, 0.35, 0.25]
SWEEP_TAU = 0.1
# Thread fan-out the sweeps run with (``DTQM_THREADS``).
SWEEP_THREADS = 2

# Full size is what the benchmark measures; tiny is what its tests run.
SIZES = {
    "evolve_1024": {
        "full": {"n_points": 1024, "spacing": 0.03125, "n_steps": 250, "sweep_points": 256, "sweep_steps": 30},
        "tiny": {"n_points": 256, "spacing": 0.0625, "n_steps": 12, "sweep_points": 256, "sweep_steps": 4},
    },
    "pipeline_1024": {
        "full": {
            "n_points": 1024, "spacing": 0.03125, "n_steps": 250,
            "classical_steps": 200, "build_points": 128, "build_spacing": 0.125,
        },
        "tiny": {
            "n_points": 256, "spacing": 0.0625, "n_steps": 12,
            "classical_steps": 40, "build_points": 48, "build_spacing": 0.25,
        },
    },
}


@dataclass
class Call:
    """One ``dtqm <command> --config <file>`` invocation and what it must produce."""

    command: str
    config: dict
    expect: dict
    path: str | None = None


@dataclass
class Experiment:
    kind: str
    calls: list[Call]


# --- potentials and phases, as config blocks and as the benchmark's own V'(x)


def _potential(rng, name: str) -> dict:
    if name == "harmonic":
        return {"name": "harmonic", "omega": float(rng.uniform(0.5, 1.2))}
    if name == "quartic":
        return {"name": "quartic", "strength": float(rng.uniform(0.01, 0.03))}
    if name == "cosine_well":
        return {"name": "cosine_well", "depth": float(rng.uniform(4.0, 8.0)), "wavenumber": float(rng.uniform(0.3, 0.4))}
    raise ValueError(name)


def _phase(rng, name: str) -> dict:
    if name == "linear":
        return {"name": "linear", "slope": float(rng.uniform(-0.5, 0.5))}
    if name == "quadratic":
        return {"name": "quadratic", "curvature": float(rng.uniform(-0.1, 0.1))}
    raise ValueError(name)


def force_gradient(potential: dict, mass: float = MASS):
    """dV/dx of a built-in potential block, written out independently of dtqm."""
    name = potential["name"]
    if name == "zero":
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    if name == "harmonic":
        k = mass * potential["omega"] ** 2
        return lambda x: k * np.asarray(x, dtype=float)
    if name == "quartic":
        s = potential["strength"]
        return lambda x: 4.0 * s * np.asarray(x, dtype=float) ** 3
    if name == "cosine_well":
        d, k = potential["depth"], potential["wavenumber"]
        return lambda x: d * k * np.sin(k * np.asarray(x, dtype=float))
    raise ValueError(name)


def potential_value(potential: dict, mass: float = MASS):
    """V(x) of a built-in potential block, up to a constant."""
    name = potential["name"]
    if name == "zero":
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    if name == "harmonic":
        return lambda x: 0.5 * mass * potential["omega"] ** 2 * np.asarray(x, dtype=float) ** 2
    if name == "quartic":
        return lambda x: potential["strength"] * np.asarray(x, dtype=float) ** 4
    if name == "cosine_well":
        d, k = potential["depth"], potential["wavenumber"]
        return lambda x: -d * np.cos(k * np.asarray(x, dtype=float))
    raise ValueError(name)


def phase_value(phase: dict | None):
    """phi(x) of a built-in gauge phase block (zero without a phase)."""
    if phase is None or phase["name"] == "zero":
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    if phase["name"] == "linear":
        return lambda x: phase["slope"] * np.asarray(x, dtype=float)
    if phase["name"] == "quadratic":
        return lambda x: phase["curvature"] * np.asarray(x, dtype=float) ** 2
    raise ValueError(phase["name"])


def phase_gradient(phase: dict | None):
    """dphi/dx of a built-in gauge phase block (zero without a phase)."""
    if phase is None or phase["name"] == "zero":
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    if phase["name"] == "linear":
        slope = phase["slope"]
        return lambda x: np.full_like(np.asarray(x, dtype=float), slope)
    if phase["name"] == "quadratic":
        c = phase["curvature"]
        return lambda x: 2.0 * c * np.asarray(x, dtype=float)
    raise ValueError(phase["name"])


def _action(rng, gauged: bool, potential: str, phase: str) -> dict:
    block = {"kind": "gauged" if gauged else "standard", "potential": _potential(rng, potential)}
    if gauged:
        block["phase"] = _phase(rng, phase)
    return block


def leapfrog(dv, tau: float, x0: float, x_minus1: float, n_steps: int, mass: float = MASS) -> np.ndarray:
    """x' = 2x - x_prev - (tau^2/m) V'(x); the benchmark's own recursion."""
    xs = np.empty(n_steps + 1)
    xs[0] = x0
    prev = x_minus1
    for n in range(n_steps):
        xs[n + 1] = 2.0 * xs[n] - prev - (tau * tau / mass) * float(dv(xs[n]))
        prev = xs[n]
    return xs


def seed_from_momentum(action: dict, tau: float, x0: float, p0: float, mass: float = MASS) -> float:
    """x_{-1} with dS(x0, x_{-1})/dx0 = p0 for the admissible family (linear in x_{-1})."""
    dv = force_gradient(action["potential"], mass)
    dphi = phase_gradient(action.get("phase"))
    return x0 - tau / mass * (p0 + 0.5 * tau * float(dv(x0)) - float(dphi(x0)))


def _boundary_safe(rng, action, tau, n_steps, half_width, sigma, x_range, p_range, center=None):
    """Draw (x0, p0) until the classical track plus the packet envelope fits the box.

    The box is centred on ``center``, or on the middle of the track when
    ``center`` is None (the sweep centres each grid that way).
    """
    dv = force_gradient(action["potential"])
    for _ in range(1000):
        x0 = float(rng.uniform(*x_range))
        p0 = float(rng.uniform(*p_range))
        xs = leapfrog(dv, tau, x0, seed_from_momentum(action, tau, x0, p0), n_steps)
        mid = 0.5 * (xs.min() + xs.max()) if center is None else center
        if float(np.max(np.abs(xs - mid))) + BOUNDARY_SIGMAS * sigma < BOUNDARY_MARGIN * half_width:
            return x0, p0
    raise RuntimeError("no boundary-safe packet found; the parameter ranges are wrong")


def magic_tau(n_points: int, spacing: float, hbar: float, mass: float = MASS) -> float:
    return mass * spacing * spacing * n_points / (2.0 * math.pi * hbar)


# --- evolve_1024 ---------------------------------------------------------------

# The program's own tracking tolerance. Ehrenfest tracking is exact for the
# harmonic well (up to the O(dx^2) momentum stencil) but not for anharmonic
# wells, where the packet dephases and its mean may end anywhere in the well;
# there the tolerance only bounds the run to the well's scale. The dynamics
# themselves are checked step by step against the benchmark's own evolution
# (``checks.lattice_evolution``), for every well.
HARMONIC_TRACKING = 1e-2
ANHARMONIC_TRACKING = 8.0
NORM_TOLERANCE = 1e-10


def _evolve_experiment(rng, size, pattern):
    kind, potential, phase = pattern
    n, dx, steps = size["n_points"], size["spacing"], size["n_steps"]
    x_min = -0.5 * n * dx
    action = _action(rng, kind == "gauged", potential, phase)
    tau = magic_tau(n, dx, 1.0)
    sigma = math.sqrt(0.5)
    x0, p0 = _boundary_safe(rng, action, tau, steps, -x_min, sigma, (-2.0, 2.0), (-1.2, 1.2), center=0.0)
    tracking = HARMONIC_TRACKING if potential == "harmonic" else ANHARMONIC_TRACKING
    config = {
        "grid": {"n_points": n, "x_min": x_min, "spacing": dx},
        "constants": {"mass": MASS, "hbar": 1.0, "tau": "magic"},
        "action": action,
        "run": {
            "x0": x0,
            "p0": p0,
            "n_steps": steps,
            "tracking_tolerance": tracking,
            "norm_tolerance": NORM_TOLERANCE,
        },
    }
    expect = {"exit": 0, "tau": tau, "n_steps": steps, "x0": x0, "p0": p0}
    return Experiment(f"evolve-{kind}-{potential}", [Call("evolve", config, expect)])


# --- pipeline_1024: check-action, classical, build and evolve for one action ---------

MAGIC_DEVIATION = 1e-10
PROBE_MIN_DEVIATION = 0.1


def _check_action_call(action: dict, tau: float, domain: list, admissible: bool) -> Call:
    config = {
        "constants": {"mass": MASS, "hbar": 1.0, "tau": tau},
        "action": action,
        "run": {"domain": domain, "expect": "admissible" if admissible else "inadmissible"},
    }
    return Call("check-action", config, {"exit": 0, "admissible": admissible, "tau": tau})


def _classical_call(action: dict, tau: float, run: dict, status: str, rows: int) -> Call:
    config = {"constants": {"mass": MASS, "hbar": 1.0, "tau": tau}, "action": action, "run": run}
    return Call("classical", config, {"exit": 0, "status": status, "rows": rows, "tau": tau})


def _build_call(size: dict, action: dict, mode: str, tau_share: float = 1.0) -> Call:
    """``dtqm build`` on the small lattice: at the magic step, or a share of it."""
    n, dx = size["build_points"], size["build_spacing"]
    tau_magic = magic_tau(n, dx, 1.0)
    run = {"max_unitarity_deviation": MAGIC_DEVIATION} if mode == "analytic" else {"amplitude_mode": "calibrated"}
    config = {
        "grid": {"n_points": n, "x_min": -0.5 * n * dx, "spacing": dx},
        "constants": {"mass": MASS, "hbar": 1.0, "tau": "magic" if tau_share == 1.0 else tau_magic * tau_share},
        "action": action,
        "run": run,
    }
    return Call("build", config, {"exit": 0, "mode": mode, "magic_tau": tau_magic, "n_points": n})


def _pipeline_experiment(rng, size, pattern):
    """One admissible action taken through every command, as a user would.

    The criterion check and the classical run use the evolve lattice's magic
    step and the packet's (x0, p0), so the classical track is the one the
    evolution follows, run longer. The build is on a small lattice, at its
    magic step (analytic) or below it (calibrated).
    """
    kind, potential, phase, seed_by, build_mode = pattern
    evolve = _evolve_experiment(rng, size, (kind, potential, phase))
    call = evolve.calls[0]
    action, tau = call.config["action"], call.expect["tau"]
    x0, p0 = call.expect["x0"], call.expect["p0"]
    steps = size["classical_steps"]
    run = {"x0": x0, "n_steps": steps}
    if seed_by == "p0":
        run["p0"] = p0
    else:
        run["x_minus1"] = seed_from_momentum(action, tau, x0, p0)
    share = 1.0 if build_mode == "analytic" else float(rng.uniform(0.9, 0.97))
    calls = [
        _check_action_call(action, tau, [-2.0, 2.0], True),
        _classical_call(action, tau, run, "complete", steps + 1),
        _build_call(size, action, build_mode, share),
        call,
    ]
    return Experiment(f"pipeline-{kind}-{potential}", calls)


def _probe_experiment(rng, size, kind):
    """An inadmissible action: the criterion flags it, and the build is not unitary."""
    steps = size["classical_steps"]
    if kind == "sine_probe":
        # The stranded particle: sin(x_next) = -sin(x_prev) has no root within
        # the solver's search radius (at most 10 * 0.06 + 1 around x0 < pi/2).
        tau = 0.01
        x_minus1 = float(rng.uniform(1.35, 1.45))
        x0 = x_minus1 + float(rng.uniform(0.03, 0.06))
        action = {"kind": "sine", "strength": float(rng.uniform(0.5, 2.0))}
        run = {"x0": x0, "x_minus1": x_minus1, "n_steps": steps, "expect_status": "no_solution"}
        classical = _classical_call(action, tau, run, "no_solution_at(1)", 1)
        domain = [-1.0, 1.0]
    else:
        tau = float(rng.uniform(0.04, 0.06))
        action = {"kind": "quartic", "potential": {"name": "zero"}, "epsilon": float(rng.uniform(0.05, 0.2))}
        x0 = float(rng.uniform(-1.5, 1.5))
        run = {"x0": x0, "x_minus1": x0 - tau * float(rng.uniform(-1.0, 1.0)), "n_steps": steps}
        # dS/dx_next of the step equation is -m/tau - 12 eps d^2 < 0 for eps > 0,
        # so there is exactly one root each step: the run must complete.
        classical = _classical_call(action, tau, run, "complete", steps + 1)
        domain = [-0.5, 0.5]
    calls = [_check_action_call(action, tau, domain, False), classical, _build_call(size, action, kind)]
    return Experiment(f"probe-{kind}", calls)


# --- hbar sweeps (one per evolve_1024 cycle) ----------------------------------------


def _sweep_experiment(rng, size, _kind=None):
    n, steps = size["sweep_points"], size["sweep_steps"]
    # A well shallow enough for a 30-step sweep to stay monotone in hbar.
    action = {"kind": "standard", "potential": {"name": "quartic", "strength": float(rng.uniform(0.08, 0.12))}}
    # The smallest hbar gives the smallest box; screen against it.
    h = SWEEP_HBARS[-1]
    half_width = 0.5 * n * math.sqrt(2.0 * math.pi * h * SWEEP_TAU / (MASS * n))
    x0, p0 = _boundary_safe(rng, action, SWEEP_TAU, steps, half_width, math.sqrt(0.5 * h), (0.8, 1.2), (-0.2, 0.2))
    config = {
        "grid": {"n_points": n},
        "constants": {"mass": MASS, "hbar": 1.0, "tau": SWEEP_TAU},
        "action": action,
        "run": {"x0": x0, "p0": p0, "n_steps": steps, "hbar_list": list(SWEEP_HBARS)},
    }
    expect = {"exit": 0, "n_hbars": len(SWEEP_HBARS), "n_steps": steps, "x0": x0, "tau": SWEEP_TAU}
    return Experiment("sweep-standard-quartic", [Call("sweep", config, expect)])


# One cycle of each workload: (generator, kind). The cycles are shaped so
# that the median and the tail order statistic (ten samples beyond it) fall
# inside a group of similar-cost experiments, not on the boundary between
# two groups, for any plausible number of cycles in a run. A gauged action
# costs about 1.5x a standard one in the classical root scan.
WORKLOADS = {
    # Four standard and two gauged evolutions, plus one hbar sweep: the only
    # path through hbar_sweep's thread fan-out (DTQM_THREADS=2).
    "evolve_1024": [
        (_evolve_experiment, ("standard", "harmonic", None)),
        (_evolve_experiment, ("gauged", "harmonic", "linear")),
        (_evolve_experiment, ("standard", "quartic", None)),
        (_evolve_experiment, ("standard", "cosine_well", None)),
        (_evolve_experiment, ("gauged", "cosine_well", "quadratic")),
        (_evolve_experiment, ("standard", "quartic", None)),
        (_sweep_experiment, None),
    ],
    # Five admissible actions through every command, plus the two probes.
    # (kind, potential, phase, classical run seeded by, build mode)
    "pipeline_1024": [
        (_pipeline_experiment, ("standard", "harmonic", None, "x_minus1", "analytic")),
        (_pipeline_experiment, ("gauged", "harmonic", "linear", "p0", "off_magic")),
        (_pipeline_experiment, ("standard", "quartic", None, "p0", "analytic")),
        (_probe_experiment, "sine_probe"),
        (_pipeline_experiment, ("standard", "cosine_well", None, "x_minus1", "analytic")),
        (_pipeline_experiment, ("gauged", "cosine_well", "quadratic", "x_minus1", "analytic")),
        (_probe_experiment, "quartic_probe"),
    ],
}


def cycle_length(workload: str) -> int:
    return len(WORKLOADS[workload])


def generate(workload: str, seed: int, n_cycles: int, size: str = "full") -> list[Experiment]:
    """Seeded experiments: ``n_cycles`` repetitions of the workload's fixed cycle."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    dims = SIZES[workload][size]
    return [make(rng, dims, kind) for _ in range(n_cycles) for make, kind in WORKLOADS[workload]]
