"""Host speed, measured with a fixed piece of work that shares no code with dtqm.

The benchmark runs on a few vCPUs of a shared host whose speed changes for
minutes at a time. On the 2-vCPU Intel Xeon (2.0 GHz) host the benchmark
was tuned on, interpreter-bound Python ran anywhere from 8 to 16 ms for the
loop below, in regimes lasting minutes, and whole-run medians of the
workloads moved by up to 25% between runs of the same code. Such a shift is
longer than any run, so neither longer runs nor medians remove it.

``HostSpeed.sample`` is called between experiments in the timed window. It
times two references, each close to a kind of work the workloads do:

- ``blas``: complex 1024 x 1024 matrix-vector products, the dense apply of
  ``propagator.evolve``, at the default BLAS threading;
- ``python``: a scalar float loop in the interpreter, like the classical
  root scan.

``factor`` is the mean of the two medians, each over its nominal value: 1.0
on the tuning host at its usual speed, 1.3 when the host runs 30% slower.
The end-to-end timings are divided by it, so that they read as seconds at the
nominal host speed. A change to dtqm does not move the references, so a
program that gets faster or slower moves the reported figure by the same
share as its raw wall time. The raw figures are kept in the run's detail.
Over 45-second windows on the tuning host, this took the spread of the
median experiment time from 0.20 to 0.05-0.07 of its median.
"""

import math
import statistics
import time

import numpy as np

# Medians of the two references on the tuning host (see the module docstring).
NOMINAL_BLAS_S = 0.0180
NOMINAL_PYTHON_S = 0.0115

BLAS_N = 1024
BLAS_PRODUCTS = 40
PYTHON_ITERATIONS = 60000


class HostSpeed:
    """Samples of the two reference timings over one run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        shape = (BLAS_N, BLAS_N)
        self._matrix = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0 * BLAS_N)
        self._vector = rng.standard_normal(BLAS_N) + 0j
        self.blas_s: list[float] = []
        self.python_s: list[float] = []

    def reset(self) -> None:
        """Drop the samples taken so far, keeping the reference matrix."""
        self.blas_s, self.python_s = [], []

    def sample(self) -> None:
        self.blas_s.append(self._time_blas())
        self.python_s.append(_time_python())

    def _time_blas(self) -> float:
        t0 = time.perf_counter()
        w = self._vector
        for _ in range(BLAS_PRODUCTS):
            w = self._matrix @ w
            w /= np.linalg.norm(w)
        return time.perf_counter() - t0

    def factor(self) -> float:
        """How much slower than nominal the host ran over the samples taken."""
        if not self.blas_s:
            raise ValueError("no host speed samples taken")
        blas = statistics.median(self.blas_s) / NOMINAL_BLAS_S
        python = statistics.median(self.python_s) / NOMINAL_PYTHON_S
        return 0.5 * (blas + python)

    def summary(self) -> dict:
        return {
            "factor": self.factor(),
            "samples": len(self.blas_s),
            "blas_s_p50": statistics.median(self.blas_s),
            "python_s_p50": statistics.median(self.python_s),
        }


def _time_python() -> float:
    t0 = time.perf_counter()
    x, s = 0.3, 0.0
    for _ in range(PYTHON_ITERATIONS):
        x = 2.0 * x - 0.3 * math.sin(x)
        x -= math.floor(x)
        s += x * x
    return time.perf_counter() - t0
