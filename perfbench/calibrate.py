"""Calibration kernels that measure how fast the machine runs right now.

On a shared virtual machine the same code runs 20-40% faster or slower from
one minute to the next, whatever the program does. Each workload therefore
times, between its repetitions, a fixed kernel of the same kind of work its
hot path does, and rescales each repetition's rate by the kernel's speed.
Kernels of a different kind track the drift badly (a vectorized kernel made
the quadrature workloads' spread worse), so there is one kernel per kind:

* ``quadrature``: ``scipy.integrate.quad`` over a Python integrand calling
  scalar ``chndtr``, as the void-probability integral does;
* ``kdtree``: a nearest-two query against a periodic ``cKDTree``, as the
  oracle's nearest-neighbour assignment does;
* ``arrays``: elementwise work and a sort over arrays past the L2 cache, as
  the outage Monte Carlo does.

The steadiness table in README.md shows the rescaled and the wall-clock
spreads side by side. The kernels use numpy and scipy directly and never the
package, so no change to the package can change their time.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import integrate
from scipy import special as sp
from scipy.spatial import cKDTree

#: each kernel's median time on the 2-core x86-64 virtual machine of the
#: steadiness table (Python 3.11, numpy 2.4, scipy 1.17); it only sets the
#: scale of the rescaled rates, not their spread
REFERENCE_S = {"quadrature": 0.1, "kdtree": 0.024, "arrays": 0.016}


def _disc_term(s: float, r: float) -> float:
    # the scalar numpy round trip of a Gaussian disc mass, as the package makes it
    mass = sp.chndtr(np.asarray(r * r / 0.5), 2.0, np.asarray(s) ** 2 / 0.5)
    mass = np.clip(np.where(np.isnan(mass), 0.0, mass), 0.0, 1.0)
    return s * (1.0 - math.exp(-4.0 * float(mass)))


def _void_term(r: float) -> float:
    inner, _ = integrate.quad(_disc_term, r, r + 7.0, args=(r,), epsabs=1e-8, epsrel=1e-6, limit=200)
    return r * math.exp(-10.0 * (math.pi * r * r + 2.0 * math.pi * inner))


class Kernel:
    def __init__(self, kind: str):
        if kind not in REFERENCE_S:
            raise ValueError(f"unknown kernel kind {kind!r}")
        self.kind = kind
        rng = np.random.default_rng(0)
        if kind == "kdtree":
            self.tree = cKDTree(rng.random((2000, 2)), boxsize=1.0)
            self.queries = rng.random((20000, 2))
        elif kind == "arrays":
            self.array = rng.random(1_000_000) * 10.0  # 8 MB

    def _run(self) -> None:
        if self.kind == "quadrature":
            integrate.quad(_void_term, 0.0, 1.0, epsabs=1e-8, epsrel=1e-6, limit=200)
        elif self.kind == "kdtree":
            self.tree.query(self.queries, k=2)
        else:
            np.sort(np.log2(1.0 + self.array))

    def seconds(self) -> float:
        """Wall time of one pass of the kernel."""
        t0 = time.perf_counter()
        self._run()
        return time.perf_counter() - t0

    def rescale(self, seconds: float) -> float:
        """Factor that turns a rate measured while the kernel took ``seconds`` into one at reference speed."""
        return seconds / REFERENCE_S[self.kind]
