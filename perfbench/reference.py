"""Fixed-grid reference for the user-to-base-station distance moments.

Independent of the package's adaptive quadrature: composite Gauss-Legendre
rules on fixed grids, evaluated over the exact Thomas-process void
probability with the noncentral-chi-squared disc mass (``chndtr``), truncated
at the same radii as the package. The grids below agree with a doubled grid
to about 1e-15 relative at the parameters the benchmark draws.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

_NODES = 16
_OUTER_PANELS = 64  # graded toward r = 0, where the survival function lives
_INNER_PANELS = 16


def _gauss_legendre(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    a, b = edges[:-1, None], edges[1:, None]
    return ((b - a) / 2 * x + (a + b) / 2).ravel(), ((b - a) / 2 * w).ravel()


def contact_moments(exponents, lambda_1c: float, lambda_1m: float, sigma: float, radius_factor: float):
    """E[R^e] for each exponent e, R the distance from a random location to the nearest station.

    E[R^e] = Int_0^U e r^(e-1) V(r) dr with the void probability
    V(r) = exp(-lambda_1c (pi r^2 + 2 pi Int_r^(r + F sigma) s (1 - exp(-lambda_1m m(s, r))) ds)),
    m the Gaussian disc mass, F = ``radius_factor`` and
    U = F max(1/sqrt(lambda_1c), sigma).
    """
    upper = radius_factor * max(1.0 / math.sqrt(lambda_1c), sigma)
    r, wr = _gauss_legendre(upper * (np.arange(_OUTER_PANELS + 1) / _OUTER_PANELS) ** 2, _NODES)
    t, wt = _gauss_legendre(np.linspace(0.0, 1.0, _INNER_PANELS + 1), _NODES)
    span = radius_factor * sigma
    s = r[:, None] + span * t[None, :]
    with np.errstate(all="ignore"):
        mass = sp.chndtr((r[:, None] / sigma) ** 2, 2.0, (s / sigma) ** 2)
    mass = np.clip(np.nan_to_num(mass, nan=0.0), 0.0, 1.0)
    outer = span * ((s * -np.expm1(-lambda_1m * mass)) @ wt)
    void = np.exp(-lambda_1c * (math.pi * r * r + 2.0 * math.pi * outer))
    return [float(np.sum(wr * e * r ** (e - 1.0) * void)) for e in exponents]
