"""Distributional quantities of the point-process layers.

Closed-form contact moments for Poisson layers, and the cluster-process
quantities (void probability, J-function, nearest-neighbor distribution,
distance moments) that feed the user-to-base-station cost terms. The 2D integrals are reduced to 1D radial integrals by
isotropy and evaluated with composite Gauss-Legendre rules on fixed grids: an
outer grid over the radius r, uniform in u = sqrt(r / r_max) so that it is
graded toward r = 0, and for every r an inner grid over the distance s to a
cluster center. The inner Gaussian-disc mass uses the noncentral-chi-squared
identity and is evaluated for the whole (r, s) grid in one broadcast call,
so a distance moment costs one vectorized survival curve instead of nested
adaptive quadrature. The curve stops at the radius where the macros alone,
which the stations include, leave the ball empty with probability below
e^-60, and the finer of its two grids stops sooner, where the coarse grid's
void exponent has reached 38 and the survival rounds to 0.0; beyond either
stop the survival is set to exactly 0, which moves a moment by at most
about e^-38 r_max^exponent and, in double precision, by nothing. The unit
Gauss-Legendre rules of both grids are built once, at import. Every quantity
is computed on a grid and on one with twice the panels; the difference is
the error estimate. One rule, the module constant :data:`DEFAULT_QUAD`,
accepts it: the error must not exceed max(abs_tol + rel_tol * |result|,
1e3 * abs_tol), where the second term is an absolute floor of 1e-5 at the
default abs_tol of 1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as sp

from .errors import ParameterError, QuadratureError

__all__ = [
    "ClusterParams",
    "DEFAULT_QUAD",
    "ppp_contact_moment",
    "gaussian_disc_mass",
    "void_probability",
    "j_function",
    "nn_distance_cdf",
    "cluster_nn_moment",
]


@dataclass(frozen=True)
class ClusterParams:
    """Thomas-process parameters for the base-station layer.

    lambda_1c: cluster (macro) intensity per km^2
    lambda_1m: expected cluster members (micros) per cluster
    sigma:     Gaussian kernel standard deviation per axis, km
    """

    lambda_1c: float
    lambda_1m: float
    sigma: float

    def __post_init__(self):
        if self.lambda_1c < 0 or self.lambda_1m < 0:
            raise ParameterError("cluster intensities must be >= 0")
        if self.sigma <= 0:
            raise ParameterError("sigma must be > 0")


@dataclass(frozen=True)
class QuadratureSettings:
    """The acceptance rule and range of the fixed-grid radial integrals.

    A result is accepted when it differs from the same rule on a grid of half
    the panels by at most ``max(abs_tol + rel_tol * |result|, 1e3 * abs_tol)``;
    the second term is an absolute floor, 1e-5 at the default ``abs_tol``.
    ``max_radius_factor`` truncates the integration range at that multiple of
    the relevant length scale (mean point spacing for distance moments, the
    kernel width for the cluster integrals). Within that range the distance
    moments also drop the radii where the macro void probability is below
    e^-60, and the fine grid those where the coarse grid's survival already
    rounds to 0 (see ``_survival_curve``). The coarse grids have 12 outer and 6
    inner panels; the fine grids twice as many.
    """

    abs_tol: float = 1e-8
    rel_tol: float = 1e-6
    max_radius_factor: float = 10.0


#: the one quadrature rule; every function reads it when it runs
DEFAULT_QUAD = QuadratureSettings()


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_R_PANELS = 12  # outer panels, uniform in u with r = r_max * u^2
_S_PANELS = 6  # inner panels over the distance to a cluster center
_VOID_CUTOFF = 60.0  # survival is 0 where lambda_1c pi r^2 exceeds this, see _survival_curve
_TAIL_ZERO = 38.0  # a void exponent past which 1 - cdf rounds to 0.0, see _survival_curve


def _unit_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule over ``panels`` uniform panels of [0, 1]."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    a, b = edges[:-1, None], edges[1:, None]
    half = (b - a) / 2.0
    rule = (half * _GL_NODES + (a + b) / 2.0).ravel(), (half * _GL_WEIGHTS).ravel()
    for x in rule:
        x.setflags(write=False)
    return rule


#: the coarse and the fine grid: outer (u, wu) and inner (t, wt) unit rules, built once
_RULES = tuple((_unit_rule(k * _R_PANELS), _unit_rule(k * _S_PANELS)) for k in (1, 2))


def _converged(coarse: float, fine: float, what: str) -> float:
    quad = DEFAULT_QUAD
    err = abs(coarse - fine)
    if err > max(quad.abs_tol + quad.rel_tol * abs(fine), 1e3 * quad.abs_tol):
        raise QuadratureError(f"{what} did not converge", achieved_error=err)
    return fine


def ppp_contact_moment(beta: float, intensity: float) -> float:
    """E[R^beta] of the distance to the nearest point of a PPP.

    Equals Gamma(beta/2 + 1) / (pi * intensity)^(beta/2).
    """
    if intensity <= 0:
        raise ParameterError(f"intensity must be > 0, got {intensity}")
    if beta < 0:
        raise ParameterError(f"beta must be >= 0, got {beta}")
    return math.gamma(beta / 2.0 + 1.0) / (math.pi * intensity) ** (beta / 2.0)


def gaussian_disc_mass(center_dist, sigma: float, radius):
    """Mass a 2D isotropic Gaussian places inside a disc.

    Probability that a Gaussian with standard deviation ``sigma`` per axis,
    centered ``center_dist`` away from the disc center, lands inside the disc
    of the given radius. Evaluated through the noncentral-chi-squared CDF
    (equivalently 1 - MarcumQ1(center_dist/sigma, radius/sigma)). Accepts
    arrays ``center_dist`` and ``radius`` that broadcast against each other;
    returns a float when both are scalars.
    """
    if sigma <= 0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    rad = np.asarray(radius, dtype=float)
    if np.any(rad < 0):
        raise ParameterError(f"radius must be >= 0, got {radius}")
    d = np.asarray(center_dist, dtype=float)
    if np.any(d < 0):
        raise ParameterError("center_dist must be >= 0")
    x = (rad / sigma) ** 2
    nc = (d / sigma) ** 2
    with np.errstate(all="ignore"):
        out = sp.chndtr(x, 2.0, nc)
    # chndtr overshoots 1.0 by a few ulp at extreme arguments and yields NaN
    # on subnormal ones; fall back to the sharp asymptotic limit there
    out = np.where(np.isnan(out), np.where(x > nc, 1.0, 0.0), out)
    out = np.where(rad == 0.0, 0.0, np.clip(out, 0.0, 1.0))
    return out if out.ndim else float(out)


def _void_exponent_and_j(
    r: np.ndarray, params: ClusterParams, inner: tuple[np.ndarray, np.ndarray], with_j: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Minus the log void probability and the J-function at the radii ``r`` (1-D, all > 0).

    The inner integrals use the unit rule ``inner`` = (t, wt) mapped onto
    [r, r + F sigma] for the void probability and onto [0, F sigma] for J,
    with F = ``max_radius_factor``; both share one disc-mass call. J's grid
    covers only the support of the Rayleigh kernel density it weights (below
    e^-50 beyond 10 sigma), so it does not stretch with r. J is None unless
    ``with_j``.
    """
    lam_m, sigma = params.lambda_1m, params.sigma
    area = math.pi * r * r
    if lam_m == 0.0:
        return params.lambda_1c * area, (np.ones_like(r) if with_j else None)
    t, wt = inner
    span = DEFAULT_QUAD.max_radius_factor * sigma
    rr = r[:, None]
    s_void = rr + span * t
    s_j = span * t
    mass = gaussian_disc_mass(
        np.concatenate([s_void, np.broadcast_to(s_j, s_void.shape)], axis=1) if with_j else s_void, sigma, rr
    )
    n = t.size
    # inside the ball the bracket of the void integral is 1 and gives pi r^2
    outer = span * ((s_void * -np.expm1(-lam_m * mass[:, :n])) @ wt)
    exponent = params.lambda_1c * (area + 2.0 * math.pi * outer)
    if not with_j:
        return exponent, None
    f_radial = (s_j / sigma**2) * np.exp(-s_j * s_j / (2.0 * sigma**2))
    member_term = span * ((f_radial * np.exp(-lam_m * mass[:, n:])) @ wt)
    w = 1.0 / (1.0 + lam_m)
    return exponent, w + (1.0 - w) * member_term


def _at_radius(r: float, params: ClusterParams, what: str, value) -> float:
    """``value(minus log void probability, J)`` at one radius, checked coarse against fine."""
    if r < 0:
        raise ParameterError(f"r must be >= 0, got {r}")
    if r == 0.0:
        return value(0.0, 1.0)
    values = []
    for _, inner in _RULES:
        exponent, j = _void_exponent_and_j(np.array([float(r)]), params, inner, True)
        values.append(value(float(exponent[0]), float(j[0])))
    return _converged(*values, what)


def void_probability(r: float, params: ClusterParams) -> float:
    """Probability that the cluster process leaves a ball of radius r empty.

    For the Thomas process this is exact:
    exp(-lambda_1c * Int_R2 [1 - 1(x outside ball) * exp(-lambda_1m * m(|x|, r))] dx)
    with m the Gaussian disc mass. The planar integral reduces to a radial one;
    inside the ball the bracket is 1 and contributes pi r^2 exactly.
    """
    return _at_radius(r, params, "void probability integral", lambda exponent, j: math.exp(-exponent))


def j_function(r: float, params: ClusterParams) -> float:
    """J-function of the combined macro + micro base-station process.

    Mixture of the macro component (a PPP, whose J is identically 1) and the
    cluster-member component, weighted by their intensity shares:
    1/(1+lambda_1m) + lambda_1m/(1+lambda_1m) * Int f(x) exp(-lambda_1m * m(|x|, r)) dx.
    The mixture treats the two components as independent, so it is an
    approximation for strongly clustered parameters (macros and their own
    offspring are not independent); see the package notes.
    """
    return _at_radius(r, params, "J-function integral", lambda exponent, j: j)


def nn_distance_cdf(r: float, params: ClusterParams) -> float:
    """CDF of the distance from a typical base station to its nearest neighbor.

    G(r) = 1 - [void probability at r] * J(r); nondecreasing in r with
    G(0) = 0 and G(r) -> 1.
    """
    return 1.0 - _at_radius(
        r, params, "nearest-neighbor CDF integral", lambda exponent, j: math.exp(-exponent) * j
    )


@lru_cache(maxsize=1)
def _survival_curve(
    lambda_1c: float, lambda_1m: float, sigma: float, distance: str
) -> tuple[tuple[float, np.ndarray, np.ndarray, np.ndarray], ...]:
    """The nearest-distance survival curve on the coarse and the fine r-grid.

    Each grid is (r1, r nodes, weights, tail). The nodes are Gauss-Legendre
    nodes on uniform panels in u, mapped by r = r_max u^2 with the Jacobian
    folded into the weights, and r_max = F max(1/sqrt(lambda_1c), sigma): the
    survival function decays on the scale of the sparser of the cluster
    centers and the kernel spread. The moment integrand
    exponent * r^(exponent-1) * survival is singular at r = 0 for exponents
    below 1. The survival function is 1 + O(r^2) there, so tail is the
    survival function less 1 on the first panel [0, r1], whose 1 integrates
    exactly to r1^exponent; the remainder is smooth in u for every
    exponent > 0.

    The grids stop early: every node beyond max(r1, r_cut) has tail
    exactly 0. Two radii bound r_cut:

    * a priori, sqrt(T / (pi lambda_1c)) with T = 60 (``_VOID_CUTOFF``).
      The stations include the macros, so the survival at r is at most the
      macro void probability exp(-lambda_1c pi r^2) <= e^-T there; in the
      code the void exponent is lambda_1c (pi r^2 + 2 pi outer) with
      outer >= 0 and J <= 1, so the dropped tails are below e^-60.
    * once the coarse grid is evaluated, its first node whose computed void
      exponent is at least 38 (``_TAIL_ZERO``); the fine grid stops there.
      cdf = -expm1(-exponent), or 1 - exp(-exponent) J with J <= 1, rounds
      to 1.0 once exp(-exponent) < 2^-54, that is exponent > 54 ln 2 ~ 37.43,
      so the tail 1 - cdf is 0.0. The true exponent -log V(r) does not
      decrease in r, and the inner rule computes it to about 1e-12, so the
      fine grid's exponent stays above 37.43 past that node. At the defaults
      four of five stations are micros, and this stop comes well inside
      the macro bound.

    Either way the dropped tails already round to 0 in double precision, so
    no bit of a moment moves; without rounding, the dropped part would be at
    most about e^-38 r_max^exponent, 3.1e-17 r_max^exponent. Nodes of the
    first panel are never dropped: their tail is -CDF, not the survival.

    The single entry serves the two moments of one cost evaluation; a caller
    that alternates cluster sets rebuilds the curve each time.
    """
    params = ClusterParams(lambda_1c, lambda_1m, sigma)
    upper = DEFAULT_QUAD.max_radius_factor * max(1.0 / math.sqrt(lambda_1c), sigma)
    r_cut = math.sqrt(_VOID_CUTOFF / (math.pi * lambda_1c))
    grids = []
    for k, ((u, wu), inner) in enumerate(_RULES, 1):
        r, w = upper * u * u, 2.0 * upper * u * wu
        r1 = upper / (k * _R_PANELS) ** 2
        kept = r[: np.searchsorted(r, max(r1, r_cut), side="right")]
        exponent, j = _void_exponent_and_j(kept, params, inner, distance == "palm")
        # on the coarse pass this sets where the fine pass stops
        zero = np.flatnonzero(exponent >= _TAIL_ZERO)
        if zero.size:
            r_cut = min(r_cut, float(kept[zero[0]]))
        cdf = -np.expm1(-exponent) if j is None else 1.0 - np.exp(-exponent) * j
        tail = np.zeros_like(r)
        tail[: kept.size] = np.where(kept < r1, -cdf, 1.0 - cdf)
        for a in (r, w, tail):
            a.setflags(write=False)
        grids.append((r1, r, w, tail))
    return tuple(grids)


def cluster_nn_moment(exponent: float, params: ClusterParams, distance: str = "palm") -> float:
    """E[R^exponent] of the nearest-base-station distance, via the tail formula.

    ``distance`` selects whose viewpoint the distance is taken from:

    * ``"palm"``: from a typical point of the process itself (nearest-neighbor
      distribution G, through the J-function);
    * ``"contact"``: from an independent uniformly random location, e.g. a
      user (empty-space function F, void probability only). This variant is
      exact for the Thomas process and is what the Monte Carlo deployment
      oracle reproduces.

    Computed as Int_0^inf exponent * r^(exponent-1) * (1 - CDF(r)) dr; the
    degenerate case lambda_1m = 0 reproduces the PPP contact moment either way.
    """
    if exponent < 0:
        raise ParameterError(f"exponent must be >= 0, got {exponent}")
    if exponent == 0:
        return 1.0
    if distance not in ("palm", "contact"):
        raise ParameterError(f"distance must be 'palm' or 'contact', got {distance!r}")
    if params.lambda_1c == 0:
        raise ParameterError("cluster intensity must be > 0 for distance moments")
    coarse, fine = (
        r1**exponent + float(np.sum(w * exponent * r ** (exponent - 1.0) * tail))
        for r1, r, w, tail in _survival_curve(params.lambda_1c, params.lambda_1m, params.sigma, distance)
    )
    return _converged(coarse, fine, "nearest-distance moment integral")
