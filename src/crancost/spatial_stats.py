"""Distributional quantities of the point-process layers.

Closed-form contact moments for Poisson layers, and the cluster-process
quantities (void probability, J-function, nearest-neighbor distribution,
distance moments) that feed the user-to-base-station cost terms. The 2D integrals are reduced to 1D radial integrals by
isotropy and evaluated with composite Gauss-Legendre rules on fixed grids: an
outer grid over the radius r, uniform in u = sqrt(r / r_cut) so that it is
graded toward r = 0, and for every r an inner grid over the distance s to a
cluster center. The inner Gaussian-disc mass uses the noncentral-chi-squared
identity and is evaluated for the whole (r, s) grid in one broadcast call,
so a distance moment costs one vectorized survival curve instead of nested
adaptive quadrature. The curve spans [0, r_cut], where r_cut is the radius
at which the macros alone, which the stations include, leave the ball empty
with probability e^-60. Its rows are evaluated only up to r_hi, where the
macros alone reach the void exponent 38 and the survival rounds to 0.0, and
the fine grid's rows only up to where the coarse grid's exponent has reached
38. Past these ends the survival is taken as exactly 0. That moves a moment
by at most about e^-38 r_cut^exponent, which rounds away, and the part past
r_cut is below e^-60 r_cut^exponent. The unit Gauss-Legendre rules of both
grids are built once, at import. Every quantity is computed with 8 nodes per
panel and with 12 on the same panels (the first outer panel halved); the
difference is the error estimate of the 12-node value. One rule, the module
constant :data:`DEFAULT_QUAD`, accepts it: the error must not exceed
max(abs_tol + rel_tol * |result|, 1e3 * abs_tol), where the second term is
an absolute floor of 1e-5 at the default abs_tol of 1e-8.
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
        # written so that NaN fails them
        if not (0 <= self.lambda_1c < math.inf and 0 <= self.lambda_1m < math.inf):
            raise ParameterError(f"cluster intensities must be finite and >= 0, got {self.lambda_1c}, {self.lambda_1m}")
        if not 0 < self.sigma < math.inf:
            raise ParameterError(f"sigma must be finite and > 0, got {self.sigma}")


@dataclass(frozen=True)
class QuadratureSettings:
    """The acceptance rule and range of the fixed-grid radial integrals.

    A result, the 12-node Gauss-Legendre value, is accepted when it differs
    from the 8-node value on the same panels by at most
    ``max(abs_tol + rel_tol * |result|, 1e3 * abs_tol)``; the second term is
    an absolute floor, 1e-5 at the default ``abs_tol``.
    ``max_radius_factor`` F sets the inner range, the distance to a cluster
    center, to F kernel widths. The outer range of the distance moments is
    [0, r_cut], where the macro void probability reaches e^-60, and no row
    is evaluated where the survival already rounds to 0 (see
    ``_survival_curve``). Both grids have 6 outer and 4 inner panels, 8
    nodes per panel on the coarse grid and 12 on the fine one, whose first
    outer panel is halved (see ``_rules``).
    """

    abs_tol: float = 1e-8
    rel_tol: float = 1e-6
    max_radius_factor: float = 10.0


#: the one quadrature rule; every function reads it when it runs
DEFAULT_QUAD = QuadratureSettings()


_R_PANELS = 6  # outer panels, uniform in u with r = r_cut * u^2
_S_PANELS = 4  # inner panels over the distance to a cluster center
_VOID_CUTOFF = 60.0  # lambda_1c pi r_cut^2: the outer grid ends at r_cut, see _survival_curve
_TAIL_ZERO = 38.0  # a void exponent past which 1 - cdf rounds to 0.0, see _survival_curve


def _unit_rule(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite ``order``-node Gauss-Legendre rule over the panels between ``edges``."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    a, b = edges[:-1, None], edges[1:, None]
    half = (b - a) / 2.0
    rule = (half * nodes + (a + b) / 2.0).ravel(), (half * weights).ravel()
    for x in rule:
        x.setflags(write=False)
    return rule


def _rules(r_panels: int, s_panels: int) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], ...]:
    """Outer (u, wu) and inner (t, wt) unit rules of the coarse and the fine grid.

    The coarse grid puts 8 Gauss-Legendre nodes on each of ``r_panels`` outer
    and ``s_panels`` inner uniform panels of [0, 1]; the fine grid puts 12 on
    the same panels, with the first outer panel halved, because the survival
    of tight clusters (palm, sigma sqrt(lambda_1c) < 0.1) and of dense ones
    (lambda_1m >> 32) changes on a scale far below that panel.
    """
    u = np.linspace(0.0, 1.0, r_panels + 1)
    t = np.linspace(0.0, 1.0, s_panels + 1)
    return (
        (_unit_rule(u, 8), _unit_rule(t, 8)),
        (_unit_rule(np.insert(u, 1, u[1] / 2.0), 12), _unit_rule(t, 12)),
    )


#: the coarse and the fine grid, built once
_RULES = _rules(_R_PANELS, _S_PANELS)


def _converged(coarse: float, fine: float, what: str) -> float:
    quad = DEFAULT_QUAD
    err = abs(coarse - fine)
    if err > max(quad.abs_tol + quad.rel_tol * abs(fine), 1e3 * quad.abs_tol):
        raise QuadratureError(f"{what} did not converge", achieved_error=err)
    return fine


def ppp_contact_moment(beta: float, intensity: float) -> float:
    """E[R^beta] of the distance to the nearest point of a PPP.

    Equals Gamma(beta/2 + 1) / (pi * intensity)^(beta/2). Where a factor
    leaves the float range the same moment is taken through logarithms; a
    moment past the float range is a :class:`ParameterError`.
    """
    if not 0 < intensity < math.inf:
        raise ParameterError(f"intensity must be finite and > 0, got {intensity}")
    if not 0 <= beta < math.inf:
        raise ParameterError(f"beta must be finite and >= 0, got {beta}")
    half = beta / 2.0
    try:
        moment = math.gamma(half + 1.0) / (math.pi * intensity) ** half
    except (OverflowError, ZeroDivisionError):
        # not the log form everywhere: it moves Gamma(2) / (pi * 3) by one ulp
        try:
            moment = math.exp(math.lgamma(half + 1.0) - half * math.log(math.pi * intensity))
        except OverflowError:
            moment = math.inf
    if moment == math.inf:
        raise ParameterError(f"contact moment of exponent {beta} at intensity {intensity} is past the float range")
    return moment


def gaussian_disc_mass(center_dist, sigma: float, radius):
    """Mass a 2D isotropic Gaussian places inside a disc.

    Probability that a Gaussian with standard deviation ``sigma`` per axis,
    centered ``center_dist`` away from the disc center, lands inside the disc
    of the given radius. Evaluated through the noncentral-chi-squared CDF
    (equivalently 1 - MarcumQ1(center_dist/sigma, radius/sigma)). Accepts
    arrays ``center_dist`` and ``radius`` that broadcast against each other;
    returns a float when both are scalars.
    """
    if not sigma > 0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    rad = np.asarray(radius, dtype=float)
    if not np.all((rad >= 0) & (rad < np.inf)):
        raise ParameterError(f"radius must be finite and >= 0, got {radius}")
    d = np.asarray(center_dist, dtype=float)
    if not np.all(d >= 0):
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
    # inside the ball the bracket of the void integral is 1 and gives pi r^2;
    # einsum sums each row alone, where BLAS's matrix-vector kernel (picked
    # by the row count) moves a row by an ulp with the length of the call
    outer = span * np.einsum("ij,j->i", s_void * -np.expm1(-lam_m * mass[:, :n]), wt)
    exponent = params.lambda_1c * (area + 2.0 * math.pi * outer)
    if not with_j:
        return exponent, None
    f_radial = (s_j / sigma**2) * np.exp(-s_j * s_j / (2.0 * sigma**2))
    member_term = span * np.einsum("ij,j->i", f_radial * np.exp(-lam_m * mass[:, n:]), wt)
    w = 1.0 / (1.0 + lam_m)
    return exponent, w + (1.0 - w) * member_term


def _at_radius(r: float, params: ClusterParams, what: str, value) -> float:
    """``value(minus log void probability, J)`` at one radius, checked coarse against fine."""
    if not 0 <= r < math.inf:
        raise ParameterError(f"r must be finite and >= 0, got {r}")
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
    nodes on panels in u (see ``_rules``), mapped by r = r_cut u^2 with the
    Jacobian folded into the weights. The moment integrand
    exponent * r^(exponent-1) * survival is singular at r = 0 for exponents
    below 1. The survival function is 1 + O(r^2) there, so tail is the
    survival function less 1 below r1 = r_cut / 6^2, the edge of the first
    coarse panel, whose 1 integrates exactly to r1^exponent; the remainder is
    smooth in u for every exponent > 0. Both grids share that edge.

    The grids span [0, r_cut] with r_cut = sqrt(T / (pi lambda_1c)) and
    T = 60 (``_VOID_CUTOFF``). The stations include the macros, so the
    survival at r is at most the macro void probability
    exp(-lambda_1c pi r^2) <= e^-T past r_cut; in the code the void exponent
    is lambda_1c (pi r^2 + 2 pi outer) with outer >= 0 and J <= 1. The range
    scales with every length of the process. At large
    kappa = sigma sqrt(lambda_1c) the survival decays on the scale of a PPP
    of intensity lambda_1c (1 + lambda_1m), a factor sqrt(1 + lambda_1m)
    inside r_cut; far above 32 micros per macro it falls inside the first
    panel again.

    Where the computed void exponent is at least 38 (``_TAIL_ZERO``), the
    tail is 0.0: cdf = -expm1(-exponent), or 1 - exp(-exponent) J with
    J <= 1, rounds to 1.0 once exp(-exponent) < 2^-54, that is
    exponent > 54 ln 2 ~ 37.43. So rows are evaluated only up to two stops;
    past them the tail is exactly 0 and no bit of a moment moves:

    * r_hi = sqrt(38 / (pi lambda_1c)). Past it the computed exponent is at
      least lambda_1c pi r^2, which is 38 up to rounding, on either grid.
    * the first coarse node whose computed exponent is at least 38. The true
      exponent -log V(r) does not decrease in r, and either inner rule
      computes it to about 1e-12, so both grids' exponents stay above 37.43
      past that node. At the defaults four of five stations are micros, and
      this stop comes well inside r_hi.

    The coarse pass evaluates its rows up to
    r_mid = r_hi (1 + lambda_1m)^(-1/4) first, the geometric mean of r_hi
    and r_hi / sqrt(1 + lambda_1m), where a PPP of the whole intensity
    reaches 38. It evaluates the rows up to r_hi only if none of those
    reached 38; r_mid only splits the work. The fine pass evaluates its rows
    up to the earlier stop. Rows below r1 are always evaluated: their tail
    is -CDF, not the survival. Without rounding, the part of a moment past
    the stops would be at most about e^-38 r_cut^exponent,
    3.1e-17 r_cut^exponent, and the part past r_cut is below
    e^-60 r_cut^exponent for every exponent up to 120.

    The single entry serves the two moments of one cost evaluation; a caller
    that alternates cluster sets rebuilds the curve each time.
    """
    params = ClusterParams(lambda_1c, lambda_1m, sigma)
    r_cut = math.sqrt(_VOID_CUTOFF / (math.pi * lambda_1c))
    r_hi = math.sqrt(_TAIL_ZERO / (math.pi * lambda_1c))
    r1 = r_cut / _R_PANELS**2
    ends = (max(r1, r_hi * (1.0 + lambda_1m) ** -0.25), r_hi)  # the coarse pass: r_mid, then r_hi
    grids = []
    for (u, wu), inner in _RULES:
        r, w = r_cut * u * u, 2.0 * r_cut * u * wu
        tail = np.zeros_like(r)
        done, stop = 0, r_hi
        for end in ends:
            n = int(np.searchsorted(r, end, side="right"))
            if n <= done:
                continue
            rows = r[done:n]
            exponent, j = _void_exponent_and_j(rows, params, inner, distance == "palm")
            cdf = -np.expm1(-exponent) if j is None else 1.0 - np.exp(-exponent) * j
            tail[done:n] = np.where(rows < r1, -cdf, 1.0 - cdf)
            done = n
            zero = np.flatnonzero(exponent >= _TAIL_ZERO)
            if zero.size:
                stop = float(rows[zero[0]])
                break
        ends = (max(r1, stop),)  # the fine pass
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
    A moment of positive exponent that does not come out above its error
    estimate, the gap between the coarse and the fine grid, is a
    :class:`QuadratureError`.
    """
    if exponent < 0:
        raise ParameterError(f"exponent must be >= 0, got {exponent}")
    if exponent == 0:
        return 1.0
    if distance not in ("palm", "contact"):
        raise ParameterError(f"distance must be 'palm' or 'contact', got {distance!r}")
    if params.lambda_1c == 0:
        raise ParameterError("cluster intensity must be > 0 for distance moments")
    grids = _survival_curve(params.lambda_1c, params.lambda_1m, params.sigma, distance)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            coarse, fine = (
                r1**exponent + float(np.sum(w * exponent * r ** (exponent - 1.0) * tail)) for r1, r, w, tail in grids
            )
    except OverflowError:
        coarse = fine = math.inf
    if not (math.isfinite(coarse) and math.isfinite(fine)):
        raise ParameterError(f"the distance moment of exponent {exponent} at {params} is not a finite float")
    moment = _converged(coarse, fine, "nearest-distance moment integral")
    err = abs(coarse - fine)
    if not moment > err:
        # a distance moment is positive; the grid's panels cancelled it away,
        # which the absolute floor of the acceptance rule lets through
        raise QuadratureError(
            f"the distance moment of exponent {exponent} at {params} came out {moment!r}, "
            f"not positive by more than its error estimate {err!r}",
            achieved_error=err,
        )
    return moment
