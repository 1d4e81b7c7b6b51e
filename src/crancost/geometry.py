"""Four-layer point-process geometry: sampling and nearest-neighbor assignment.

The observation window is a rectangle, toroidal by default so that empirical
means taken over the window match the stationary closed forms without edge
corrections. All sampling operations are pure functions of their parameters
and a seed; sub-streams for layers and replications are derived from one
master seed through :func:`layer_rng`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import AssignmentError, ParameterError

__all__ = [
    "Layer",
    "BackhaulTech",
    "Window",
    "PointSet",
    "MarkedBaseStationSet",
    "BackhaulDraw",
    "AssignmentMap",
    "layer_rng",
    "as_generator",
    "sample_ppp",
    "sample_backhaul",
    "sample_cluster_bs",
    "nearest_assign",
    "assignment_distances",
]


class Layer(enum.Enum):
    USERS = "users"
    BASE_STATIONS = "base_stations"
    BACKHAUL = "backhaul"
    DATA_CENTERS = "data_centers"


class BackhaulTech(enum.Enum):
    MW = "mw"  # microwave
    OF = "of"  # optic fiber


@dataclass(frozen=True)
class Window:
    """Rectangular observation window in km.

    With ``wrap=True`` distances are measured on the torus, which removes
    boundary effects; with ``wrap=False`` the plain Euclidean metric is used
    and cluster offspring falling outside the window are dropped
    (minus-sampling).
    """

    width: float
    height: float
    wrap: bool = True

    def __post_init__(self):
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ParameterError(f"window dimensions must be finite and positive, got {self.width} x {self.height}")

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def spans(self) -> np.ndarray:
        return np.array([self.width, self.height])

    def wrap_points(self, points: np.ndarray) -> np.ndarray:
        """Fold coordinates back into [0, span) per axis."""
        pts = np.mod(points, self.spans)
        # float mod of a tiny negative can land exactly on the span
        pts[pts >= self.spans] = 0.0
        return pts

    def contains(self, points: np.ndarray) -> np.ndarray:
        return np.all((points >= 0.0) & (points < self.spans), axis=-1)

    def deltas(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coordinate differences a-b under the window metric."""
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        if self.wrap:
            d = np.remainder(d + self.spans / 2.0, self.spans) - self.spans / 2.0
        return d

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pairwise (broadcast) distance between points under the window metric."""
        return np.linalg.norm(self.deltas(a, b), axis=-1)


@dataclass
class PointSet:
    """Planar point pattern tagged with the network layer it represents."""

    points: np.ndarray  # shape (n, 2), km
    layer: Layer

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 2)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class MarkedBaseStationSet:
    """Base-station layer: macro cluster centers plus Gaussian-scattered micros.

    ``parent_of[i]`` is the macro index that spawned micro ``i``. The combined
    pattern (:meth:`all_points`) lists macros first, then micros.
    """

    macros: PointSet
    micros: PointSet
    parent_of: np.ndarray  # (n_micros,) int

    @property
    def n_macros(self) -> int:
        return len(self.macros)

    @property
    def n_micros(self) -> int:
        return len(self.micros)

    def all_points(self) -> np.ndarray:
        if self.n_micros == 0:
            return self.macros.points
        return np.vstack([self.macros.points, self.micros.points])

    def __len__(self) -> int:
        return self.n_macros + self.n_micros


@dataclass
class BackhaulDraw:
    """One realization of the mixed-Poisson backhaul layer."""

    nodes: PointSet
    realized: BackhaulTech


@dataclass
class AssignmentMap:
    """Nearest-upper-point assignment for every lower point."""

    lower_to_upper: np.ndarray  # (n_lower,) int

    def __len__(self) -> int:
        return self.lower_to_upper.shape[0]

    def counts(self, n_upper: int, weights: np.ndarray | None = None) -> np.ndarray:
        """Per-upper-point totals of assigned lower points (optionally weighted)."""
        return np.bincount(self.lower_to_upper, weights=weights, minlength=n_upper)


def as_generator(seed) -> np.random.Generator:
    """Normalize an int / SeedSequence / Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def layer_rng(master_seed: int, replication: int, layer: int) -> np.random.Generator:
    """Independent stream for (replication, layer) derived from one master seed.

    The scheme is ``SeedSequence(master_seed, spawn_key=(replication, layer))``:
    layers are independent within a replication and replications are
    independent of each other, while the whole simulation is reproducible from
    the single master seed.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(replication, layer))
    return np.random.Generator(np.random.PCG64(ss))


def sample_ppp(intensity: float, window: Window, seed, layer: Layer = Layer.USERS) -> PointSet:
    """Sample a homogeneous Poisson point process in the window.

    The count is Poisson(intensity * area) and positions are i.i.d. uniform.
    """
    if intensity < 0:
        raise ParameterError(f"intensity must be >= 0, got {intensity}")
    rng = as_generator(seed)
    n = rng.poisson(intensity * window.area)
    pts = rng.uniform(0.0, window.spans, size=(n, 2))
    return PointSet(pts, layer)


def sample_backhaul(p: float, lambda_mw: float, lambda_of: float, window: Window, seed) -> BackhaulDraw:
    """Sample the backhaul layer: one Bernoulli(p) draw picks the realized technology.

    With probability ``p`` the realization is a PPP of microwave intensity,
    otherwise of optic-fiber intensity; the marginal expected count is
    ``(p*lambda_mw + (1-p)*lambda_of) * area``.
    """
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"p must lie in [0, 1], got {p}")
    if lambda_mw < 0 or lambda_of < 0:
        raise ParameterError("backhaul intensities must be >= 0")
    rng = as_generator(seed)
    is_mw = rng.random() < p
    intensity = lambda_mw if is_mw else lambda_of
    nodes = sample_ppp(intensity, window, rng, layer=Layer.BACKHAUL)
    return BackhaulDraw(nodes, BackhaulTech.MW if is_mw else BackhaulTech.OF)


def sample_cluster_bs(
    lambda_1c: float,
    lambda_1m: float,
    sigma: float,
    window: Window,
    seed,
) -> MarkedBaseStationSet:
    """Sample the base-station layer as a Thomas cluster process.

    Macros form a PPP(lambda_1c); each macro independently spawns a
    Poisson(lambda_1m) number of micros displaced by an isotropic Gaussian
    with standard deviation ``sigma`` per axis. Total expected intensity is
    ``lambda_1c * (1 + lambda_1m)``. On a toroidal window displaced micros
    wrap back in; otherwise micros falling outside are dropped.
    """
    if lambda_1c < 0 or lambda_1m < 0:
        raise ParameterError("cluster intensities must be >= 0")
    if sigma <= 0:
        raise ParameterError(f"kernel standard deviation must be > 0, got {sigma}")
    rng = as_generator(seed)
    macros = sample_ppp(lambda_1c, window, rng, layer=Layer.BASE_STATIONS)
    n_mac = len(macros)
    if n_mac == 0 or lambda_1m == 0:
        return MarkedBaseStationSet(
            macros,
            PointSet(np.empty((0, 2)), Layer.BASE_STATIONS),
            np.empty(0, dtype=int),
        )
    offspring_counts = rng.poisson(lambda_1m, size=n_mac)
    parents = np.repeat(np.arange(n_mac), offspring_counts)
    displacements = rng.normal(0.0, sigma, size=(parents.shape[0], 2))
    micro_pts = macros.points[parents] + displacements
    if window.wrap:
        micro_pts = window.wrap_points(micro_pts)
    else:
        keep = window.contains(micro_pts)
        micro_pts = micro_pts[keep]
        parents = parents[keep]
    return MarkedBaseStationSet(
        macros, PointSet(micro_pts, Layer.BASE_STATIONS), parents.astype(int)
    )


def _kdtree(points: np.ndarray, window: Window) -> cKDTree:
    if window.wrap:
        return cKDTree(points, boxsize=window.spans)
    return cKDTree(points)


def nearest_assign(lower: PointSet | np.ndarray, upper: PointSet | np.ndarray, window: Window) -> AssignmentMap:
    """Map every lower point to its nearest upper point under the window metric.

    One k=1 KD-tree query. An exact tie goes to whichever equidistant upper
    point the tree returns, which is deterministic for given inputs; the
    samplers are continuous, so ties have probability zero.
    """
    lower_pts = lower.points if isinstance(lower, PointSet) else np.asarray(lower, dtype=float)
    upper_pts = upper.points if isinstance(upper, PointSet) else np.asarray(upper, dtype=float)
    if upper_pts.shape[0] == 0:
        raise AssignmentError("cannot assign against an empty upper layer")
    _, idx = _kdtree(upper_pts, window).query(lower_pts, k=1)
    return AssignmentMap(idx)


def assignment_distances(
    lower: PointSet | np.ndarray,
    upper: PointSet | np.ndarray,
    assignment: AssignmentMap,
    window: Window,
) -> np.ndarray:
    """Window-metric distance from each lower point to its assigned upper point."""
    lower_pts = lower.points if isinstance(lower, PointSet) else np.asarray(lower, dtype=float)
    upper_pts = upper.points if isinstance(upper, PointSet) else np.asarray(upper, dtype=float)
    return window.distance(lower_pts, upper_pts[assignment.lower_to_upper])
