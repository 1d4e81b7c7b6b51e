"""Four-layer point-process geometry: sampling and nearest-neighbor assignment.

The observation window is a rectangle with its opposite edges identified (a
torus), so that empirical means taken over the window match the stationary
closed forms without edge corrections. Every point layer is an ``(n, 2)``
float array of coordinates in km, and an assignment is the index array of
each lower point's nearest upper point, returned with the array of distances
to it. On the torus the query runs on a plain sliding-midpoint KD-tree over
the upper layer padded with its images near the edges; the distances the
tree returns are kept, and only the rows that hit an image or find no upper
point within the padding's bound (those query a periodic tree) are measured
again with the window metric (see :func:`nearest_assign`). All sampling
operations are pure functions of their parameters and a seed; sub-streams for
layers and replications are derived from one master seed through
:func:`layer_rng`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import AssignmentError, ParameterError

__all__ = [
    "BackhaulTech",
    "Window",
    "MarkedBaseStationSet",
    "BackhaulDraw",
    "layer_rng",
    "sample_ppp",
    "sample_backhaul",
    "sample_cluster_bs",
    "nearest_assign",
    "assignment_distances",
]


class BackhaulTech(enum.Enum):
    MW = "mw"  # microwave
    OF = "of"  # optic fiber


@dataclass(frozen=True)
class Window:
    """Rectangular observation window in km, with opposite edges identified.

    Distances are measured on the torus, which removes boundary effects.
    """

    width: float
    height: float

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

    def deltas(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coordinate differences a-b under the window metric.

        This is the minimum-image difference ``d - span * round(d / span)``.
        For points inside the window the shift is one span only when ``|d|``
        is about half a span or more, so the subtraction is exact (Sterbenz)
        and distances match the KD-tree's periodic metric to the last bit.
        """
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        spans = self.spans
        shift = d / spans
        np.round(shift, out=shift)
        shift *= spans
        d -= shift
        return d

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pairwise (broadcast) distance between points under the window metric.

        ``sqrt(dx*dx + dy*dy)``, the operations of ``np.linalg.norm(d, axis=-1)``
        without its copies.
        """
        d = self.deltas(a, b)
        d *= d
        return np.sqrt(np.add.reduce(d, axis=-1))


@dataclass
class MarkedBaseStationSet:
    """Base-station layer: macro cluster centers plus Gaussian-scattered micros.

    ``points`` lists the ``n_macros`` macros first, then the micros;
    ``parent_of[i]`` is the macro index that spawned micro ``i``.
    """

    points: np.ndarray  # (n_macros + n_micros, 2), km
    n_macros: int
    parent_of: np.ndarray  # (n_micros,) int

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class BackhaulDraw:
    """One realization of the mixed-Poisson backhaul layer."""

    nodes: np.ndarray  # (n, 2), km
    realized: BackhaulTech


def layer_rng(master_seed: int, replication: int, layer: int) -> np.random.Generator:
    """Independent stream for (replication, layer) derived from one master seed.

    The scheme is ``SeedSequence(master_seed, spawn_key=(replication, layer))``:
    layers are independent within a replication and replications are
    independent of each other, while the whole simulation is reproducible from
    the single master seed.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(replication, layer)))


def sample_ppp(intensity: float, window: Window, seed) -> np.ndarray:
    """Sample a homogeneous Poisson point process in the window as an (n, 2) array.

    The count is Poisson(intensity * area) and positions are i.i.d. uniform.
    """
    if not 0 <= intensity < math.inf:
        raise ParameterError(f"intensity must be finite and >= 0, got {intensity}")
    rng = np.random.default_rng(seed)
    n = _poisson(rng, intensity * window.area)
    return rng.random((n, 2)) * window.spans


def _poisson(rng: np.random.Generator, mean: float, size=None):
    """Poisson(``mean``) counts; a mean numpy cannot draw (about 9.2e18 and up, or inf) is a ParameterError."""
    try:
        return rng.poisson(mean, size)
    except ValueError:
        raise ParameterError(f"a mean count of {mean} is past what numpy can draw") from None


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
    rng = np.random.default_rng(seed)
    is_mw = rng.random() < p
    nodes = sample_ppp(lambda_mw if is_mw else lambda_of, window, rng)
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
    ``lambda_1c * (1 + lambda_1m)``. Displaced micros wrap back into the
    torus, so every micro is kept.
    """
    if not (0 <= lambda_1c < math.inf and 0 <= lambda_1m < math.inf):
        raise ParameterError("cluster intensities must be finite and >= 0")
    if not 0 < sigma < math.inf:
        raise ParameterError(f"kernel standard deviation must be finite and > 0, got {sigma}")
    rng = np.random.default_rng(seed)
    macros = sample_ppp(lambda_1c, window, rng)
    n_mac = len(macros)
    if n_mac == 0 or lambda_1m == 0:
        return MarkedBaseStationSet(macros, n_mac, np.empty(0, dtype=int))
    offspring_counts = _poisson(rng, lambda_1m, n_mac)
    parents = np.repeat(np.arange(n_mac), offspring_counts)
    displacements = rng.standard_normal((parents.shape[0], 2)) * sigma
    micros = window.wrap_points(macros[parents] + displacements)
    return MarkedBaseStationSet(np.vstack([macros, micros]), n_mac, parents.astype(int))


def _ghost_padded(upper: np.ndarray, spans: np.ndarray, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """The upper points plus their images within ``bound`` outside each edge and corner.

    Returns the padded points and ``owner``, the index in ``upper`` of each.
    Padding along x and then along the padded set's y also copies the corners.
    """
    points, owner = upper, np.arange(len(upper))
    for axis in (0, 1):
        coord = points[:, axis]
        low = np.flatnonzero(coord < bound)
        high = np.flatnonzero(coord >= spans[axis] - bound)
        above = np.take(points, low, axis=0)
        above[:, axis] += spans[axis]
        below = np.take(points, high, axis=0)
        below[:, axis] -= spans[axis]
        points = np.concatenate((points, above, below))
        owner = np.concatenate((owner, np.take(owner, low), np.take(owner, high)))
    return points, owner


def _inside(points: np.ndarray, window: Window) -> bool:
    """Whether every point lies in ``[0, width) x [0, height)``, in a few reductions."""
    return points.size == 0 or bool(
        points.min() >= 0.0 and points[:, 0].max() < window.width and points[:, 1].max() < window.height
    )


def _cell_order(points: np.ndarray, window: Window, n_upper: int) -> np.ndarray:
    """A permutation that visits ``points`` cell by cell, about one upper point per cell.

    Consecutive queries then walk the same tree branches. The int16 keys
    (at most 128 cells a side) make the stable argsort a radix sort.
    """
    per_side = np.clip((window.spans * math.sqrt(n_upper / window.area)).astype(int), 1, 128)
    cell = (points * (per_side / window.spans)).astype(np.int16)
    return np.argsort(cell[:, 1] * np.int16(per_side[0]) + cell[:, 0], kind="stable")


def nearest_assign(lower: np.ndarray, upper: np.ndarray, window: Window) -> tuple[np.ndarray, np.ndarray]:
    """Index of, and distance to, the nearest upper point for every lower point.

    The upper points must lie in the window, and lower points outside it are
    folded in first. The query then runs, cell by cell, on a plain KD-tree
    over the upper points padded with their images within
    ``bound = 2 / sqrt(upper points per km^2)`` (at most half the smaller
    span) outside each edge and corner, limited to ``bound``. The tree splits
    at sliding midpoints (``balanced_tree=False``), which builds in about
    half the time of median splits and queries about as fast. Every image
    within ``bound`` of a point in the window is in the padded set, so a hit
    is the min-image nearest neighbour; the rows with no upper point within
    ``bound`` take an exact query of a periodic KD-tree.

    The original points come first in the padded set, and within ``bound``
    their difference to a lower point is the min-image one; the tree takes
    ``sqrt(dx*dx + dy*dy)`` in the same order as :meth:`Window.distance`, so
    the distance it returns for a hit on one of them is kept as it is. Only
    the rows that hit an image (about 1% of the users at the defaults) or
    took the periodic query are measured again with :meth:`Window.distance`,
    the KD-tree's periodic metric to the last bit. Every distance therefore
    equals :func:`assignment_distances` on the returned index. An exact tie
    goes to whichever equidistant upper point the tree returns, which is
    deterministic for given inputs; the samplers are continuous, so ties
    have probability zero.
    """
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    if len(upper) == 0:
        raise AssignmentError("cannot assign against an empty upper layer")
    if not _inside(upper, window):
        raise ParameterError(
            f"upper layer points must lie in the toroidal window [0, {window.width}) x [0, {window.height})"
        )
    if not _inside(lower, window):
        lower = window.wrap_points(lower)
    bound = min(2.0 / math.sqrt(len(upper) / window.area), 0.5 * min(window.width, window.height))
    padded, owner = _ghost_padded(upper, window.spans, bound)
    order = _cell_order(lower, window, len(upper))
    tree = cKDTree(padded, balanced_tree=False, compact_nodes=False)
    hit_dist, found = tree.query(np.take(lower, order, axis=0), k=1, distance_upper_bound=bound)
    idx, dist = np.empty_like(found), np.empty_like(hit_dist)
    idx[order] = np.take(owner, found, mode="clip")  # a miss, found == len(padded), is replaced below
    dist[order] = hit_dist
    miss = order[found == len(padded)]
    if miss.size:
        _, idx[miss] = cKDTree(upper, boxsize=window.spans).query(np.take(lower, miss, axis=0), k=1)
    # a hit on an original point (they come first) already has the window metric
    redo = order[found >= len(upper)]
    dist[redo] = window.distance(np.take(lower, redo, axis=0), np.take(upper, np.take(idx, redo), axis=0))
    return idx, dist


def assignment_distances(lower: np.ndarray, upper: np.ndarray, assignment: np.ndarray, window: Window) -> np.ndarray:
    """Window-metric distance from each lower point to its assigned upper point."""
    return window.distance(lower, np.take(upper, assignment, axis=0))
