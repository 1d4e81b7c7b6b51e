"""Monte Carlo deployment oracle.

Samples four-layer deployments on a toroidal window, wires the layers
together with nearest-neighbor assignment, prices every link and device at
its actual sampled distance, and compares the empirical per-data-center means
against the closed-form breakdown term by term. Each replication of the
estimator is priced under both backhaul technologies, weighted by p and
1 - p, draws a quarter of the users and prices the backhaul links of a
quarter of the stations (see :func:`_replication_terms`).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .complexity import _whole
from .costs import COST_TERMS, CostBreakdown, Scenario, datacenter_cost
from .errors import AssignmentError, EstimationError
from .geometry import (
    BackhaulDraw,
    BackhaulTech,
    MarkedBaseStationSet,
    Window,
    assignment_distances,  # not called here; perfbench's trace plan wraps it as an attribute of this module
    layer_rng,
    nearest_assign,
    sample_backhaul,
    sample_cluster_bs,
    sample_ppp,
)

__all__ = [
    "DeploymentRealization",
    "CostEstimate",
    "ComparisonReport",
    "simulate_realization",
    "price_layers",
    "estimate_mean_dc_cost",
    "compare_to_closed_form",
    "realization_rows",
]

# layer indices for the seed-derivation scheme; the estimator draws each backhaul technology from its own
# stream, and the stations whose backhaul links it prices from another
_USERS, _BS, _BACKHAUL, _DC, _BACKHAUL_MW, _BACKHAUL_OF, _STATIONS = 0, 1, 2, 3, 4, 5, 6

#: share of the users an oracle replication draws (thinning); the user-linear terms are divided by it
USER_FRACTION = 0.25
_USER_LINEAR = np.isin(
    COST_TERMS, ("processing", "capacity_dc", "capacity_bs_backhaul", "capacity_user_bs", "infra_user_bs")
)
#: share of the stations whose backhaul links an oracle replication prices; the station-linear terms are divided by it
STATION_FRACTION = 0.25
_STATION_LINEAR = np.isin(COST_TERMS, ("capacity_dc", "capacity_bs_backhaul", "infra_bs_backhaul"))

#: largest |z| per term (and overall) that :func:`compare_to_closed_form` passes
Z_THRESHOLD = 3.0


@dataclass
class DeploymentRealization:
    """One sampled deployment with assignments, subtree counts and its cost.

    ``user_to_bs[i]`` is the index of user ``i``'s base station in
    ``base_stations.points``, and likewise one layer up.
    """

    users: np.ndarray
    base_stations: MarkedBaseStationSet
    backhaul: BackhaulDraw
    data_centers: np.ndarray
    user_to_bs: np.ndarray
    bs_to_backhaul: np.ndarray
    backhaul_to_dc: np.ndarray
    users_per_bs: np.ndarray
    users_per_backhaul: np.ndarray
    users_per_dc: np.ndarray
    term_totals: dict[str, float]
    n_dc: int


@dataclass
class CostEstimate:
    """Empirical mean per-data-center cost with a standard error."""

    mean: float
    std_error: float
    n_reps: int
    per_term_means: dict[str, float]
    per_term_std_errors: dict[str, float]
    n_discarded: int = 0

    @property
    def discard_rate(self) -> float:
        return self.n_discarded / (self.n_reps + self.n_discarded)


def simulate_realization(
    scenario: Scenario,
    window: Window,
    seed: int,
    replication: int = 0,
) -> DeploymentRealization:
    """Sample one four-layer deployment and price it link by link.

    This is one full deployment: every user, and the backhaul technology of
    one Bernoulli(p) draw, as ``simulate --dump-realization`` exports it.
    """
    s = scenario
    users = sample_ppp(s.lambda_0, window, layer_rng(seed, replication, _USERS))
    stations = sample_cluster_bs(s.lambda_1c, s.lambda_1m, s.sigma, window, layer_rng(seed, replication, _BS))
    backhaul = sample_backhaul(
        s.p_mw, s.lambda_2_mw, s.lambda_2_of, window, layer_rng(seed, replication, _BACKHAUL)
    )
    centers = sample_ppp(s.lambda_3, window, layer_rng(seed, replication, _DC))
    return price_layers(scenario, window, users, stations, backhaul, centers)


def price_layers(
    scenario: Scenario,
    window: Window,
    users: np.ndarray,
    stations: MarkedBaseStationSet,
    backhaul: BackhaulDraw,
    centers: np.ndarray,
) -> DeploymentRealization:
    """Assign the layers by nearest neighbor and price every device and link.

    The user-link step (:func:`_price_user_links`) and then the
    backhaul-link step (:func:`_price_backhaul_links`) of one deployment.
    """
    user_to_bs, users_per_bs, user_terms = _price_user_links(scenario, window, users, stations)
    (dc_links,) = _assign_to_centers(window, [backhaul.nodes], centers)
    bs_to_backhaul, backhaul_to_dc, users_per_backhaul, users_per_dc, backhaul_terms = _price_backhaul_links(
        scenario, window, stations.points, users_per_bs, backhaul, len(centers), dc_links
    )
    terms = {**user_terms, **backhaul_terms}
    return DeploymentRealization(
        users=users,
        base_stations=stations,
        backhaul=backhaul,
        data_centers=centers,
        user_to_bs=user_to_bs,
        bs_to_backhaul=bs_to_backhaul,
        backhaul_to_dc=backhaul_to_dc,
        users_per_bs=users_per_bs,
        users_per_backhaul=users_per_backhaul,
        users_per_dc=users_per_dc,
        term_totals={name: terms[name] for name in COST_TERMS},
        n_dc=len(centers),
    )


def _price_user_links(
    scenario: Scenario,
    window: Window,
    users: np.ndarray,
    stations: MarkedBaseStationSet,
) -> tuple[np.ndarray, np.ndarray, dict[str, float]]:
    """Assign users to stations; price the stations and the links to them.

    Each user is priced at the min-image distance to its nearest station and
    pays the processing base. The cluster equipment cost (one macro plus its
    expected micros) is charged once per macro. Returns ``user_to_bs``,
    ``users_per_bs`` and the four terms that no backhaul node enters.
    """
    s = scenario
    n_bs = len(stations)
    if n_bs == 0:
        raise AssignmentError("under-provisioned realization: 0 base stations")
    user_to_bs, d_user = nearest_assign(users, stations.points, window)
    users_per_bs = np.bincount(user_to_bs, minlength=n_bs)
    terms = {
        "processing": float(len(users)) * s.links.processing_base,
        "equipment_bs": stations.n_macros * s.cluster_cost,
        "capacity_user_bs": float(np.sum(s.links.user_bs.a * d_user**s.links.user_bs.beta)),
        "infra_user_bs": float(np.sum(s.links.user_bs.b * d_user**s.links.user_bs.theta)),
    }
    return user_to_bs, users_per_bs, terms


def _assign_to_centers(
    window: Window, layers: list[np.ndarray], centers: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each backhaul layer's (``backhaul_to_dc``, distance) pair, from one query of their concatenation.

    A query point's nearest data center does not depend on the other query
    points, so each pair is the one a query of its layer alone gives, bit for
    bit, for one tree build and one set of per-query steps. No data center,
    or a layer with no node, is an :class:`AssignmentError`: the realization
    is under-provisioned.
    """
    counts = [len(nodes) for nodes in layers]
    if len(centers) == 0 or 0 in counts:
        raise AssignmentError(
            f"under-provisioned realization: {', '.join(map(str, counts))} backhaul nodes, {len(centers)} data centers"
        )
    index, dist = nearest_assign(np.concatenate(layers), centers, window)
    cuts = [0, *accumulate(counts)]
    return [(index[a:b], dist[a:b]) for a, b in zip(cuts, cuts[1:])]


def _price_backhaul_links(
    scenario: Scenario,
    window: Window,
    station_points: np.ndarray,
    users_per_bs: np.ndarray,
    backhaul: BackhaulDraw,
    n_dc: int,
    dc_links: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict[str, float]]:
    """Assign stations to backhaul nodes; price those links and the links to the ``n_dc`` data centers.

    ``dc_links`` is the layer's (``backhaul_to_dc``, distance) pair from
    :func:`_assign_to_centers`. Every backhaul node in a data center's cell
    contributes the backhaul equipment constant, its subtree's capacity
    demand priced over the actual backhaul-to-data-center distance, and the
    infrastructure of that link; each station in ``station_points``
    contributes its link toward its backhaul node, its capacity weighted by
    its ``users_per_bs``; the stations may be a subset, and then only their
    users reach the backhaul nodes. Links take the cost parameters of
    ``backhaul.realized``. Returns ``bs_to_backhaul``, ``backhaul_to_dc``,
    the users under each backhaul node and data center, and the five terms
    that the backhaul layer enters.
    """
    s = scenario
    n_backhaul = len(backhaul.nodes)
    backhaul_to_dc, d_bh_dc = dc_links
    bs_to_backhaul, d_bs_bh = nearest_assign(station_points, backhaul.nodes, window)
    users_per_backhaul = np.bincount(bs_to_backhaul, weights=users_per_bs, minlength=n_backhaul)
    users_per_dc = np.bincount(backhaul_to_dc, weights=users_per_backhaul, minlength=n_dc)

    tech = backhaul.realized
    link_bs_bh = s.links.bs_backhaul_mw if tech is BackhaulTech.MW else s.links.bs_backhaul_of
    link_bh_dc = s.links.backhaul_dc_mw if tech is BackhaulTech.MW else s.links.backhaul_dc_of
    terms = {
        "equipment_backhaul": n_backhaul * s.c2,
        "capacity_dc": float(np.sum(users_per_backhaul * link_bh_dc.a * d_bh_dc**link_bh_dc.beta)),
        "infra_dc": float(np.sum(link_bh_dc.b * d_bh_dc**link_bh_dc.theta)),
        "capacity_bs_backhaul": float(np.sum(users_per_bs * link_bs_bh.a * d_bs_bh**link_bs_bh.beta)),
        "infra_bs_backhaul": float(np.sum(link_bs_bh.b * d_bs_bh**link_bs_bh.theta)),
    }
    return bs_to_backhaul, backhaul_to_dc, users_per_backhaul, users_per_dc, terms


def _replication_terms(args) -> np.ndarray | None:
    """Worker: one replication's per-term totals, conditioned on the backhaul draw; None if discarded.

    Users, stations and data centers are drawn once; users at
    ``USER_FRACTION * lambda_0``, so the user-linear terms are divided by
    ``USER_FRACTION`` (every term is linear in the user indicators, so the
    thinned total stays unbiased). The replication is then priced under both
    backhaul technologies, each with its own layer and stream, and the two
    totals are weighted by p and 1 - p: the exact conditional expectation
    over the Bernoulli draw of :func:`sample_backhaul`, which removes its
    variance from the five backhaul terms. A technology of weight 0 is not
    sampled. Both layers' nodes are assigned to the data centers in one
    query (:func:`_assign_to_centers`).

    Both technologies price the backhaul links of the same Bernoulli
    sample of the stations, each kept with probability ``STATION_FRACTION``
    and weighted by its inverse (Horvitz-Thompson): ``capacity_dc``,
    ``capacity_bs_backhaul`` and ``infra_bs_backhaul`` are sums over the
    stations, so dividing them by the fraction keeps them unbiased. The
    other six terms do not see the sample. An empty sample prices those
    three terms at 0 and is kept (discarding it would bias them upward);
    the replication is discarded only if a layer it prices is empty.
    """
    s, window, seed, rep = args
    users = sample_ppp(USER_FRACTION * s.lambda_0, window, layer_rng(seed, rep, _USERS))
    stations = sample_cluster_bs(s.lambda_1c, s.lambda_1m, s.sigma, window, layer_rng(seed, rep, _BS))
    centers = sample_ppp(s.lambda_3, window, layer_rng(seed, rep, _DC))
    try:
        _, users_per_bs, user_terms = _price_user_links(s, window, users, stations)
        kept = layer_rng(seed, rep, _STATIONS).random(len(stations)) < STATION_FRACTION
        kept_points, kept_users = stations.points[kept], users_per_bs[kept]
        totals = np.array([user_terms.get(name, 0.0) for name in COST_TERMS])
        draws = [
            (BackhaulDraw(sample_ppp(intensity, window, layer_rng(seed, rep, layer)), tech), weight)
            for tech, weight, intensity, layer in (
                (BackhaulTech.MW, s.p_mw, s.lambda_2_mw, _BACKHAUL_MW),
                (BackhaulTech.OF, 1.0 - s.p_mw, s.lambda_2_of, _BACKHAUL_OF),
            )
            if weight != 0.0
        ]
        dc_links = _assign_to_centers(window, [draw.nodes for draw, _ in draws], centers)
        for (draw, weight), links in zip(draws, dc_links):
            *_, terms = _price_backhaul_links(s, window, kept_points, kept_users, draw, len(centers), links)
            totals += weight * np.array([terms.get(name, 0.0) for name in COST_TERMS])
    except AssignmentError:
        return None
    totals[_USER_LINEAR] /= USER_FRACTION
    totals[_STATION_LINEAR] /= STATION_FRACTION
    return totals


def estimate_mean_dc_cost(
    scenario: Scenario,
    window: Window,
    n_reps: int,
    seed: int,
    threads: int = 1,
) -> CostEstimate:
    """Empirical mean cost per data center over independent replications.

    Each replication contributes its per-term totals divided by the expected
    data-center count lambda_3 * area, an unbiased estimator of the
    per-data-center expectation (dividing by the realized count would carry
    an upward 1/E[count] bias from Jensen's inequality). The estimate is the
    plain mean and standard error over the replications, so ``n_reps >= 2``
    suffices. Under-provisioned realizations (an empty layer) are discarded
    and counted; fewer than 2 kept is an :class:`EstimationError`. A seed
    that is not an integer >= 0, ``n_reps`` not an integer >= 2 or
    ``threads`` not an integer >= 1 is a :class:`ParameterError`. At most
    ``n_reps`` worker processes are started. Deterministic given the seed,
    independent of thread count.

    A replication's totals are already its expectation over the backhaul
    technology (see :func:`_replication_terms`), its users are thinned to
    ``USER_FRACTION``, and the backhaul links of ``STATION_FRACTION`` of its
    stations are priced, so ``capacity_dc``, ``capacity_bs_backhaul`` and
    ``infra_bs_backhaul`` are divided by that fraction. Relative standard
    errors at 400 replications of the default scenario on a 10 km torus
    (seed 7), with every station priced in brackets where sampling moves
    them::

        equipment_backhaul    0.162%
        processing            0.076%
        capacity_dc           0.331%  (0.256%)
        infra_dc              0.336%
        equipment_bs          0.156%
        capacity_bs_backhaul  0.280%  (0.179%)
        infra_bs_backhaul     0.273%  (0.244%)
        capacity_user_bs      0.455%
        infra_user_bs         0.211%

    ``capacity_user_bs`` still sets the replications needed for 1%. One
    Bernoulli draw of the technology per replication left the five backhaul
    terms at 2.4-7.3%. A replication takes about 6.2 ms, against 9.6 ms
    with every station priced (medians of 20 interleaved passes of 40
    replications, 2-core VM, one process).

    Users are priced at their distance from a uniform location to the
    nearest station, the contact distance, whose moments the closed form
    takes.
    """
    n_reps, seed = _whole("n_reps", n_reps, 2), _whole("seed", seed, 0)
    workers = min(_whole("threads", threads, 1), n_reps)
    jobs = [(scenario, window, seed, rep) for rep in range(n_reps)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replication_terms, jobs, chunksize=max(1, n_reps // (4 * workers))))
    else:
        results = [_replication_terms(job) for job in jobs]

    n_expected_dc = scenario.lambda_3 * window.area
    kept = [totals / n_expected_dc for totals in results if totals is not None]
    n_kept = len(kept)
    if n_kept < 2:
        raise EstimationError(f"{n_kept} of {n_reps} replications kept, fewer than 2; the window is under-provisioned")
    per_rep = np.vstack(kept)  # (n_kept, n_terms), in replication order

    term_means = {name: math.fsum(per_rep[:, j]) / n_kept for j, name in enumerate(COST_TERMS)}
    term_ses = {name: float(np.std(per_rep[:, j], ddof=1) / math.sqrt(n_kept)) for j, name in enumerate(COST_TERMS)}
    rep_totals = per_rep.sum(axis=1)
    return CostEstimate(
        mean=math.fsum(rep_totals) / n_kept,
        std_error=float(np.std(rep_totals, ddof=1) / math.sqrt(n_kept)),
        n_reps=n_kept,
        per_term_means=term_means,
        per_term_std_errors=term_ses,
        n_discarded=n_reps - n_kept,
    )


@dataclass
class ComparisonReport:
    """Per-term z-scores of the empirical means against the closed form."""

    closed_form: CostBreakdown
    estimate: CostEstimate
    z_scores: dict[str, float]
    overall_z: float
    threshold: float
    window_note: str

    @property
    def passed(self) -> bool:
        return all(abs(z) <= self.threshold for z in self.z_scores.values()) and abs(
            self.overall_z
        ) <= self.threshold

    def rows(self) -> list[dict]:
        """One row per term and one for ``c_phi3``.

        ``reps_to_1pct`` is the replication count at which the measured
        variance gives a standard error of 1% of the closed form; None where
        the closed form is 0.
        """
        closed, est = self.closed_form.as_dict(), self.estimate
        cells = [
            (name, closed[name], est.per_term_means[name], est.per_term_std_errors[name], self.z_scores[name])
            for name in COST_TERMS
        ]
        cells.append(("c_phi3", self.closed_form.c_phi3, est.mean, est.std_error, self.overall_z))
        return [
            {
                "term": name,
                "closed_form": closed_form,
                "empirical": empirical,
                "std_error": se,
                "z": z,
                "pass": abs(z) <= self.threshold,
                "reps_to_1pct": (
                    None if closed_form == 0.0 else math.ceil(est.n_reps * (se / (0.01 * closed_form)) ** 2)
                ),
            }
            for name, closed_form, empirical, se, z in cells
        ]


def _z(empirical: float, closed: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if empirical == closed else math.inf
    return (empirical - closed) / se


def compare_to_closed_form(
    scenario: Scenario,
    window: Window,
    n_reps: int,
    seed: int,
    threads: int = 1,
) -> ComparisonReport:
    """Run the oracle and score each breakdown term against the closed form.

    A term passes when its z-score is within :data:`Z_THRESHOLD` standard
    errors.
    """
    closed = datacenter_cost(scenario)
    est = estimate_mean_dc_cost(scenario, window, n_reps, seed, threads=threads)
    z_scores = {
        name: _z(est.per_term_means[name], closed.as_dict()[name], est.per_term_std_errors[name])
        for name in COST_TERMS
    }
    overall = _z(est.mean, closed.c_phi3, est.std_error)
    note = (
        f"window {window.width:g}x{window.height:g} km (toroidal); stationarity implies per-data-center "
        "means are window-size invariant, so rerunning at a larger window should move every "
        f"term by less than its standard error; discard rate {est.discard_rate:.2%}"
    )
    return ComparisonReport(
        closed_form=closed,
        estimate=est,
        z_scores=z_scores,
        overall_z=overall,
        threshold=Z_THRESHOLD,
        window_note=note,
    )


def realization_rows(real: DeploymentRealization) -> list[tuple]:
    """Flatten a realization for CSV export.

    One row per node: (layer, x, y, parent_index, subtree_count). Parents are
    indices into the next layer up; users carry a subtree count of 1, data
    centers a parent of -1.
    """
    rows = []
    for i, (x, y) in enumerate(real.users):
        rows.append(("users", x, y, int(real.user_to_bs[i]), 1))
    for i, (x, y) in enumerate(real.base_stations.points):
        rows.append(("base_stations", x, y, int(real.bs_to_backhaul[i]), int(real.users_per_bs[i])))
    for i, (x, y) in enumerate(real.backhaul.nodes):
        rows.append(("backhaul", x, y, int(real.backhaul_to_dc[i]), int(real.users_per_backhaul[i])))
    for i, (x, y) in enumerate(real.data_centers):
        rows.append(("data_centers", x, y, -1, int(real.users_per_dc[i])))
    return rows
