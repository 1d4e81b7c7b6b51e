"""Tests for contact moments, void probability, J-function and distance moments.

Independent oracles: polar-grid Riemann sums for the Gaussian-disc mass and
the J-function integral (no Marcum-Q/noncentral-chi2, no adaptive
quadrature), and Monte Carlo sampling of the cluster process for the void
probability, the nearest-neighbor CDF and the distance moments.
"""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from crancost.errors import ParameterError, QuadratureError
from crancost.geometry import Window, layer_rng, sample_cluster_bs
from crancost.spatial_stats import (
    ClusterParams,
    cluster_nn_moment,
    gaussian_disc_mass,
    j_function,
    nn_distance_cdf,
    ppp_contact_moment,
    void_probability,
)


def riemann_disc_mass(center_dist, sigma, radius, n_r=400, n_phi=400):
    """Polar-grid Riemann sum of the Gaussian density over the disc."""
    r = (np.arange(n_r) + 0.5) * (radius / n_r)
    phi = (np.arange(n_phi) + 0.5) * (2 * np.pi / n_phi)
    rr, pp = np.meshgrid(r, phi, indexing="ij")
    xx = rr * np.cos(pp) - center_dist
    yy = rr * np.sin(pp)
    density = np.exp(-(xx**2 + yy**2) / (2 * sigma**2)) / (2 * np.pi * sigma**2)
    return float(np.sum(density * rr) * (radius / n_r) * (2 * np.pi / n_phi))


class TestPppContactMoment:
    def test_zeroth_moment_is_one(self):
        assert ppp_contact_moment(0.0, 3.7) == 1.0

    def test_second_moment_at_unit_intensity(self):
        assert ppp_contact_moment(2.0, 1.0) == pytest.approx(0.318310, abs=1e-6)

    def test_first_moment_with_unit_denominator(self):
        # pi * lambda = 1 cancels the denominator, leaving Gamma(1.5)
        assert ppp_contact_moment(1.0, 1.0 / math.pi) == pytest.approx(0.886227, abs=1e-6)

    def test_against_monte_carlo_nearest_distance(self):
        rng = np.random.default_rng(21)
        w = Window(8.0, 8.0)
        lam = 4.0
        samples = []
        for _ in range(300):
            n = rng.poisson(lam * w.area)
            pts = rng.uniform(0, 8.0, (n, 2))
            tree = cKDTree(pts, boxsize=w.spans)
            d, _ = tree.query(rng.uniform(0, 8.0, (50, 2)), k=1)
            samples.append(d**2)
        samples = np.concatenate(samples)
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        assert np.mean(samples) == pytest.approx(ppp_contact_moment(2.0, lam), abs=3 * se)

    def test_invalid_arguments(self):
        with pytest.raises(ParameterError):
            ppp_contact_moment(2.0, 0.0)
        with pytest.raises(ParameterError):
            ppp_contact_moment(-1.0, 1.0)


class TestGaussianDiscMass:
    def test_empty_disc(self):
        assert gaussian_disc_mass(2.0, 1.0, 0.0) == 0.0

    def test_centered_gaussian_is_rayleigh_cdf(self):
        assert gaussian_disc_mass(0.0, 1.0, 1.0) == pytest.approx(0.393469, abs=1e-6)

    def test_far_displacement_limit(self):
        assert gaussian_disc_mass(100.0, 1.0, 1.0) < 1e-12

    @pytest.mark.parametrize(
        "center_dist,sigma,radius",
        [(0.5, 1.0, 1.0), (2.0, 0.7, 0.5), (0.0, 0.3, 0.9), (1.5, 1.5, 2.0)],
    )
    def test_matches_polar_riemann_oracle(self, center_dist, sigma, radius):
        oracle = riemann_disc_mass(center_dist, sigma, radius)
        assert gaussian_disc_mass(center_dist, sigma, radius) == pytest.approx(oracle, abs=5e-6)

    @given(
        d1=st.floats(0, 5),
        d2=st.floats(0, 5),
        r1=st.floats(0, 5),
        r2=st.floats(0, 5),
        sigma=st.floats(0.1, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotonicity_and_bounds(self, d1, d2, r1, r2, sigma):
        m = gaussian_disc_mass(d1, sigma, r1)
        assert 0.0 <= m <= 1.0
        if r2 >= r1:
            assert gaussian_disc_mass(d1, sigma, r2) >= m - 1e-12
        if d2 >= d1:
            assert gaussian_disc_mass(d2, sigma, r1) <= m + 1e-12

    def test_array_radius_broadcasts_like_elementwise_calls(self):
        dist = np.array([0.0, 0.3, 1.2, 4.0])
        radii = np.array([[0.0], [0.5], [2.0]])
        got = gaussian_disc_mass(dist, 0.8, radii)
        assert got.shape == (3, 4)
        want = [[gaussian_disc_mass(d, 0.8, r) for d in dist] for r in radii[:, 0]]
        np.testing.assert_array_equal(got, want)

    def test_negative_radius_in_array_rejected(self):
        with pytest.raises(ParameterError):
            gaussian_disc_mass(1.0, 1.0, np.array([0.5, -0.1]))


PAPERLIKE = ClusterParams(10.0, 4.0, math.sqrt(0.5))


class TestVoidProbability:
    def test_zero_radius(self):
        assert void_probability(0.0, PAPERLIKE) == 1.0

    def test_ppp_reduction(self):
        got = void_probability(1.0, ClusterParams(1.0, 0.0, 1.0))
        assert got == pytest.approx(math.exp(-math.pi), abs=1e-4)

    def test_against_empirical_void_frequency(self):
        params = ClusterParams(1.0, 4.0, 0.707)
        w = Window(10.0, 10.0)
        center = np.array([5.0, 5.0])
        n = 10_000
        hits = 0
        for i in range(n):
            bs = sample_cluster_bs(params.lambda_1c, params.lambda_1m, params.sigma, w, layer_rng(123, i, 1))
            pts = bs.points
            if len(pts) == 0 or np.min(w.distance(pts, center)) > 0.5:
                hits += 1
        assert hits / n == pytest.approx(void_probability(0.5, params), abs=0.005)

    def test_monotone_in_radius_and_intensities(self):
        radii = [0.05, 0.1, 0.2, 0.4, 0.8]
        vals = [void_probability(r, PAPERLIKE) for r in radii]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        for field, grid in (("lambda_1c", [1.0, 5.0, 20.0]), ("lambda_1m", [0.0, 2.0, 8.0])):
            vs = [
                void_probability(
                    0.3,
                    ClusterParams(
                        grid_v if field == "lambda_1c" else 10.0,
                        grid_v if field == "lambda_1m" else 4.0,
                        0.5,
                    ),
                )
                for grid_v in grid
            ]
            assert all(b <= a + 1e-12 for a, b in zip(vs, vs[1:]))


def riemann_j_member_term(params, r, half_extent=8.0, n=1200):
    """Brute-force 2D Riemann sum of Int f(x) exp(-lam_m * m(|x|, r)) dx."""
    sigma, lam_m = params.sigma, params.lambda_1m
    ax = np.linspace(-half_extent, half_extent, n, endpoint=False) + half_extent / n
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    s = np.hypot(xx, yy)
    f = np.exp(-(s**2) / (2 * sigma**2)) / (2 * np.pi * sigma**2)
    mass = gaussian_disc_mass(s.ravel(), sigma, r).reshape(s.shape)
    cell = (2 * half_extent / n) ** 2
    return float(np.sum(f * np.exp(-lam_m * mass)) * cell)


class TestJFunction:
    def test_at_zero_radius(self):
        assert j_function(0.0, PAPERLIKE) == 1.0

    def test_ppp_case_is_identically_one(self):
        params = ClusterParams(3.0, 0.0, 0.5)
        for r in (0.0, 0.3, 1.0, 2.5):
            assert j_function(r, params) == 1.0

    def test_against_grid_riemann_oracle(self):
        params = ClusterParams(1.0, 1.0, 1.0)
        member = riemann_j_member_term(params, 1.0)
        expected = 0.5 + 0.5 * member
        got = j_function(1.0, params)
        assert 0.0 < got <= 1.0
        assert got == pytest.approx(expected, abs=1e-4)

    def test_bounded_by_one_for_cluster_process(self):
        for r in (0.05, 0.2, 0.5, 1.0):
            assert 0.0 < j_function(r, PAPERLIKE) <= 1.0 + 1e-12

    @pytest.mark.parametrize("r", [2.2, 2.75, 3.5, 5.0])
    def test_far_radius_reaches_the_whole_cluster_limit(self, r):
        # r >> sigma: a ball around a member swallows its whole cluster, so the
        # member term is exp(-lambda_1m); the inner grid must not stretch with r
        params = ClusterParams(50.0, 1.0, 0.1)
        lam_m = params.lambda_1m
        limit = 1.0 / (1.0 + lam_m) + lam_m * math.exp(-lam_m) / (1.0 + lam_m)
        assert j_function(r, params) == pytest.approx(limit, abs=1e-9)


def empirical_nn_cdf_grid(params, window_side, n_rep, seed, quantiles):
    """Nearest-neighbor distances from every point of sampled realizations."""
    w = Window(window_side, window_side)
    ds = []
    for i in range(n_rep):
        bs = sample_cluster_bs(params.lambda_1c, params.lambda_1m, params.sigma, w, layer_rng(seed, i, 1))
        pts = bs.points
        if len(pts) < 2:
            continue
        tree = cKDTree(pts, boxsize=w.spans)
        d, _ = tree.query(pts, k=2)
        ds.append(d[:, 1])
    d = np.sort(np.concatenate(ds))
    grid = np.quantile(d, quantiles)
    emp = np.searchsorted(d, grid, side="right") / len(d)
    return grid, emp


class TestNnDistanceCdf:
    def test_zero_at_origin(self):
        assert nn_distance_cdf(0.0, PAPERLIKE) == 0.0

    def test_ppp_reduction_spot_value(self):
        params = ClusterParams(1.0, 0.0, 0.5)
        assert nn_distance_cdf(1.0, params) == pytest.approx(0.956786, abs=1e-4)

    def test_nondecreasing_and_bounded(self):
        rs = np.linspace(0, 0.6, 25)
        vals = [nn_distance_cdf(r, PAPERLIKE) for r in rs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_matches_empirical_cdf_for_overlapping_clusters(self):
        grid, emp = empirical_nn_cdf_grid(PAPERLIKE, 5.0, 2000, 99, np.linspace(0.01, 0.99, 50))
        theo = np.array([nn_distance_cdf(r, PAPERLIKE) for r in grid])
        assert np.max(np.abs(emp - theo)) < 0.02

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the mixture J-function treats macro and micro layers as independent; "
            "for strongly clustered parameters (2, 3, 0.5) the dependence between "
            "parents and their own offspring biases the closed form by KS ~ 0.04"
        ),
    )
    def test_strongly_clustered_parameters_within_tight_ks(self):
        params = ClusterParams(2.0, 3.0, 0.5)
        grid, emp = empirical_nn_cdf_grid(params, 8.0, 2000, 77, np.linspace(0.01, 0.99, 50))
        theo = np.array([nn_distance_cdf(r, params) for r in grid])
        assert np.max(np.abs(emp - theo)) < 0.02


class TestClusterNnMoment:
    def test_zeroth_moment(self):
        assert cluster_nn_moment(0.0, PAPERLIKE) == 1.0

    def test_degenerate_matches_ppp_contact_moment(self):
        params = ClusterParams(1.0, 0.0, 0.5)
        got = cluster_nn_moment(2.0, params)
        assert got == pytest.approx(0.318310, rel=1e-3)

    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("lam", [1.0, 10.0, 50.0])
    def test_degenerate_grid(self, beta, lam):
        params = ClusterParams(lam, 0.0, 0.5)
        for distance in ("palm", "contact"):
            got = cluster_nn_moment(beta, params, distance=distance)
            assert got == pytest.approx(ppp_contact_moment(beta, lam), rel=1e-3)

    def test_contact_moment_matches_simulated_user_distances(self):
        """Squared distance from random locations to the nearest station.

        Probe points within one realization share the station pattern, so the
        standard error comes from the between-realization spread.
        """
        w = Window(6.0, 6.0)
        rng = np.random.default_rng(31)
        rep_means = []
        for i in range(600):
            bs = sample_cluster_bs(
                PAPERLIKE.lambda_1c, PAPERLIKE.lambda_1m, PAPERLIKE.sigma, w, layer_rng(17, i, 1)
            )
            pts = bs.points
            if len(pts) == 0:
                continue
            tree = cKDTree(pts, boxsize=w.spans)
            d, _ = tree.query(rng.uniform(0, 6.0, (200, 2)), k=1)
            rep_means.append(np.mean(d**2))
        rep_means = np.asarray(rep_means)
        se = rep_means.std(ddof=1) / math.sqrt(len(rep_means))
        theo = cluster_nn_moment(2.0, PAPERLIKE, distance="contact")
        assert np.mean(rep_means) == pytest.approx(theo, abs=3 * se)

    def test_palm_moment_matches_simulated_station_distances(self):
        """Squared nearest-station distance from the stations themselves.

        Valid where clusters overlap heavily (the mixture J-function's
        independence assumption holds to within Monte Carlo resolution).
        """
        w = Window(6.0, 6.0)
        samples = []
        for i in range(200):
            bs = sample_cluster_bs(
                PAPERLIKE.lambda_1c, PAPERLIKE.lambda_1m, PAPERLIKE.sigma, w, layer_rng(19, i, 1)
            )
            pts = bs.points
            if len(pts) < 2:
                continue
            tree = cKDTree(pts, boxsize=w.spans)
            d, _ = tree.query(pts, k=2)
            samples.append(d[:, 1] ** 2)
        samples = np.concatenate(samples)
        # realized points are correlated within a realization; use the
        # between-realization spread of per-realization means for the SE
        per_rep = np.array([s.mean() for s in np.array_split(samples, 200)])
        se = per_rep.std(ddof=1) / math.sqrt(len(per_rep))
        theo = cluster_nn_moment(2.0, PAPERLIKE, distance="palm")
        assert np.mean(samples) == pytest.approx(theo, abs=3 * se + 0.01 * theo)

    def test_moments_finite_up_to_exponent_four(self):
        for beta in (1.0, 2.0, 3.0, 4.0):
            for distance in ("palm", "contact"):
                val = cluster_nn_moment(beta, PAPERLIKE, distance=distance)
                assert math.isfinite(val) and val > 0

    def test_unknown_distance_flag_rejected(self):
        with pytest.raises(ParameterError):
            cluster_nn_moment(2.0, PAPERLIKE, distance="nearest")

    @pytest.mark.xfail(
        strict=True,
        raises=QuadratureError,
        reason=(
            "at sigma*sqrt(lambda_1c) >= 100 the radius grid spans 10*sigma, so the "
            "survival's whole range (r <= r_cut) falls inside the first coarse panel "
            "and the coarse and fine grids disagree past the tolerance"
        ),
    )
    @pytest.mark.parametrize(
        "params,exponent",
        [
            ((100.0, 4.0, 10.0), 0.25),
            ((100.0, 4.0, 10.0), 1.0),
            ((100.0, 4.0, 10.0), 2.0),
            ((1000.0, 4.0, 5.0), 0.25),
            ((1000.0, 4.0, 5.0), 1.0),
            ((1000.0, 4.0, 5.0), 2.0),
            ((10000.0, 2.0, 1.0), 0.25),
            ((10000.0, 2.0, 1.0), 1.0),
        ],
    )
    def test_moments_converge_at_widely_spread_dense_clusters(self, params, exponent):
        for distance in ("palm", "contact"):
            assert math.isfinite(cluster_nn_moment(exponent, ClusterParams(*params), distance=distance))


def test_non_convergence_carries_the_achieved_error(monkeypatch):
    from crancost import spatial_stats
    from crancost.errors import QuadratureError

    # the coarse/fine gap of the first moment at PAPERLIKE is about 3e-11,
    # above the 1e-13 floor these tolerances leave
    starved = replace(spatial_stats.DEFAULT_QUAD, abs_tol=1e-16, rel_tol=1e-16)
    monkeypatch.setattr(spatial_stats, "DEFAULT_QUAD", starved)
    with pytest.raises(QuadratureError) as exc:
        cluster_nn_moment(1.0, PAPERLIKE)
    assert exc.value.achieved_error is not None and exc.value.achieved_error > 0


# values of the nested adaptive quadrature this package used before the fixed
# grids, at its default tolerances; the exponents below 1 have an integrable
# singularity at r = 0
PINNED_EXPONENTS = (0.25, 0.5, 1.0, 1.5, 2.0, 4.0)
ADAPTIVE_MOMENTS = {
    ((10.0, 4.0, math.sqrt(0.5)), "contact"): (
        0.5012349375891005, 0.25684965767556883, 0.07125594578853665,
        0.0209943509809277, 0.006498366545072068, 8.624417860697018e-05,
    ),
    ((10.0, 4.0, math.sqrt(0.5)), "palm"): (
        0.500589387915635, 0.2561872096447008, 0.07088744908052955,
        0.02083107708538154, 0.0064308098269477585, 8.443252547994961e-05,
    ),
    ((2.0, 3.0, 0.5), "contact"): (
        0.6384588857997977, 0.41796534428378457, 0.19092657359972526,
        0.09372334722722689, 0.048900556072020006, 0.00585267866705693,
    ),
    ((2.0, 3.0, 0.5), "palm"): (
        0.6306271516209272, 0.40762655083395233, 0.1813393523915164,
        0.08657432528746807, 0.043876276155882236, 0.004631956210555668,
    ),
    ((50.0, 1.0, 0.1), "contact"): (
        0.46441947812263557, 0.22096670709108973, 0.053165426505400536,
        0.013687446446639683, 0.0037275008568447825, 3.136168569891252e-05,
    ),
    ((50.0, 1.0, 0.1), "palm"): (
        0.4619730092325465, 0.21863184792124918, 0.0520375173246047,
        0.013251301754991791, 0.0035693036463199388, 2.8763574370080664e-05,
    ),
    ((0.5, 10.0, 0.2), "contact"): (
        0.7754886940966644, 0.6283233894266911, 0.45675585626537957,
        0.3673620647050015, 0.31808653258608505, 0.2883499736077756,
    ),
    ((0.5, 10.0, 0.2), "palm"): (
        0.5830171230169451, 0.3548824421324032, 0.15030411709318917,
        0.0769764272411765, 0.047835384867342526, 0.027482193941118747,
    ),
}
ADAPTIVE_VOID_AND_J = {
    0.05: (0.6762875945469786, 0.99601577692022),
    0.2: (0.0027024316848898162, 0.9398330564648869),
    1.0: (2.616848537154099e-35, 0.40789420709968816),
}


@pytest.mark.parametrize("key", list(ADAPTIVE_MOMENTS), ids=lambda k: f"{k[0][:2]}-{k[1]}")
def test_moments_match_pinned_adaptive_values(key):
    params, distance = key
    for exponent, want in zip(PINNED_EXPONENTS, ADAPTIVE_MOMENTS[key], strict=True):
        got = cluster_nn_moment(exponent, ClusterParams(*params), distance=distance)
        assert got == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("r", list(ADAPTIVE_VOID_AND_J))
def test_void_and_j_match_pinned_adaptive_values(r):
    void, j = ADAPTIVE_VOID_AND_J[r]
    assert void_probability(r, PAPERLIKE) == pytest.approx(void, rel=1e-8)
    assert j_function(r, PAPERLIKE) == pytest.approx(j, rel=1e-8)


def test_one_cost_evaluation_builds_one_survival_curve(monkeypatch):
    """Both user-link moments of a cost evaluation share one survival curve."""
    from crancost import spatial_stats
    from crancost.config import default_scenario
    from crancost.costs import datacenter_cost

    calls = []
    original = spatial_stats.gaussian_disc_mass

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(spatial_stats, "gaussian_disc_mass", counting)
    # a user intensity no other test uses, so the curve is not memoized yet
    scenario = default_scenario(lambda_0=163.25)
    datacenter_cost(scenario)
    assert 0 < len(calls) <= 4


def test_cost_with_fractional_user_link_exponents_converges():
    """Exponents below 1, which the configuration accepts, give finite user-link terms."""
    from crancost.config import default_scenario
    from crancost.costs import LinkCost, datacenter_cost

    scenario = default_scenario()
    links = replace(scenario.links, user_bs=LinkCost(a=5000.0, beta=0.5, b=10000.0, theta=0.25))
    scenario = replace(scenario, links=links)
    cost = datacenter_cost(scenario)
    moment = partial(cluster_nn_moment, params=scenario.cluster_params, distance=scenario.user_bs_distance)
    assert cost.capacity_user_bs / cost.infra_user_bs == pytest.approx(
        5000.0 * moment(0.5) / (10000.0 * moment(0.25)), rel=1e-12
    )


# cluster sets for the survival-curve cutoff: the default, three sets from
# sparse to tight clustering, and three with large sigma * sqrt(lambda_1c),
# where the cutoff radius falls inside the first outer panel
CUTOFF_SETS = [
    None,
    (50.0, 1.0, 0.1),
    (0.5, 50.0, 0.3),
    (10.0, 4.0, 0.01),
    (100.0, 4.0, 10.0),
    (1000.0, 4.0, 5.0),
    (10000.0, 2.0, 1.0),
]


def _moment_or_error(exponent, params, distance):
    from crancost.errors import QuadratureError

    try:
        return cluster_nn_moment(exponent, params, distance=distance)
    except QuadratureError:
        return QuadratureError


@pytest.fixture
def cold_survival_curve():
    """The survival-curve memo is empty before and after the test."""
    from crancost import spatial_stats

    spatial_stats._survival_curve.cache_clear()
    yield spatial_stats
    spatial_stats._survival_curve.cache_clear()


@pytest.mark.parametrize("params", CUTOFF_SETS)
@pytest.mark.parametrize("distance", ["contact", "palm"])
def test_survival_cutoff_leaves_every_moment_bit_identical(monkeypatch, cold_survival_curve, params, distance):
    """Cutting the radius grid where its tails are 0 changes no bit, nor which sets raise."""
    from crancost.config import default_scenario

    params = default_scenario().cluster_params if params is None else ClusterParams(*params)
    exponents = (0.5, 2.0, 4.0)
    cut = [_moment_or_error(e, params, distance) for e in exponents]
    monkeypatch.setattr(cold_survival_curve, "_VOID_CUTOFF", math.inf)
    monkeypatch.setattr(cold_survival_curve, "_TAIL_ZERO", math.inf)
    cold_survival_curve._survival_curve.cache_clear()
    assert [_moment_or_error(e, params, distance) for e in exponents] == cut


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


#: cluster sets from sparse to dense, from no micros to 32 per macro, from tight to wide spread
CLUSTER_SETS = st.tuples(
    _log_uniform(0.3, 1e4), st.one_of(st.just(0.0), _log_uniform(0.05, 32.0)), _log_uniform(0.02, 10.0)
)


@given(params=CLUSTER_SETS, distance=st.sampled_from(["contact", "palm"]))
@settings(max_examples=40, deadline=None)
def test_survival_curve_tails_match_the_uncut_curve(params, distance):
    """Both stops drop only nodes whose tail is 0.0: every r1 and tail equals the uncut grid's."""
    from crancost import spatial_stats

    spatial_stats._survival_curve.cache_clear()
    cut = spatial_stats._survival_curve(*params, distance)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spatial_stats, "_VOID_CUTOFF", math.inf)
        mp.setattr(spatial_stats, "_TAIL_ZERO", math.inf)
        spatial_stats._survival_curve.cache_clear()
        uncut = spatial_stats._survival_curve(*params, distance)
    spatial_stats._survival_curve.cache_clear()
    for (r1, _, _, tail), (r1_uncut, _, _, tail_uncut) in zip(cut, uncut, strict=True):
        assert r1 == r1_uncut
        assert np.array_equal(tail, tail_uncut)


def _converged_or_skip(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except QuadratureError:
        assume(False)


def _assert_moment_scales(params, c, exponent, distance):
    """Scaling every length by c scales E[R^e] by c^e: lambda_1c -> lambda_1c / c^2, sigma -> c sigma."""
    lambda_1c, lambda_1m, sigma = params
    got = _converged_or_skip(
        cluster_nn_moment, exponent, ClusterParams(lambda_1c / c**2, lambda_1m, c * sigma), distance=distance
    )
    want = _converged_or_skip(cluster_nn_moment, exponent, ClusterParams(*params), distance=distance)
    assert got == pytest.approx(c**exponent * want, rel=1e-12, abs=0.0)


@given(
    params=CLUSTER_SETS.filter(lambda p: p[2] * math.sqrt(p[0]) <= 30.0),
    c=_log_uniform(0.1, 10.0),
    exponent=st.sampled_from([0.25, 1.0, 2.0, 4.0]),
    distance=st.sampled_from(["contact", "palm"]),
)
@settings(max_examples=60, deadline=None)
def test_moment_scales_with_every_length(params, c, exponent, distance):
    """The identity holds to 1e-12 at sigma * sqrt(lambda_1c) <= 30, a scale-free condition."""
    _assert_moment_scales(params, c, exponent, distance)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 8: at sigma*sqrt(lambda_1c) >~ 60 the survival curve lies inside the first "
        "outer panel, whose r1^e exceeds the exponent-4 moment 1e6-fold and more and cancels "
        "against the panel's tails, so the rounding of the scaled grid shows at 6e-12 and 9e-10"
    ),
)
@pytest.mark.parametrize(
    "params,c,distance",
    [((math.exp(9.0), 0.0, math.exp(2.0)), math.e, "contact"), ((7750.2, 10.5, 6.64), 8.34, "palm")],
)
def test_moment_scales_with_every_length_at_large_kappa(params, c, distance):
    _assert_moment_scales(params, c, 4.0, distance)


@given(params=CLUSTER_SETS, c=_log_uniform(0.1, 10.0), r_scaled=st.floats(0.0, 1.5))
@settings(max_examples=60, deadline=None)
def test_void_probability_scales_with_every_length(params, c, r_scaled):
    """The void probability of b(0, c r) under the c-scaled process is that of b(0, r).

    r is at most 1.5 mean macro spacings, so the probability stays a normal
    double (above e^-240) and keeps its relative precision.
    """
    lambda_1c, lambda_1m, sigma = params
    r = r_scaled / math.sqrt(lambda_1c)
    got = _converged_or_skip(void_probability, c * r, ClusterParams(lambda_1c / c**2, lambda_1m, c * sigma))
    want = _converged_or_skip(void_probability, r, ClusterParams(*params))
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 8: the radius grid spans 10*sigma, so from sigma*sqrt(lambda_1c) ~ 50 the "
        "survival curve falls into the first outer panels, and the 1e-5 absolute floor of the "
        "acceptance rule lets exponent-4 moments through up to 2.7% low"
    ),
)
@pytest.mark.parametrize("params", [(1000.0, 4.0, 5.0), (1e4, 2.0, 1.0), (300.7, 0.26, 8.0)])
def test_dense_wide_clusters_reach_the_poisson_limit(params):
    """At sigma * sqrt(lambda_1c) >> 1 the stations are a PPP of intensity lambda_1c (1 + lambda_1m) at the survival's scale."""
    lambda_1c, lambda_1m, _ = params
    got = cluster_nn_moment(4.0, ClusterParams(*params), distance="contact")
    assert got == pytest.approx(ppp_contact_moment(4.0, lambda_1c * (1.0 + lambda_1m)), rel=1e-4)


@given(
    lambda_1c=st.floats(0.1, 100.0),
    lambda_1m=st.floats(0.0, 20.0),
    sigma=st.floats(0.05, 2.0),
    r_scaled=st.floats(0.0, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_void_probability_is_below_the_macro_void_probability(lambda_1c, lambda_1m, sigma, r_scaled):
    """The stations include the macros: P(no station in b(0, r)) <= exp(-lambda_1c pi r^2)."""
    params = ClusterParams(lambda_1c, lambda_1m, sigma)
    r = r_scaled / math.sqrt(lambda_1c)
    assert void_probability(r, params) <= math.exp(-params.lambda_1c * math.pi * r**2) * (1 + 1e-12)


def test_cold_cost_evaluation_passes_at_most_7700_disc_mass_cells(monkeypatch, cold_survival_curve):
    """The survival curve evaluates the disc mass only where the survival can round to more than 0."""
    from crancost.config import default_scenario
    from crancost.costs import datacenter_cost

    cells = []
    original = cold_survival_curve.gaussian_disc_mass

    def counting(center_dist, sigma, radius):
        cells.append(np.broadcast(np.asarray(center_dist), np.asarray(radius)).size)
        return original(center_dist, sigma, radius)

    monkeypatch.setattr(cold_survival_curve, "gaussian_disc_mass", counting)
    datacenter_cost(default_scenario())
    assert 0 < sum(cells) <= 7_700
