"""Tests for contact moments, void probability, J-function and distance moments.

Independent oracles: polar-grid Riemann sums for the Gaussian-disc mass and
the J-function integral (no Marcum-Q/noncentral-chi2, no adaptive
quadrature), and Monte Carlo sampling of the cluster process for the void
probability, the nearest-neighbor CDF and the distance moments.
"""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from crancost.errors import ParameterError
from crancost.geometry import Window, layer_rng, sample_cluster_bs
from crancost.spatial_stats import (
    ClusterParams,
    QuadratureSettings,
    cluster_nn_moment,
    gaussian_disc_mass,
    j_function,
    mixed_contact_moment,
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


class TestMixedContactMoment:
    def test_degenerate_mixture_reduces_to_single_ppp(self):
        got = mixed_contact_moment(7.0, 3.0, 0.0, 2.0, 5.0)
        assert got == pytest.approx(7.0 * ppp_contact_moment(3.0, 5.0), rel=1e-12)

    def test_equal_intensities(self):
        # 5000 * Gamma(2) / (5 pi)
        got = mixed_contact_moment(5000.0, 2.0, 0.5, 5.0, 5.0)
        assert got == pytest.approx(318.31, abs=0.01)

    def test_zeroth_moment_is_base(self):
        assert mixed_contact_moment(1.0, 0.0, 0.3, 2.0, 9.0) == pytest.approx(1.0, rel=1e-12)

    @given(
        p=st.floats(0, 1),
        lam_mw=st.floats(0.1, 50),
        lam_of=st.floats(0.1, 50),
        beta=st.floats(0, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_swap_invariance(self, p, lam_mw, lam_of, beta):
        a = mixed_contact_moment(1.0, beta, p, lam_mw, lam_of)
        b = mixed_contact_moment(1.0, beta, 1.0 - p, lam_of, lam_mw)
        assert a == pytest.approx(b, rel=1e-12)


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
            pts = bs.all_points()
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


def empirical_nn_cdf_grid(params, window_side, n_rep, seed, quantiles):
    """Nearest-neighbor distances from every point of sampled realizations."""
    w = Window(window_side, window_side)
    ds = []
    for i in range(n_rep):
        bs = sample_cluster_bs(params.lambda_1c, params.lambda_1m, params.sigma, w, layer_rng(seed, i, 1))
        pts = bs.all_points()
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
            pts = bs.all_points()
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
            pts = bs.all_points()
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


def test_quadrature_settings_validation():
    with pytest.raises(ParameterError):
        QuadratureSettings(abs_tol=0.0)
    with pytest.raises(ParameterError):
        QuadratureSettings(max_subdivisions=0)


def test_non_convergence_carries_the_achieved_error():
    from crancost.errors import QuadratureError

    starved = QuadratureSettings(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=1)
    with pytest.raises(QuadratureError) as exc:
        cluster_nn_moment(4.0, PAPERLIKE, quad=starved)
    assert exc.value.achieved_error is not None and exc.value.achieved_error > 0


def test_custom_tolerances_accepted_per_call():
    loose = QuadratureSettings(abs_tol=1e-6, rel_tol=1e-4)
    tight = QuadratureSettings(abs_tol=1e-10, rel_tol=1e-9)
    a = cluster_nn_moment(2.0, PAPERLIKE, quad=loose)
    b = cluster_nn_moment(2.0, PAPERLIKE, quad=tight)
    assert a == pytest.approx(b, rel=1e-3)


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
    from dataclasses import replace

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
