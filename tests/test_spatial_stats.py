"""Tests for contact moments, void probability, J-function and distance moments.

Independent oracles: polar-grid Riemann sums for the Gaussian-disc mass and
the J-function integral (no Marcum-Q/noncentral-chi2, no adaptive
quadrature), and Monte Carlo sampling of the cluster process for the void
probability, the nearest-neighbor CDF and the distance moments.
"""

import math
import time
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.spatial import cKDTree

from crancost.errors import CrancostError, ParameterError, QuadratureError
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


def gauss_legendre_disc_mass(a, b, lo, hi, panels=40, order=20):
    """Mass of a unit Gaussian centered a from the center, between the radii b + lo and b + hi.

    A float64 composite Gauss-Legendre integral of the radial density
    t exp(-(t - a)^2 / 2) i0e(a t), with t = b + u over u in [lo, hi], so
    that t - a = u + (b - a) keeps its digits at large b.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = (edges[1:, None] - edges[:-1, None]) / 2.0
    u = half * nodes + (edges[1:, None] + edges[:-1, None]) / 2.0
    density = (b + u) * np.exp(-0.5 * (u + (b - a)) ** 2) * special.i0e(a * (b + u))
    return float(np.sum(half * weights * density))


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

    @pytest.mark.parametrize(
        "beta,intensity", [(math.nan, 3.0), (2.0, math.nan), (math.inf, 3.0), (2.0, math.inf), (2.0, -1.0)]
    )
    def test_an_argument_not_finite_and_in_its_domain_is_a_parameter_error(self, beta, intensity):
        with pytest.raises(ParameterError, match="must be finite"):
            ppp_contact_moment(beta, intensity)

    def test_the_direct_form_holds_inside_the_float_range(self):
        # the log form would move this by one ulp
        assert ppp_contact_moment(2.0, 3.0) == math.gamma(2.0) / (math.pi * 3.0)

    @pytest.mark.parametrize("intensity", [3.0, 100.0])
    def test_factors_past_the_float_range_keep_the_recurrence(self, intensity):
        """E[R^(b+2)] = E[R^b] (b/2 + 1) / (pi lambda), across Gamma's overflow at 171.6."""
        below = ppp_contact_moment(340.0, intensity)
        assert ppp_contact_moment(342.0, intensity) == pytest.approx(below * 171.0 / (math.pi * intensity), rel=1e-12)

    @pytest.mark.parametrize("beta,intensity", [(4.0, 1e-300), (1e12, 3.0), (600.0, 1e-3)])
    def test_a_moment_past_the_float_range_is_a_parameter_error(self, beta, intensity):
        with pytest.raises(ParameterError, match="float range"):
            ppp_contact_moment(beta, intensity)


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

    @pytest.mark.parametrize(
        "center_dist,sigma,radius,what",
        [
            (math.nan, 1.0, 1.0, "center_dist"),
            (np.array([0.5, math.nan]), 1.0, 1.0, "center_dist"),
            (1.0, math.nan, 1.0, "sigma"),
            (1.0, 1.0, math.nan, "radius"),
            (1.0, 1.0, math.inf, "radius"),
            (1.0, 1.0, np.array([0.5, math.nan]), "radius"),
        ],
    )
    def test_a_nan_argument_or_an_infinite_radius_is_a_parameter_error(self, center_dist, sigma, radius, what):
        with pytest.raises(ParameterError, match=what):
            gaussian_disc_mass(center_dist, sigma, radius)

    @pytest.mark.parametrize("a", [10.0, 12.5, 100.0, 1e4, 1e10, 1e50, 1e150])
    def test_the_mass_centered_on_the_disc_edge_is_half_of_one_minus_i0e(self, a):
        """At center_dist = radius = a kernel widths the mass is (1 - e^(-a^2) I_0(a^2)) / 2, with no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gaussian_disc_mass(a, 1.0, a)
        assert got == pytest.approx(0.5 * (1.0 - special.i0e(a * a)), rel=2e-15, abs=0.0)

    @pytest.mark.parametrize(
        "center_dist,sigma,radius,want",
        [(1e155, 1.0, 1e155, 0.5), (1e200, 1.0, 1e-10, 0.0), (1e300, 1e-300, 1.0, 0.0), (1.0, 1e-300, 1e300, 1.0)],
    )
    def test_finite_arguments_past_the_float_range_in_kernel_widths_give_the_limit(
        self, center_dist, sigma, radius, want
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gaussian_disc_mass(center_dist, sigma, radius) == want

    def test_the_large_xi_expansion_matches_chndtr_to_1e_14(self):
        """2000 cells with xi = ab from 100 to 1e4 and |a - b| <= 10, in kernel widths."""
        rng = np.random.default_rng(27)
        xi = 10.0 ** rng.uniform(2.0, 4.0, 2000)
        gap = rng.uniform(-10.0, 10.0, 2000)
        b = (np.sqrt(gap * gap + 4.0 * xi) - gap) / 2.0
        a = b + gap
        assert np.mean(a * b >= 100.0) > 0.99
        np.testing.assert_allclose(gaussian_disc_mass(a, 1.0, b), special.chndtr(b * b, 2.0, a * a), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("b", np.geomspace(10.0, 1e5, 9))
    def test_the_mass_outside_the_disc_matches_a_gauss_legendre_integral(self, b):
        """Relative accuracy of the small masses of a kernel centered outside the disc, at xi = ab >= 100."""
        a = b + np.array([0.0, 0.5, 2.0, 5.0, 10.0])
        want = [gauss_legendre_disc_mass(x, b, max(-b, -40.0), 0.0) for x in a]
        np.testing.assert_allclose(gaussian_disc_mass(a, 1.0, b), want, rtol=3e-14, atol=0.0)

    @pytest.mark.parametrize("b", [10.0, 300.0, 1e5])
    @pytest.mark.parametrize("gap", [-2.0, -1e-3, 0.0, 1e-3, 2.0])
    def test_the_mass_inside_and_the_integral_outside_the_disc_sum_to_one(self, b, gap):
        """P + Q = 1 with the center on either side of the disc edge, Q integrated over [b, b + 40]."""
        a = b + gap
        assert gaussian_disc_mass(a, 1.0, b) + gauss_legendre_disc_mass(a, b, 0.0, 40.0) == pytest.approx(1.0, abs=1e-14)


PAPERLIKE = ClusterParams(10.0, 4.0, math.sqrt(0.5))


@pytest.mark.parametrize(
    "fields",
    [
        (math.nan, 4.0, 0.7),
        (10.0, math.nan, 0.7),
        (10.0, 4.0, math.nan),
        (math.inf, 4.0, 0.7),
        (10.0, math.inf, 0.7),
        (10.0, 4.0, math.inf),
        (-1.0, 4.0, 0.7),
        (10.0, -1.0, 0.7),
        (10.0, 4.0, 0.0),
    ],
)
def test_cluster_params_need_every_field_finite_and_in_its_domain(fields):
    with pytest.raises(ParameterError, match="must be finite"):
        ClusterParams(*fields)


#: radii that are not finite and >= 0
BAD_RADII = [math.nan, math.inf, -1.0]


class TestVoidProbability:
    @pytest.mark.parametrize("r", BAD_RADII)
    def test_a_radius_not_finite_and_nonnegative_is_a_parameter_error(self, r):
        with pytest.raises(ParameterError, match="r must be finite"):
            void_probability(r, PAPERLIKE)

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


def riemann_j(params, r, extent=8.0, n=4000):
    """Riemann sums of the Palm J: a macro term and a member term over s in (r, r + extent].

    The macro term exp(-lam_m * m(0, r)) takes its disc mass from the polar
    grid of ``riemann_disc_mass``. The member term is the midpoint sum of
    Int_{s>r} f(s) exp(-lam_m * m(s, r)) ds with f the Rayleigh density; its
    grid starts at r, where a 2D grid's indicator 1{|x| > r} would cut cells.
    """
    sigma, lam_m = params.sigma, params.lambda_1m
    h = extent / n
    s = r + (np.arange(n) + 0.5) * h
    rayleigh = s / sigma**2 * np.exp(-(s**2) / (2 * sigma**2))
    member = float(np.sum(rayleigh * np.exp(-lam_m * gaussian_disc_mass(s, sigma, r))) * h)
    macro = math.exp(-lam_m * riemann_disc_mass(0.0, sigma, r))
    return (macro + lam_m * member) / (1.0 + lam_m)


class TestJFunction:
    @pytest.mark.parametrize("r", BAD_RADII)
    def test_a_radius_not_finite_and_nonnegative_is_a_parameter_error(self, r):
        with pytest.raises(ParameterError, match="r must be finite"):
            j_function(r, PAPERLIKE)

    def test_at_zero_radius(self):
        assert j_function(0.0, PAPERLIKE) == 1.0

    def test_ppp_case_is_identically_one(self):
        params = ClusterParams(3.0, 0.0, 0.5)
        for r in (0.0, 0.3, 1.0, 2.5):
            assert j_function(r, params) == 1.0

    def test_against_grid_riemann_oracle(self):
        params = ClusterParams(1.0, 1.0, 1.0)
        expected = riemann_j(params, 1.0)
        got = j_function(1.0, params)
        assert 0.0 < got <= 1.0
        assert got == pytest.approx(expected, abs=1e-4)

    def test_bounded_by_one_for_cluster_process(self):
        for r in (0.05, 0.2, 0.5, 1.0):
            assert 0.0 < j_function(r, PAPERLIKE) <= 1.0 + 1e-12

    @pytest.mark.parametrize("r", [2.2, 2.75, 3.5, 5.0])
    def test_far_radius_reaches_the_whole_cluster_limit(self, r):
        # r >> sigma: a ball around a macro swallows all its micros, which are
        # absent with probability exp(-lambda_1m), and a ball around a micro
        # swallows its own macro, so only the macro term is left
        params = ClusterParams(50.0, 1.0, 0.1)
        lam_m = params.lambda_1m
        limit = math.exp(-lam_m) / (1.0 + lam_m)
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
    @pytest.mark.parametrize("r", BAD_RADII)
    def test_a_radius_not_finite_and_nonnegative_is_a_parameter_error(self, r):
        with pytest.raises(ParameterError, match="r must be finite"):
            nn_distance_cdf(r, PAPERLIKE)

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
        got = cluster_nn_moment(beta, ClusterParams(lam, 0.0, 0.5))
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
        theo = cluster_nn_moment(2.0, PAPERLIKE)
        assert np.mean(rep_means) == pytest.approx(theo, abs=3 * se)

    def test_moments_finite_up_to_exponent_four(self):
        for beta in (1.0, 2.0, 3.0, 4.0):
            val = cluster_nn_moment(beta, PAPERLIKE)
            assert math.isfinite(val) and val > 0

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
        assert math.isfinite(cluster_nn_moment(exponent, ClusterParams(*params)))


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


@pytest.mark.parametrize("exponent", [1.0, 2.0, 4.0])
def test_a_moment_that_is_not_positive_is_a_quadrature_error(exponent):
    """At 1e12 micros per macro the survival lies inside the first panel, whose r1^e cancels to within the coarse-fine gap of 0."""
    with pytest.raises(QuadratureError, match="not positive") as exc:
        cluster_nn_moment(exponent, ClusterParams(10, 1e12, 0.7))
    assert exc.value.achieved_error is not None and exc.value.achieved_error >= 0


def test_a_moment_beyond_the_float_range_is_a_typed_error():
    """At exponent 3000 the grid's r^3000 past r = 1.27 km exceeds the largest float."""
    from crancost.config import default_scenario

    with pytest.raises(CrancostError, match="not a finite float"):
        cluster_nn_moment(3000.0, default_scenario().cluster_params)


@pytest.mark.parametrize("sigma,exponent", [(1e6, 1.0), (1e6, 2.0), (1e150, 4.0)])
def test_a_kernel_far_wider_than_the_spacing_gives_the_poisson_limit(sigma, exponent):
    """At sigma = 1e6 and 1e150 km the stations are a PPP of intensity lambda_1c (1 + lambda_1m)."""
    got = cluster_nn_moment(exponent, ClusterParams(10, 4, sigma))
    assert got == pytest.approx(ppp_contact_moment(exponent, 10 * (1 + 4)), rel=1e-12)


# values of the nested adaptive quadrature this package used before the fixed
# grids, at its default tolerances; the exponents below 1 have an integrable
# singularity at r = 0
PINNED_EXPONENTS = (0.25, 0.5, 1.0, 1.5, 2.0, 4.0)
ADAPTIVE_MOMENTS = {
    (10.0, 4.0, math.sqrt(0.5)): (
        0.5012349375891005, 0.25684965767556883, 0.07125594578853665,
        0.0209943509809277, 0.006498366545072068, 8.624417860697018e-05,
    ),
    (2.0, 3.0, 0.5): (
        0.6384588857997977, 0.41796534428378457, 0.19092657359972526,
        0.09372334722722689, 0.048900556072020006, 0.00585267866705693,
    ),
    (50.0, 1.0, 0.1): (
        0.46441947812263557, 0.22096670709108973, 0.053165426505400536,
        0.013687446446639683, 0.0037275008568447825, 3.136168569891252e-05,
    ),
    (0.5, 10.0, 0.2): (
        0.7754886940966644, 0.6283233894266911, 0.45675585626537957,
        0.3673620647050015, 0.31808653258608505, 0.2883499736077756,
    ),
}
# the void probabilities as above; J from scipy.integrate.quad over (r, inf)
# of the Palm member term at epsrel 1e-13, with its macro term in closed form
ADAPTIVE_VOID_AND_J = {
    0.05: (0.6762875945469786, 0.9920505408162887),
    0.2: (0.0027024316848898162, 0.8839048668010425),
    1.0: (2.616848537154099e-35, 0.1515523702049434),
}


@pytest.mark.parametrize("params", list(ADAPTIVE_MOMENTS), ids=lambda p: f"{p[:2]}")
def test_moments_match_pinned_adaptive_values(params):
    for exponent, want in zip(PINNED_EXPONENTS, ADAPTIVE_MOMENTS[params], strict=True):
        got = cluster_nn_moment(exponent, ClusterParams(*params))
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

    calls = _count_disc_mass_cells(monkeypatch, spatial_stats)
    # a user intensity no other test uses, so the curve is not memoized yet
    scenario = default_scenario(lambda_0=163.25)
    datacenter_cost(scenario)
    # a curve makes two or three disc-mass calls, so two curves would make at least four
    assert 0 < len(calls) <= 3


def test_cost_with_fractional_user_link_exponents_converges():
    """Exponents below 1, which the configuration accepts, give finite user-link terms."""
    from crancost.config import default_scenario
    from crancost.costs import LinkCost, datacenter_cost

    scenario = default_scenario()
    links = replace(scenario.links, user_bs=LinkCost(a=5000.0, beta=0.5, b=10000.0, theta=0.25))
    scenario = replace(scenario, links=links)
    cost = datacenter_cost(scenario)
    moment = partial(cluster_nn_moment, params=scenario.cluster_params)
    assert cost.capacity_user_bs / cost.infra_user_bs == pytest.approx(
        5000.0 * moment(0.5) / (10000.0 * moment(0.25)), rel=1e-12
    )


#: tight clusters of 32 micros: no coarse row up to r_mid reaches the void
#: exponent 38, so the coarse pass also evaluates the rows up to r_hi
PAST_R_MID = (10.0, 32.0, 0.01)

# cluster sets for the survival-curve stops: the default, three sets from
# sparse to tight clustering, three with large sigma * sqrt(lambda_1c),
# where the survival ends well inside r_cut, and one whose coarse pass
# reaches the void exponent 38 only past r_mid
CUTOFF_SETS = [
    None,
    (50.0, 1.0, 0.1),
    (0.5, 50.0, 0.3),
    (10.0, 4.0, 0.01),
    (100.0, 4.0, 10.0),
    (1000.0, 4.0, 5.0),
    (10000.0, 2.0, 1.0),
    PAST_R_MID,
]


def _moment_or_error(exponent, params):
    from crancost.errors import QuadratureError

    try:
        return cluster_nn_moment(exponent, params)
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
def test_survival_cutoff_leaves_every_moment_bit_identical(monkeypatch, cold_survival_curve, params):
    """Stopping both grids where their tails are 0 changes no bit, nor which sets raise."""
    from crancost.config import default_scenario

    params = default_scenario().cluster_params if params is None else ClusterParams(*params)
    exponents = (0.5, 2.0, 4.0)
    cut = [_moment_or_error(e, params) for e in exponents]
    monkeypatch.setattr(cold_survival_curve, "_TAIL_ZERO", math.inf)
    cold_survival_curve._survival_curve.cache_clear()
    assert [_moment_or_error(e, params) for e in exponents] == cut


@pytest.mark.parametrize("params", [None, (2.92, 959.0, 0.0268)])
def test_a_survival_row_does_not_move_with_the_call_that_evaluates_it(params):
    """Every row of both grids, evaluated alone and in calls of every length, gives the same void exponent.

    The tail bit-identity tests above rest on this: a stop or a split of the
    coarse pass changes which call evaluates a row.
    """
    from crancost import spatial_stats
    from crancost.config import default_scenario

    params = default_scenario().cluster_params if params is None else ClusterParams(*params)
    r_cut = math.sqrt(spatial_stats._VOID_CUTOFF / (math.pi * params.lambda_1c))
    for (u, _), inner in spatial_stats._RULES:
        r = r_cut * u * u

        def in_calls_of(length):
            """Each row's exponent from calls of ``length`` rows."""
            return np.concatenate(
                [
                    spatial_stats._void_exponent_and_j(r[i : i + length], params, inner, False)[0]
                    for i in range(0, r.size, length)
                ]
            )

        alone = in_calls_of(1)
        for length in range(2, r.size + 1):
            assert np.array_equal(in_calls_of(length), alone), length


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


#: cluster sets from sparse to dense, from no micros to 32 per macro, from tight to wide spread
CLUSTER_SETS = st.tuples(
    _log_uniform(0.3, 1e4), st.one_of(st.just(0.0), _log_uniform(0.05, 32.0)), _log_uniform(0.02, 10.0)
)


@given(params=CLUSTER_SETS)
@example(params=PAST_R_MID)
@settings(max_examples=40, deadline=None)
def test_survival_curve_tails_match_the_uncut_curve(params):
    """The stops drop only nodes whose tail is 0.0: every r1 and tail equals the unstopped grids'."""
    from crancost import spatial_stats

    spatial_stats._survival_curve.cache_clear()
    cut = spatial_stats._survival_curve(*params)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spatial_stats, "_TAIL_ZERO", math.inf)
        spatial_stats._survival_curve.cache_clear()
        uncut = spatial_stats._survival_curve(*params)
    spatial_stats._survival_curve.cache_clear()
    for (r1, _, _, tail), (r1_uncut, _, _, tail_uncut) in zip(cut, uncut, strict=True):
        assert r1 == r1_uncut
        assert np.array_equal(tail, tail_uncut)


def _moments_on_a_grid_with_4x_the_panels(params, exponents):
    """The moments on 4x the outer and inner panels over the same [0, r_cut], with both grids laid out as in the module."""
    from crancost import spatial_stats

    r_panels, s_panels = 4 * spatial_stats._R_PANELS, 4 * spatial_stats._S_PANELS
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spatial_stats, "_R_PANELS", r_panels)
        mp.setattr(spatial_stats, "_RULES", spatial_stats._rules(r_panels, s_panels))
        spatial_stats._survival_curve.cache_clear()
        moments = [cluster_nn_moment(e, ClusterParams(*params)) for e in exponents]
    spatial_stats._survival_curve.cache_clear()
    return moments


@given(params=CLUSTER_SETS.filter(lambda p: p[2] * math.sqrt(p[0]) >= 0.1))
@example(params=(100.0, 4.0, 10.0))
@example(params=(1000.0, 4.0, 5.0))
@example(params=(1e4, 2.0, 1.0))
@example(params=(300.7, 0.26, 8.0))
@example(params=(48.2, 3.29, 8.3))
@example(params=(9.45, 24.5, 0.0618))
@example(params=(3.77, 30.7, 0.281))
@example(params=(3855.0, 25.3, 5.74))
@settings(max_examples=60, deadline=None)
def test_moments_match_a_grid_with_4x_the_panels(params):
    """At sigma * sqrt(lambda_1c) >= 0.1 every moment converges and is within 1e-8 of the denser grid."""
    from crancost import spatial_stats

    exponents = (0.25, 1.0, 2.0, 4.0)
    spatial_stats._survival_curve.cache_clear()
    got = [cluster_nn_moment(e, ClusterParams(*params)) for e in exponents]
    want = _moments_on_a_grid_with_4x_the_panels(params, exponents)
    assert got == pytest.approx(want, rel=1e-8, abs=0.0)


def _converged_or_skip(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except QuadratureError:
        assume(False)


def _assert_moment_scales(params, c, exponent):
    """Scaling every length by c scales E[R^e] by c^e: lambda_1c -> lambda_1c / c^2, sigma -> c sigma."""
    lambda_1c, lambda_1m, sigma = params
    got = _converged_or_skip(cluster_nn_moment, exponent, ClusterParams(lambda_1c / c**2, lambda_1m, c * sigma))
    want = _converged_or_skip(cluster_nn_moment, exponent, ClusterParams(*params))
    assert got == pytest.approx(c**exponent * want, rel=1e-12, abs=0.0)


@given(
    params=CLUSTER_SETS,
    c=_log_uniform(0.1, 10.0),
    exponent=st.sampled_from([0.25, 1.0, 2.0, 4.0]),
)
@settings(max_examples=60, deadline=None)
def test_moment_scales_with_every_length(params, c, exponent):
    """The grid spans [0, r_cut], which scales with every length, so the identity holds to 1e-12 at every kappa."""
    _assert_moment_scales(params, c, exponent)


@pytest.mark.parametrize("params,c", [((math.exp(9.0), 0.0, math.exp(2.0)), math.e), ((7750.2, 10.5, 6.64), 8.34)])
def test_moment_scales_with_every_length_at_large_kappa(params, c):
    """Where the survival once lay inside the first outer panel and cancelled against its r1^4."""
    _assert_moment_scales(params, c, 4.0)


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


@pytest.mark.parametrize("params", [(1000.0, 4.0, 5.0), (1e4, 2.0, 1.0), (300.7, 0.26, 8.0)])
def test_dense_wide_clusters_reach_the_poisson_limit(params):
    """At sigma * sqrt(lambda_1c) >> 1 the stations are a PPP of intensity lambda_1c (1 + lambda_1m) at the survival's scale."""
    lambda_1c, lambda_1m, _ = params
    got = cluster_nn_moment(4.0, ClusterParams(*params))
    assert got == pytest.approx(ppp_contact_moment(4.0, lambda_1c * (1.0 + lambda_1m)), rel=1e-4)


@given(
    lambda_1c=st.floats(0.1, 100.0),
    lambda_1m=st.floats(0.0, 20.0),
    sigma=st.floats(0.05, 2.0),
    r_scaled=st.floats(0.0, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_void_probability_is_below_the_macro_void_probability(lambda_1c, lambda_1m, sigma, r_scaled):
    """The stations include the macros: P(no station in b(0, r)) <= exp(-lambda_1c pi r^2).

    It is at least exp(-lambda_1c (1 + lambda_1m) pi r^2), the void probability
    of a PPP of the same intensity: in the exponent of the PGFL a cluster
    centered outside the ball adds 1 - exp(-lambda_1m m) <= lambda_1m m, and
    the disc mass m integrates over the plane to pi r^2.
    """
    params = ClusterParams(lambda_1c, lambda_1m, sigma)
    r = r_scaled / math.sqrt(lambda_1c)
    void = void_probability(r, params)
    assert void <= math.exp(-params.lambda_1c * math.pi * r**2) * (1 + 1e-12)
    assert void >= math.exp(-params.lambda_1c * (1.0 + params.lambda_1m) * math.pi * r**2) * (1 - 1e-12)


@given(
    lambda_1c=st.floats(0.1, 100.0),
    lambda_1m=st.floats(0.0, 20.0),
    sigma=st.floats(0.05, 2.0),
    r_scaled=st.lists(st.floats(0.0, 3.0), min_size=2, max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_j_is_a_nonincreasing_probability_from_one_grid_per_radius(lambda_1c, lambda_1m, sigma, r_scaled):
    """0 <= J <= 1 and J(r2) <= J(r1) for r2 >= r1; a J of r > 0 passes 80 disc-mass cells, 32 coarse and 48 fine."""
    from crancost import spatial_stats

    params = ClusterParams(lambda_1c, lambda_1m, sigma)
    r1, r2 = sorted(x / math.sqrt(lambda_1c) for x in r_scaled)
    with pytest.MonkeyPatch.context() as monkeypatch:
        cells = _count_disc_mass_cells(monkeypatch, spatial_stats)
        j1 = j_function(r1, params)
    j2 = j_function(r2, params)
    assert 0.0 <= j1 <= 1.0 and 0.0 <= j2 <= 1.0
    assert j2 <= j1 + 1e-12
    if r1 > 0.0 and lambda_1m > 0.0:
        assert cells == [32, 48]


def _count_disc_mass_cells(monkeypatch, spatial_stats):
    """The cell count of every disc-mass kernel call from here on, in call order."""
    cells = []
    original = spatial_stats._disc_mass

    def counting(a, b):
        cells.append(np.broadcast(a, b).size)
        return original(a, b)

    monkeypatch.setattr(spatial_stats, "_disc_mass", counting)
    return cells


def test_cold_cost_evaluation_passes_at_most_4000_disc_mass_cells(monkeypatch, cold_survival_curve):
    """The survival curve evaluates the disc mass only where the survival can round to more than 0."""
    from crancost.config import default_scenario
    from crancost.costs import datacenter_cost

    cells = _count_disc_mass_cells(monkeypatch, cold_survival_curve)
    datacenter_cost(default_scenario())
    assert 0 < sum(cells) <= 4_000


@pytest.mark.parametrize("kappa", [None, 0.01])
def test_the_survival_grid_takes_its_masses_from_gaussian_disc_mass_bit_for_bit(monkeypatch, cold_survival_curve, kappa):
    """Every disc-mass cell of a survival curve and of J, in kernel widths, is what the public function gives on that cell.

    ``j_function`` and ``nn_distance_cdf`` weight the void integral's own cells, s in [r, r + F sigma] from a
    cluster center, with J's Rayleigh density. At the default kappa = sigma sqrt(lambda_1c) = 2.24 every cell has xi = ab below 100; at
    kappa = 0.01 most cells take the large-xi expansion.
    """
    from crancost.config import default_scenario

    params = default_scenario().cluster_params
    if kappa is not None:
        params = replace(params, sigma=kappa / math.sqrt(params.lambda_1c))
    calls = []
    original = cold_survival_curve._disc_mass

    def recording(a, b):
        calls.append((a, b, original(a, b)))
        return calls[-1][2]

    monkeypatch.setattr(cold_survival_curve, "_disc_mass", recording)
    cold_survival_curve._survival_curve(params.lambda_1c, params.lambda_1m, params.sigma)
    for r in ADAPTIVE_VOID_AND_J:
        j_function(r, params)
        nn_distance_cdf(r, params)
    monkeypatch.undo()  # gaussian_disc_mass calls the kernel too
    largest_xi = max(np.max(a * b) for a, b, _ in calls)
    assert largest_xi < 100.0 if kappa is None else largest_xi > 1e4
    for a, b, mass in calls:
        np.testing.assert_array_equal(gaussian_disc_mass(a, 1.0, b), mass)


def test_a_cold_contact_moment_of_tight_clusters_takes_well_under_a_second(cold_survival_curve):
    """At kappa = 1e-5 the micros sit on their macros: E[R] is the PPP(lambda_1c) moment, less about 2 kappa."""
    kappa, lambda_1c = 1e-5, 10.0
    params = ClusterParams(lambda_1c, 4.0, kappa / math.sqrt(lambda_1c))
    start = time.perf_counter()
    got = cluster_nn_moment(1.0, params)
    assert time.perf_counter() - start < 0.5
    assert got == pytest.approx(ppp_contact_moment(1.0, lambda_1c), rel=3 * kappa, abs=0.0)


@pytest.mark.parametrize("params,calls", [(None, 2), (PAST_R_MID, 3)])
def test_coarse_pass_evaluates_past_r_mid_only_when_no_row_reached_the_tail_zero(
    monkeypatch, cold_survival_curve, params, calls
):
    """One disc-mass call per pass, and a second coarse one only where no row up to r_mid reached exponent 38."""
    from crancost.config import default_scenario

    params = default_scenario().cluster_params if params is None else ClusterParams(*params)
    cells = _count_disc_mass_cells(monkeypatch, cold_survival_curve)
    cold_survival_curve._survival_curve(params.lambda_1c, params.lambda_1m, params.sigma)
    assert len(cells) == calls


@given(
    params=st.tuples(
        _log_uniform(0.1, 100.0), st.one_of(st.just(0.0), _log_uniform(0.01, 1000.0)), _log_uniform(0.05, 10.0)
    )
)
@settings(max_examples=100, deadline=None)
def test_every_cluster_moment_lies_within_its_poisson_bounds(params):
    """Up to 1000 micros per macro each moment lies between two PPP moments, to 1e-9 relative, or raises.

    The micros are a Cox process driven by the macros, so the contact survival
    lies between exp(-lambda_1c (1 + lambda_1m) pi r^2), the PPP of every
    station, and exp(-lambda_1c pi r^2), the PPP of the macros alone.
    Further above 1000 micros per macro some moments still fall below the
    lower bound (ROADMAP item 8).
    """
    lambda_c, lambda_m, _ = params
    for exponent in (0.25, 1.0, 2.0, 4.0):
        try:
            got = cluster_nn_moment(exponent, ClusterParams(*params))
        except QuadratureError:
            continue
        lo, hi = ppp_contact_moment(exponent, lambda_c * (1.0 + lambda_m)), ppp_contact_moment(exponent, lambda_c)
        assert lo * (1.0 - 1e-9) <= got <= hi * (1.0 + 1e-9), (exponent, got, lo, hi)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 8: far above 32 micros per macro the survival falls inside the first outer panel, "
    "and the 1e-5 absolute floor of the acceptance rule passes a wrong moment",
)
def test_a_moment_far_above_32_micros_per_macro_reaches_the_poisson_limit():
    """At a million micros per macro the stations are a PPP of intensity lambda_1c (1 + lambda_1m)."""
    got = cluster_nn_moment(4.0, ClusterParams(10.0, 1e6, 0.7))
    assert got == pytest.approx(ppp_contact_moment(4.0, 10.0 * (1.0 + 1e6)), rel=1e-3, abs=0.0)
