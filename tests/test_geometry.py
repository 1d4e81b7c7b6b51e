"""Tests for the point-process sampling and assignment layer."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.spatial import cKDTree

from crancost.config import default_scenario
from crancost.errors import AssignmentError, ParameterError
from crancost.geometry import (
    BackhaulTech,
    Window,
    layer_rng,
    nearest_assign,
    assignment_distances,
    sample_backhaul,
    sample_cluster_bs,
    sample_ppp,
)
from crancost.simulate import STATION_FRACTION, USER_FRACTION

UNIT = Window(1.0, 1.0)
TORUS10 = Window(10.0, 10.0)
COORD_FRACTION = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))


def _mod_fold(points, side):
    """The reference fold: ``np.mod`` into [0, side), with a result of side (from a tiny negative) set to 0."""
    pts = np.mod(points, side)
    pts[pts >= side] = 0.0
    return pts


class _CountingTree(cKDTree):
    """A cKDTree that counts the rows queried on periodic trees."""

    periodic_rows = 0

    def query(self, x, *args, **kwargs):
        if self.boxsize is not None:
            _CountingTree.periodic_rows += len(x)
        return super().query(x, *args, **kwargs)


class TestWindow:
    def test_dimensions_must_be_positive(self):
        with pytest.raises(ParameterError):
            Window(0.0, 1.0)
        with pytest.raises(ParameterError):
            Window(1.0, -2.0)

    def test_a_rectangle_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="square"):
            Window(4.0, 2.0)

    def test_wrap_points_folds_into_window(self):
        w = Window(4.0, 4.0)
        pts = w.wrap_points(np.array([[4.5, -0.5], [-1e-20, 4.0]]))
        assert np.all((pts >= 0.0) & (pts < w.width))

    @given(
        side=st.floats(1e-3, 1e3),
        inside=st.lists(st.floats(-1.0, 2.0, exclude_min=True, exclude_max=True), max_size=40),
        far=st.lists(st.one_of(st.floats(-3.0, 4.0), st.floats(-1e6, 1e6)), max_size=4),
        edges=st.lists(st.integers(0, 8), max_size=8),
    )
    @settings(max_examples=1000, deadline=None)
    def test_wrap_points_is_the_np_mod_fold_to_the_bit(self, side, inside, far, edges):
        """Coordinates inside (-side, 2 side), in side units, and outside it, with the edge values mixed in."""
        edge_values = (
            0.0, -0.0, -5e-324, -1e-300, math.nextafter(side, 0.0), side, math.nextafter(2.0 * side, 0.0),
            2.0 * side, -side,
        )
        coords = [f * side for f in inside + far] + [edge_values[i] for i in edges]
        points = np.array(coords + [0.0] * (len(coords) % 2)).reshape(-1, 2)
        got = Window(side, side).wrap_points(points)
        want = _mod_fold(points, side)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(
        ax=st.floats(0, 10, allow_nan=False),
        ay=st.floats(0, 10, allow_nan=False),
        bx=st.floats(0, 10, allow_nan=False),
        by=st.floats(0, 10, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_toroidal_distance_never_exceeds_planar(self, ax, ay, bx, by):
        a, b = np.array([ax, ay]), np.array([bx, by])
        d_torus = TORUS10.distance(a, b)
        d_plane = np.linalg.norm(a - b)
        assert d_torus <= d_plane + 1e-12
        # equal whenever both coordinates differ by less than half the span
        if abs(ax - bx) < 5.0 and abs(ay - by) < 5.0:
            assert d_torus == pytest.approx(d_plane, abs=1e-12)

    def test_distance_takes_the_short_way_round_the_torus(self):
        assert TORUS10.distance(np.array([0.5, 0.5]), np.array([9.5, 0.5])) == pytest.approx(1.0)


class TestSamplePpp:
    def test_zero_intensity_gives_empty_array(self):
        assert sample_ppp(0.0, UNIT, seed=1).shape == (0, 2)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ParameterError):
            sample_ppp(-1.0, UNIT, seed=1)

    @pytest.mark.parametrize("intensity", [math.nan, math.inf])
    def test_non_finite_intensity_rejected(self, intensity):
        with pytest.raises(ParameterError, match="finite"):
            sample_ppp(intensity, UNIT, seed=1)

    @pytest.mark.parametrize("intensity", [1e19, 1e300, 1e308])
    def test_a_mean_count_numpy_cannot_draw_is_a_parameter_error(self, intensity):
        """Past about 9.2e18 numpy's Poisson draw raises; 1e308 on 100 km^2 is an infinite mean."""
        with pytest.raises(ParameterError, match="mean count"):
            sample_ppp(intensity, TORUS10, seed=1)

    def test_deterministic_given_seed(self):
        a = sample_ppp(50.0, UNIT, seed=7)
        b = sample_ppp(50.0, UNIT, seed=7)
        assert np.array_equal(a, b)

    def test_mean_count_matches_intensity_times_area(self):
        # 170/km^2 on 1x1: over 10,000 seeds the sample mean sits within
        # 3*sqrt(170/10000) of 170
        counts = [len(sample_ppp(170.0, UNIT, seed=s)) for s in range(10_000)]
        assert np.mean(counts) == pytest.approx(170.0, abs=3 * math.sqrt(170.0 / 10_000))

    def test_expected_count_scales_with_area(self):
        w = Window(2.0, 2.0)
        counts = [len(sample_ppp(5.0, w, seed=s)) for s in range(4000)]
        assert np.mean(counts) == pytest.approx(20.0, abs=3 * math.sqrt(20.0 / 4000))

    def test_counts_pass_poisson_chi2_gof(self):
        """Goodness of fit of the count distribution across >= 1000 seeds."""
        mu = 20.0
        counts = np.array([len(sample_ppp(mu, UNIT, seed=s)) for s in range(2000)])
        # bins with expected mass >= 5, tails pooled
        lo, hi = int(mu - 3 * math.sqrt(mu)), int(mu + 3 * math.sqrt(mu))
        edges = list(range(lo, hi + 1))
        observed = np.array(
            [np.sum(counts <= lo)]
            + [np.sum(counts == k) for k in range(lo + 1, hi)]
            + [np.sum(counts >= hi)]
        )
        expected = np.array(
            [stats.poisson.cdf(lo, mu)]
            + [stats.poisson.pmf(k, mu) for k in range(lo + 1, hi)]
            + [stats.poisson.sf(hi - 1, mu)]
        ) * len(counts)
        stat = np.sum((observed - expected) ** 2 / expected)
        p_value = stats.chi2.sf(stat, df=len(observed) - 1)
        assert p_value > 0.01


class TestSampleBackhaul:
    def test_degenerate_mixture_p_one(self):
        draws = [sample_backhaul(1.0, 5.0, 99.0, UNIT, seed=s) for s in range(50)]
        assert all(d.realized is BackhaulTech.MW for d in draws)
        counts = [len(sample_backhaul(1.0, 5.0, 99.0, UNIT, seed=s).nodes) for s in range(4000)]
        assert np.mean(counts) == pytest.approx(5.0, abs=3 * math.sqrt(5.0 / 4000))

    def test_degenerate_mixture_p_zero(self):
        draws = [sample_backhaul(0.0, 99.0, 5.0, UNIT, seed=s) for s in range(50)]
        assert all(d.realized is BackhaulTech.OF for d in draws)

    def test_marginal_mean_count(self):
        # p=0.5 with equal intensities: marginal mean 5/km^2 regardless of draw
        counts = [len(sample_backhaul(0.5, 5.0, 5.0, UNIT, seed=s).nodes) for s in range(4000)]
        assert np.mean(counts) == pytest.approx(5.0, abs=3 * math.sqrt(5.0 / 4000))

    def test_p_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            sample_backhaul(1.5, 5.0, 5.0, UNIT, seed=1)


class TestSampleClusterBs:
    def test_no_members_reduces_to_plain_ppp(self):
        bs = sample_cluster_bs(10.0, 0.0, 0.5, UNIT, seed=3)
        assert len(bs) == bs.n_macros
        assert len(bs.parent_of) == 0

    def test_total_intensity(self):
        # lambda_1c=10, lambda_1m=4 on 1x1: expected 50 points total
        totals = [len(sample_cluster_bs(10.0, 4.0, 0.25, UNIT, seed=s)) for s in range(4000)]
        assert np.mean(totals) == pytest.approx(50.0, abs=3 * math.sqrt(50.0 / 4000) * 1.5)

    def test_kernel_collapse_pins_micros_to_parents(self):
        bs = sample_cluster_bs(20.0, 3.0, 1e-12, TORUS10, seed=11)
        assert len(bs) > bs.n_macros
        gaps = TORUS10.distance(bs.points[bs.n_macros :], bs.points[bs.parent_of])
        assert np.max(gaps) < 1e-9

    def test_every_micro_has_a_parent(self):
        bs = sample_cluster_bs(5.0, 2.0, 0.3, TORUS10, seed=4)
        assert bs.parent_of.shape[0] == len(bs) - bs.n_macros
        assert np.all((bs.parent_of >= 0) & (bs.parent_of < bs.n_macros))

    def test_sigma_must_be_positive(self):
        with pytest.raises(ParameterError):
            sample_cluster_bs(1.0, 1.0, 0.0, UNIT, seed=1)

    @pytest.mark.parametrize("lambda_1m,sigma", [(math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_inputs_rejected(self, lambda_1m, sigma):
        with pytest.raises(ParameterError, match="finite"):
            sample_cluster_bs(10.0, lambda_1m, sigma, UNIT, seed=1)

    def test_a_member_count_numpy_cannot_draw_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="mean count"):
            sample_cluster_bs(10.0, 1e300, 0.5, TORUS10, seed=1)

    def test_small_torus_keeps_every_micro_inside(self):
        # a spread of 1.5 on a 2 km torus displaces most micros past an edge;
        # each wraps back in rather than being dropped
        w = Window(2.0, 2.0)
        bs = sample_cluster_bs(8.0, 5.0, 1.5, w, seed=2)
        rng = np.random.default_rng(2)
        drawn = rng.poisson(5.0, size=len(sample_ppp(8.0, w, rng)))
        assert np.array_equal(np.bincount(bs.parent_of, minlength=bs.n_macros), drawn)
        assert len(bs) == bs.n_macros + len(bs.parent_of)
        assert np.all((bs.points >= 0.0) & (bs.points < w.width))

    @staticmethod
    def _folded_by_np_mod(lambda_1c, lambda_1m, sigma, window, seed):
        """The sampler's draws, with the micros folded by ``np.mod``: the reference for the fold."""
        rng = np.random.default_rng(seed)
        macros = sample_ppp(lambda_1c, window, rng)
        parents = np.repeat(np.arange(len(macros)), rng.poisson(lambda_1m, len(macros)))
        micros = _mod_fold(macros[parents] + rng.standard_normal((len(parents), 2)) * sigma, window.width)
        return np.vstack([macros, micros]), parents

    @pytest.mark.parametrize(
        "window,sigma,folded_by_np_mod",
        [
            (TORUS10, default_scenario().sigma, False),
            (Window(4.0, 4.0), default_scenario().sigma, False),
            (Window(2.0, 2.0), 3.0, True),
        ],
        ids=["default-kernel", "default-kernel-4km", "kernel-wider-than-window"],
    )
    def test_the_fold_is_np_mod_to_the_bit(self, window, sigma, folded_by_np_mod):
        """Every coordinate, sign of zero included, is the one ``np.mod`` gives.

        The default kernel displaces every micro by less than the side, so
        the masked add and subtract of ``Window.wrap_points`` fold it; a
        kernel wider than the window moves micros by more than a side, and
        ``np.mod`` folds them.
        """
        s = default_scenario()
        with mock.patch("numpy.mod", wraps=np.mod) as mod:
            samples = [sample_cluster_bs(s.lambda_1c, s.lambda_1m, sigma, window, seed) for seed in range(200)]
        assert mod.called == folded_by_np_mod
        for seed, bs in enumerate(samples):
            want_points, want_parents = self._folded_by_np_mod(s.lambda_1c, s.lambda_1m, sigma, window, seed)
            assert bs.points.dtype == want_points.dtype and bs.points.tobytes() == want_points.tobytes()
            assert bs.parent_of.dtype == want_parents.dtype and np.array_equal(bs.parent_of, want_parents)

    def test_degenerate_cluster_matches_ppp_nn_distances(self):
        """lambda_1m = 0 is distributionally a PPP: two-sample KS on NN distances."""
        from scipy.spatial import cKDTree

        def nn_distances(sampler, n_rep, seed0):
            out = []
            for i in range(n_rep):
                pts = sampler(i + seed0)
                if len(pts) < 2:
                    continue
                tree = cKDTree(pts, boxsize=TORUS10.width)
                d, _ = tree.query(pts, k=2)
                out.append(d[:, 1])
            return np.concatenate(out)

        a = nn_distances(lambda s: sample_cluster_bs(3.0, 0.0, 0.5, TORUS10, seed=s).points, 120, 0)
        b = nn_distances(lambda s: sample_ppp(3.0, TORUS10, seed=s), 120, 5000)
        _, p_value = stats.ks_2samp(a, b)
        assert p_value > 0.01


class TestNearestAssign:
    def test_unique_nearest(self):
        upper = np.array([[1.0, 0.0], [0.0, 2.0]])
        assigned, dist = nearest_assign(np.array([[0.0, 0.0]]), upper, Window(5, 5))
        assert isinstance(assigned, np.ndarray)
        assert assigned.tolist() == [0]
        assert dist.tolist() == [1.0]

    def test_tie_goes_to_an_equidistant_point(self):
        window = Window(5, 5)
        upper = np.array([[3.0, 3.0], [0.0, 1.0], [4.0, 4.0], [1.0, 0.0]])
        lower = np.array([[0.0, 0.0]])
        assigned, dist = nearest_assign(lower, upper, window)
        # indices 1 and 3 are both at distance 1, the minimum on the 5 km torus
        assert assigned.tolist() in ([1], [3])
        assert dist.tolist() == [window.distance(lower, upper).min()] == [1.0]
        assert np.array_equal(dist, assignment_distances(lower, upper, assigned, window))
        again, again_dist = nearest_assign(lower, upper, window)
        assert np.array_equal(again, assigned) and np.array_equal(again_dist, dist)

    def test_single_upper_point_takes_every_lower_point(self):
        lower = np.random.default_rng(4).uniform(0, 10, (12, 2))
        upper = np.array([[2.5, 7.5]])
        assigned, dist = nearest_assign(lower, upper, TORUS10)
        assert assigned.tolist() == [0] * 12
        assert np.array_equal(dist, assignment_distances(lower, upper, assigned, TORUS10))

    def test_empty_upper_layer_is_an_error(self):
        with pytest.raises(AssignmentError):
            nearest_assign(np.array([[0.0, 0.0]]), np.empty((0, 2)), UNIT)

    def test_matches_bruteforce_on_random_instance(self):
        rng = np.random.default_rng(123)
        lower = rng.uniform(0, 10, (100, 2))
        upper = rng.uniform(0, 10, (37, 2))
        assigned, dist = nearest_assign(lower, upper, TORUS10)
        # exhaustive pairwise argmin oracle
        full = TORUS10.distance(lower[:, None, :], upper[None, :, :])
        assert np.array_equal(assigned, np.argmin(full, axis=1))
        assert np.array_equal(dist, full.min(axis=1))

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        lower = rng.uniform(0, 10, (50, 2))
        upper = rng.uniform(0, 10, (9, 2))
        first = nearest_assign(lower, upper, TORUS10)
        second = nearest_assign(lower, upper, TORUS10)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_permutation_equivariant_in_lower_order(self, seed):
        rng = np.random.default_rng(seed)
        lower = rng.uniform(0, 10, (30, 2))
        upper = rng.uniform(0, 10, (7, 2))
        perm = rng.permutation(30)
        direct, direct_dist = nearest_assign(lower, upper, TORUS10)
        permuted, permuted_dist = nearest_assign(lower[perm], upper, TORUS10)
        assert np.array_equal(direct[perm], permuted)
        assert np.array_equal(direct_dist[perm], permuted_dist)

    def test_assignment_distances_match_metric(self):
        rng = np.random.default_rng(8)
        lower = rng.uniform(0, 10, (2000, 2))
        upper = rng.uniform(0, 10, (60, 2))
        assigned, dist = nearest_assign(lower, upper, TORUS10)
        d = assignment_distances(lower, upper, assigned, TORUS10)
        assert np.array_equal(d, TORUS10.distance(lower, upper[assigned]))
        # the distance the query returns is the one a second pass would compute
        assert np.array_equal(dist, d)

    def test_window_metric_is_the_kdtree_periodic_metric_to_the_last_bit(self):
        """The min-image difference is exact, so both routes round identically."""
        rng = np.random.default_rng(2024)
        lower = rng.uniform(0, 10, (20_000, 2))
        upper = rng.uniform(0, 10, (300, 2))
        dist, idx = cKDTree(upper, boxsize=TORUS10.width).query(lower, k=1)
        assert np.array_equal(TORUS10.distance(lower, upper[idx]), dist)

    @pytest.mark.parametrize("point", [[5.0, 1.0], [1.0, -0.1], [1.0, math.nan]])
    def test_upper_point_outside_the_torus_is_a_parameter_error(self, point):
        upper = np.array([[1.0, 1.0], point])
        with pytest.raises(ParameterError, match="upper layer"):
            nearest_assign(np.array([[2.0, 2.0]]), upper, Window(5, 5))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_lower_point_that_is_not_finite_is_a_parameter_error(self, value):
        """Checked before the fold, so no RuntimeWarning comes first."""
        upper = np.array([[1.0, 1.0], [3.0, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="lower layer"):
                nearest_assign(np.array([[value, 1.0], [2.0, 2.0]]), upper, TORUS10)

    def test_lower_points_outside_the_torus_are_folded_in(self):
        window = Window(5, 5)
        upper = np.random.default_rng(6).uniform(0, 5, (40, 2))
        lower = np.array([[-0.5, 6.2], [5.0, 0.0], [-5.0, -2.5], [12.3, 4.9], [2.0, 2.0]])
        assigned, dist = nearest_assign(lower, upper, window)
        want_dist, want = cKDTree(upper, boxsize=window.width).query(lower, k=1)
        assert np.array_equal(assigned, want)
        assert np.array_equal(dist, want_dist)

    @given(
        side=st.floats(0.5, 20.0),
        upper_fracs=st.lists(st.tuples(COORD_FRACTION, COORD_FRACTION), min_size=1, max_size=50),
        lower_fracs=st.lists(st.tuples(COORD_FRACTION, COORD_FRACTION), min_size=1, max_size=200),
        clustered=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_padded_query_is_the_min_image_argmin(self, side, upper_fracs, lower_fracs, clustered):
        window = Window(side, side)
        upper = np.array(upper_fracs) * side
        lower = np.array(lower_fracs) * side
        if clustered:
            # every upper point within 5% of the side of the first one; the point
            # opposite the cluster lies past half the side, the longest bound
            upper = upper[0] + (np.array(upper_fracs) - 0.5) * (0.05 * side)
            lower = np.vstack([lower, upper[0] + 0.5 * side])
        upper, lower = window.wrap_points(upper), window.wrap_points(lower)
        with mock.patch("scipy.spatial.cKDTree", _CountingTree):
            _CountingTree.periodic_rows = 0
            assigned, dist = nearest_assign(lower, upper, window)
        full = window.distance(lower[:, None, :], upper[None, :, :])
        rows = np.arange(len(lower))
        assert np.array_equal(dist, full.min(axis=1))
        assert np.array_equal(full[rows, assigned], dist)
        if clustered:
            assert _CountingTree.periodic_rows >= 1

    def test_default_realizations_match_the_periodic_tree(self):
        """A full deployment's three queries, and the four an oracle replication makes on thinned layers."""
        s = default_scenario()
        for rep in range(8):
            users = sample_ppp(s.lambda_0, TORUS10, layer_rng(17, rep, 0))
            stations = sample_cluster_bs(s.lambda_1c, s.lambda_1m, s.sigma, TORUS10, layer_rng(17, rep, 1))
            backhaul = sample_backhaul(s.p_mw, s.lambda_2_mw, s.lambda_2_of, TORUS10, layer_rng(17, rep, 2))
            centers = sample_ppp(s.lambda_3, TORUS10, layer_rng(17, rep, 3))
            pairs = [(users, stations.points), (stations.points, backhaul.nodes), (backhaul.nodes, centers)]
            thinned = sample_ppp(USER_FRACTION * s.lambda_0, TORUS10, layer_rng(17, rep, 4))
            kept = stations.points[layer_rng(17, rep, 5).random(len(stations)) < STATION_FRACTION]
            pairs.append((thinned, stations.points))
            layers = [
                sample_ppp(intensity, TORUS10, layer_rng(17, rep, layer))
                for layer, intensity in ((6, s.lambda_2_mw), (7, s.lambda_2_of))
            ]
            pairs += [(kept, nodes) for nodes in layers] + [(np.concatenate(layers), centers)]
            for lower, upper in pairs:
                assigned, dist = nearest_assign(lower, upper, TORUS10)
                want_dist, want = cKDTree(upper, boxsize=TORUS10.width).query(lower, k=1)
                assert np.array_equal(assigned, want)
                assert np.array_equal(dist, want_dist)

    def test_only_ghost_hits_and_fallback_rows_are_measured_again(self):
        """A hit on an original upper point keeps the tree's distance; only the other rows meet Window.distance."""
        s = default_scenario()
        users = sample_ppp(s.lambda_0, TORUS10, layer_rng(17, 0, 0))
        stations = sample_cluster_bs(s.lambda_1c, s.lambda_1m, s.sigma, TORUS10, layer_rng(17, 0, 1)).points
        backhaul = sample_backhaul(s.p_mw, s.lambda_2_mw, s.lambda_2_of, TORUS10, layer_rng(17, 0, 2)).nodes
        centers = sample_ppp(s.lambda_3, TORUS10, layer_rng(17, 0, 3))
        measured, fallback = [], []
        window_distance = Window.distance

        def counting_distance(window, a, b):
            measured.append(len(a))
            return window_distance(window, a, b)

        class RecordingTree(cKDTree):
            def query(self, x, *args, **kwargs):
                if self.boxsize is not None:
                    fallback.extend(map(tuple, x))
                return super().query(x, *args, **kwargs)

        total = 0
        for lower, upper in [(users, stations), (stations, backhaul), (backhaul, centers)]:
            measured.clear(), fallback.clear()
            with mock.patch.object(Window, "distance", counting_distance):
                with mock.patch("scipy.spatial.cKDTree", RecordingTree):
                    assigned, _ = nearest_assign(lower, upper, TORUS10)
            missed_points = set(fallback)
            missed = np.array([tuple(p) in missed_points for p in lower], dtype=bool)
            # the nearest image lies across an edge: the padded tree found a ghost
            across = np.any(np.abs(lower - upper[assigned]) > 0.5 * TORUS10.width, axis=1)
            assert sum(measured) == np.count_nonzero(across & ~missed) + np.count_nonzero(missed)
            total += sum(measured)
        assert 0 < total < 0.1 * len(users)


def test_layer_rng_streams_are_independent_and_reproducible():
    a = layer_rng(42, 0, 1).random(5)
    b = layer_rng(42, 0, 1).random(5)
    c = layer_rng(42, 0, 2).random(5)
    d = layer_rng(42, 1, 1).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
