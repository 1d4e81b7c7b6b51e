"""Acceptance suite: one test per release criterion.

Each test enforces its stated tolerance and runtime budget and prints one
PASS line with the measured values (visible with ``pytest -s``).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from crancost.complexity import (
    DecoderParams,
    DegenerateSnrSampler,
    default_mcs_rates,
    dran_equivalent_demand,
    make_snr_sampler,
    outage_demand,
    processing_cost_rate,
    snr_thresholds,
)
from crancost.config import default_scenario
from crancost.costs import Architecture, datacenter_cost
from crancost.dimensioning import (
    invert_for_bs_intensity,
    spatial_avg_rate,
    RadioParams,
)
from crancost.geometry import Window, layer_rng, sample_cluster_bs
from crancost.simulate import compare_to_closed_form
from crancost.spatial_stats import (
    ClusterParams,
    cluster_nn_moment,
    nn_distance_cdf,
    ppp_contact_moment,
)
from test_dimensioning import large_x_asymptotic_rate, spatial_avg_rate_naive

TORUS10 = Window(10.0, 10.0)


def _report(n: int, message: str, t0: float, budget_s: float) -> None:
    elapsed = time.time() - t0
    print(f"PASS criterion {n}: {message} [{elapsed:.1f}s < {budget_s:.0f}s]")
    assert elapsed < budget_s


def test_criterion_01_dimensioning_round_trip():
    t0 = time.time()
    targets = {1.0847: 50.03, 1.09792: 51.2, 1.114451: 52.8}
    got = {}
    for target, expected in targets.items():
        lam1 = invert_for_bs_intensity(target, 170.0)
        assert lam1 == pytest.approx(expected, abs=0.5)
        got[target] = lam1
    _report(1, f"station intensities {', '.join(f'{v:.2f}' for v in got.values())} per km^2", t0, 1.0)


def test_criterion_02_processing_cost_rows_exact():
    t0 = time.time()
    rows = [
        ((0.111, 0.0051, 50.0), 653.54),
        ((0.096, 0.0036, 51.2), 578.68),
        ((0.083, 0.0027, 52.8), 515.89),
    ]
    for (slope, intercept, lam1), expected in rows:
        assert processing_cost_rate(slope, intercept, lam1, 20000.0, 170.0) == pytest.approx(
            expected, abs=0.01
        )
    _report(2, "per-user processing costs 653.54 / 578.68 / 515.89 $", t0, 1.0)


def test_criterion_03_cluster_moment_degenerate_case():
    t0 = time.time()
    worst = 0.0
    for beta in (1.0, 2.0, 4.0):
        for lam in (1.0, 10.0, 50.0):
            got = cluster_nn_moment(beta, ClusterParams(lam, 0.0, 0.5))
            want = ppp_contact_moment(beta, lam)
            rel = abs(got - want) / want
            worst = max(worst, rel)
            assert rel < 1e-3
    _report(3, f"degenerate-cluster moments match Poisson closed form, worst rel err {worst:.1e}", t0, 10.0)


def test_criterion_04_oracle_equivalence_all_poisson():
    t0 = time.time()
    scen = replace(default_scenario(), lambda_1c=10.0, lambda_1m=0.0, p_mw=1.0, lambda_2_mw=5.0)
    report = compare_to_closed_form(scen, TORUS10, 2000, seed=2024)
    worst = max(abs(z) for z in report.z_scores.values())
    assert report.passed, {k: round(v, 2) for k, v in report.z_scores.items()}
    _report(4, f"all-Poisson deployment matches closed form, worst |z| {worst:.2f} over 2000 reps", t0, 300.0)


def test_criterion_05_oracle_equivalence_full_clustered():
    t0 = time.time()
    scen = default_scenario()
    report = compare_to_closed_form(scen, TORUS10, 2000, seed=4094)
    worst = max(abs(z) for z in report.z_scores.values())
    assert report.passed, {k: round(v, 2) for k, v in report.z_scores.items()}
    _report(5, f"clustered deployment matches closed form, worst |z| {worst:.2f} over 2000 reps", t0, 600.0)


def test_criterion_06_headline_savings_band():
    t0 = time.time()
    grid = [1.0 + 0.25 * k for k in range(9)]  # 1.0 .. 3.0
    cloud_by_lam3 = {
        v: datacenter_cost(replace(default_scenario(), lambda_3=v)).total_per_km2 for v in grid
    }
    lam3_star = min(cloud_by_lam3, key=cloud_by_lam3.get)
    dran = datacenter_cost(replace(default_scenario(architecture=Architecture.DRAN), lambda_3=lam3_star))
    savings = 1.0 - cloud_by_lam3[lam3_star] / dran.total_per_km2
    assert 0.05 <= savings <= 0.20
    _report(
        6,
        f"centralized deployment saves {100 * savings:.1f}% at lambda_3 = {lam3_star:g} (band 5-20%)",
        t0,
        60.0,
    )


def test_criterion_07_figure_shape_properties():
    t0 = time.time()
    base_cloud = default_scenario()
    base_dran = default_scenario(architecture=Architecture.DRAN)

    # (a) interior minimum of the centralized curve over lambda_3
    lam3_grid = [0.5 * k for k in range(1, 13)]
    cloud_curve = [datacenter_cost(replace(base_cloud, lambda_3=v)).total_per_km2 for v in lam3_grid]
    arg = cloud_curve.index(min(cloud_curve))
    assert 0 < arg < len(lam3_grid) - 1
    dran_curve = [datacenter_cost(replace(base_dran, lambda_3=v)).total_per_km2 for v in lam3_grid]
    assert all(c < d for v, c, d in zip(lam3_grid, cloud_curve, dran_curve) if 1.0 <= v <= 3.0)

    # (b) nondecreasing in the station-price scale, cheaper at alpha = 0.5
    alphas = [0.0, 0.25, 0.5, 0.75, 1.0]
    alpha_curve = [
        datacenter_cost(replace(base_cloud, equipment=replace(base_cloud.equipment, alpha=a))).total_per_km2
        for a in alphas
    ]
    assert all(b >= a - 1e-9 for a, b in zip(alpha_curve, alpha_curve[1:]))
    assert alpha_curve[2] < datacenter_cost(base_dran).total_per_km2

    # (c) relative savings do not decrease with user intensity
    from crancost.sweeps import scenario_for_point

    savings = []
    for lam0 in (100.0, 170.0, 300.0):
        c = datacenter_cost(scenario_for_point(base_cloud, "cloud_ran@0db", "lambda0", lam0)).total_per_km2
        d = datacenter_cost(scenario_for_point(base_cloud, "dran", "lambda0", lam0)).total_per_km2
        savings.append(1.0 - c / d)
    assert all(b >= a - 1e-12 for a, b in zip(savings, savings[1:]))

    # (d) a technology mix undercuts either pure deployment
    for base in (base_cloud, base_dran):
        by_p = {p: datacenter_cost(replace(base, p_mw=p)).total_per_km2 for p in (0.0, 0.5, 1.0)}
        assert by_p[0.5] <= by_p[0.0] and by_p[0.5] <= by_p[1.0]

    _report(
        7,
        "interior lambda_3 minimum; alpha monotone; savings grow with users "
        f"({', '.join(f'{100 * s:.1f}%' for s in savings)}); mixed backhaul cheapest",
        t0,
        120.0,
    )


def test_criterion_08_complexity_properties():
    t0 = time.time()
    params = DecoderParams()
    single = snr_thresholds(np.array([1.0]), params)
    spot = outage_demand(1, 0.1, DegenerateSnrSampler(3.0), single, params, n_mc=128, seed=1)
    assert spot == pytest.approx(0.74807, abs=1e-4)

    mcs = snr_thresholds(default_mcs_rates(), params)
    sampler = make_snr_sampler("nearest_bs", lambda_1=50.0)
    sizes = [1, 2, 5, 10, 20, 50]
    pooled = [outage_demand(n, 0.1, sampler, mcs, params, n_mc=30_000, seed=8) for n in sizes]
    standalone = [
        dran_equivalent_demand(n, 0.1, sampler, mcs, params, n_mc=30_000, seed=8) for n in sizes
    ]
    per_station = [p / n for p, n in zip(pooled, sizes)]
    assert all(b <= a + 1e-12 for a, b in zip(per_station, per_station[1:]))
    assert all(p <= d + 1e-9 for p, d in zip(pooled, standalone))
    _report(
        8,
        f"workload spot value {spot:.5f}; pooled demand per station falls "
        f"{per_station[0]:.2f} -> {per_station[-1]:.2f} and never exceeds standalone",
        t0,
        60.0,
    )


def test_criterion_09_numerically_stable_rate():
    t0 = time.time()
    stable = spatial_avg_rate(170.0, 50.03)
    asymptotic = large_x_asymptotic_rate(170.0, 50.03)
    assert abs(stable - asymptotic) / asymptotic < 1e-4

    weak = RadioParams(ptx_dbm=0.0, noise_dbm=-20.0)  # x <= 20: naive form finite
    for lam0 in (0.01, 0.05, 0.2, 0.5):
        naive = spatial_avg_rate_naive(lam0, 5.0, weak)
        assert math.isfinite(naive)
        assert abs(spatial_avg_rate(lam0, 5.0, weak) - naive) / naive < 1e-10
    _report(9, f"erfcx evaluation within 1e-4 of the sqrt asymptote ({stable:.5f} bps/Hz)", t0, 1.0)


def _empirical_nn_ks(params: ClusterParams, side: float, n_rep: int, seed: int) -> float:
    w = Window(side, side)
    samples = []
    for i in range(n_rep):
        bs = sample_cluster_bs(params.lambda_1c, params.lambda_1m, params.sigma, w, layer_rng(seed, i, 1))
        pts = bs.points
        if len(pts) < 2:
            continue
        tree = cKDTree(pts, boxsize=w.spans)
        d, _ = tree.query(pts, k=2)
        samples.append(d[:, 1])
    d = np.sort(np.concatenate(samples))
    grid = np.quantile(d, np.linspace(0.005, 0.995, 60))
    empirical = np.searchsorted(d, grid, side="right") / len(d)
    theoretical = np.array([nn_distance_cdf(r, params) for r in grid])
    return float(np.max(np.abs(empirical - theoretical)))


def test_criterion_10_nearest_neighbor_cdf_statistics():
    t0 = time.time()
    cases = [
        ClusterParams(10.0, 4.0, math.sqrt(0.5)),
        ClusterParams(20.0, 2.0, 0.5),
    ]
    distances = []
    for params in cases:
        ks = _empirical_nn_ks(params, side=4.0, n_rep=10_000, seed=31)
        distances.append(ks)
        assert ks < 0.02
    _report(
        10,
        "nearest-neighbor CDF matches simulation, KS "
        + ", ".join(f"{k:.4f}" for k in distances)
        + " over 10,000 realizations each",
        t0,
        300.0,
    )
