"""Tests for the Monte Carlo deployment oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest

from crancost import simulate
from crancost.config import default_scenario
from crancost.costs import (
    COST_TERMS,
    Architecture,
    EquipmentCosts,
    LinkCost,
    LinkCostParams,
    Scenario,
    datacenter_cost,
)
from crancost.errors import AssignmentError, EstimationError, ParameterError
from crancost.geometry import BackhaulDraw, BackhaulTech, MarkedBaseStationSet, Window, sample_ppp
from crancost.simulate import (
    USER_FRACTION,
    _replication_terms,
    compare_to_closed_form,
    estimate_mean_dc_cost,
    price_layers,
    realization_rows,
    simulate_realization,
)

TORUS10 = Window(10.0, 10.0)

UNIT_LINKS = LinkCostParams(
    user_bs=LinkCost(1.0, 1.0, 1.0, 1.0),
    bs_backhaul_mw=LinkCost(1.0, 1.0, 1.0, 1.0),
    bs_backhaul_of=LinkCost(1.0, 1.0, 1.0, 1.0),
    backhaul_dc_mw=LinkCost(1.0, 1.0, 1.0, 1.0),
    backhaul_dc_of=LinkCost(1.0, 1.0, 1.0, 1.0),
    processing_base=1.0,
)

#: a lone macro at (2, 0), wired to a lone microwave backhaul node at (1, 0)
#: and a lone data center at the origin
ONE_MACRO = MarkedBaseStationSet(np.array([[2.0, 0.0]]), 1, np.empty(0, dtype=int))
ONE_MW_NODE = BackhaulDraw(np.array([[1.0, 0.0]]), BackhaulTech.MW)
ONE_CENTER = np.array([[0.0, 0.0]])


def total(real) -> float:
    return math.fsum(real.term_totals.values())


#: the terms summed over the stations, which an oracle replication samples at STATION_FRACTION
STATION_LINEAR = ("capacity_dc", "capacity_bs_backhaul", "infra_bs_backhaul")

#: (architecture, window, seed) of the pinned six-replication estimates
PINNED_CASES = {
    "torus": (Architecture.CLOUD_RAN, Window(4.0, 4.0), 11),
    "dran": (Architecture.DRAN, Window(4.0, 4.0), 13),
}

#: the nine means with the backhaul links of every station priced (STATION_FRACTION = 1)
FULL_STATION_PINS = {
    "torus": {
        "equipment_backhaul": "0x1.0e4ae0e38e38fp+18",
        "processing": "0x1.21485ad07d01fp+15",
        "capacity_dc": "0x1.c2fc37ecaeb0bp+15",
        "infra_dc": "0x1.f8a89e222aa61p+13",
        "equipment_bs": "0x1.991238e38e38fp+17",
        "capacity_bs_backhaul": "0x1.6f353a0b0737fp+15",
        "infra_bs_backhaul": "0x1.cf470944fc19cp+17",
        "capacity_user_bs": "0x1.90c88fc2c947dp+4",
        "infra_user_bs": "0x1.cfff1bff350dbp+11",
    },
    "dran": {
        "equipment_backhaul": "0x1.2ac68b8e38e3ap+18",
        "processing": "0x1.ade979c9ed394p+15",
        "capacity_dc": "0x1.b8b94c0969384p+15",
        "infra_dc": "0x1.2687cb5d4c621p+14",
        "equipment_bs": "0x1.af1c955555555p+18",
        "capacity_bs_backhaul": "0x1.51f800da7ba75p+15",
        "infra_bs_backhaul": "0x1.acd37f7505988p+17",
        "capacity_user_bs": "0x1.6c5d36376d845p+4",
        "infra_user_bs": "0x1.bb2c5e0729544p+11",
    },
}

#: the station-linear means at the default STATION_FRACTION; the other six are those above
STATION_SAMPLE_PINS = {
    "torus": {
        "capacity_dc": "0x1.bba158f3520b4p+15",
        "capacity_bs_backhaul": "0x1.5ef9103a4080bp+15",
        "infra_bs_backhaul": "0x1.bf1d5d6f81974p+17",
    },
    "dran": {
        "capacity_dc": "0x1.ae7111e441238p+15",
        "capacity_bs_backhaul": "0x1.467ec86156fdbp+15",
        "infra_bs_backhaul": "0x1.b43154fdeebd8p+17",
    },
}


def _pinned_hex(case: str) -> dict[str, str]:
    architecture, window, seed = PINNED_CASES[case]
    est = estimate_mean_dc_cost(default_scenario(architecture), window, 6, seed=seed)
    assert (est.n_reps, est.n_discarded) == (6, 0)
    return {name: mean.hex() for name, mean in est.per_term_means.items()}


class TestSimulateRealization:
    def test_hand_instance_cost_is_seven(self):
        """One DC, one backhaul 1 km away, one macro 1 km further, one user
        1 km further still; unit bases, unit exponents, zero equipment:
        backhaul term 0 + 1*(1+1) + 1 = 3, station term 0 + 1 + 1 + (1+1) = 4.
        """
        scen = Scenario(
            equipment=EquipmentCosts(c_macro=0.0, c_micro=0.0, c_mw=0.0, c_of=0.0, c_dc=0.0),
            links=UNIT_LINKS,
        )
        users = np.array([[3.0, 0.0]])
        priced = price_layers(scen, TORUS10, users, ONE_MACRO, ONE_MW_NODE, ONE_CENTER)
        assert total(priced) == pytest.approx(7.0, rel=1e-12)
        assert priced.term_totals["capacity_dc"] == pytest.approx(1.0)  # N_z * A' * d^beta
        assert priced.term_totals["processing"] == pytest.approx(1.0)  # N_z * A''
        assert priced.term_totals["infra_dc"] == pytest.approx(1.0)
        assert priced.term_totals["capacity_user_bs"] == pytest.approx(1.0)
        assert priced.term_totals["infra_user_bs"] == pytest.approx(1.0)

    def test_empty_subtrees_price_backhaul_equipment_only(self):
        scen = Scenario(
            equipment=EquipmentCosts(c_macro=0.0, c_micro=0.0, c_mw=50000.0, c_of=5000.0, c_dc=0.0),
            links=replace(UNIT_LINKS, processing_base=0.0),
            p_mw=1.0,
            lambda_2_mw=1.0,
        )
        no_users = np.empty((0, 2))
        priced = price_layers(scen, TORUS10, no_users, ONE_MACRO, ONE_MW_NODE, ONE_CENTER)
        # the lone backhaul node costs C2; the station still pays its links
        assert priced.term_totals["equipment_backhaul"] == pytest.approx(scen.c2)
        assert priced.term_totals["capacity_user_bs"] == 0.0

    def test_deterministic_given_seed(self):
        scen = default_scenario()
        a = simulate_realization(scen, TORUS10, seed=5)
        b = simulate_realization(scen, TORUS10, seed=5)
        assert total(a) == total(b)
        assert np.array_equal(a.users, b.users)

    def test_subtree_counts_conserve_users(self):
        scen = default_scenario()
        real = simulate_realization(scen, TORUS10, seed=3)
        n_users = len(real.users)
        assert real.users_per_bs.sum() == n_users
        assert real.users_per_backhaul.sum() == n_users
        assert real.users_per_dc.sum() == n_users

    def test_under_provisioned_realization_raises(self):
        scen = replace(default_scenario(), lambda_3=0.001)
        tiny = Window(2.0, 2.0)
        with pytest.raises(AssignmentError):
            # expected DC count 0.004; some seed will have zero data centers
            for seed in range(50):
                simulate_realization(scen, tiny, seed=seed)

    def test_translation_invariance_on_torus(self):
        """Shifting every layer by the same offset leaves the cost unchanged."""
        scen = default_scenario()
        real = simulate_realization(scen, TORUS10, seed=13)
        offset = np.array([3.7, 8.1])

        def shift(points):
            return TORUS10.wrap_points(points + offset)

        bs = real.base_stations
        stations = MarkedBaseStationSet(shift(bs.points), bs.n_macros, bs.parent_of)
        backhaul = BackhaulDraw(shift(real.backhaul.nodes), real.backhaul.realized)
        shifted = price_layers(scen, TORUS10, shift(real.users), stations, backhaul, shift(real.data_centers))
        assert total(shifted) == pytest.approx(total(real), rel=1e-9)


class TestEstimateMeanDcCost:
    def test_zero_cost_scenario(self):
        scen = Scenario(
            equipment=EquipmentCosts(c_macro=0.0, c_micro=0.0, c_mw=0.0, c_of=0.0, c_dc=0.0),
            links=replace(
                UNIT_LINKS,
                user_bs=LinkCost(0, 1, 0, 1),
                bs_backhaul_mw=LinkCost(0, 1, 0, 1),
                bs_backhaul_of=LinkCost(0, 1, 0, 1),
                backhaul_dc_mw=LinkCost(0, 1, 0, 1),
                backhaul_dc_of=LinkCost(0, 1, 0, 1),
                processing_base=0.0,
            ),
        )
        est = estimate_mean_dc_cost(scen, Window(4.0, 4.0), 20, seed=1)
        assert est.mean == 0.0
        assert est.std_error == 0.0

    def test_requires_at_least_two_reps(self):
        with pytest.raises(ParameterError):
            estimate_mean_dc_cost(default_scenario(), TORUS10, 1, seed=0)

    @pytest.mark.parametrize(
        "argument,value",
        [("seed", -1), ("seed", 1.5), ("seed", True), ("n_reps", 2.5), ("threads", 0), ("threads", True)],
    )
    def test_run_settings_must_be_integers_in_range(self, argument, value):
        settings = {"n_reps": 2, "seed": 0, argument: value}
        with pytest.raises(ParameterError, match=f"^{argument} must be an integer"):
            estimate_mean_dc_cost(default_scenario(), TORUS10, **settings)

    def test_no_more_workers_than_replications(self, monkeypatch):
        """5000 threads for 2 replications start a pool of 2, and the estimate is the serial one."""
        started = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor: records the worker count and maps in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, jobs, chunksize):
                return map(fn, jobs)

        window = Window(4.0, 4.0)
        serial = estimate_mean_dc_cost(default_scenario(), window, 2, seed=0)
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingPool)
        assert estimate_mean_dc_cost(default_scenario(), window, 2, seed=0, threads=5000) == serial
        assert started == [2]

    def test_all_discarded_raises(self):
        scen = replace(default_scenario(), lambda_3=1e-9)
        with pytest.raises(EstimationError):
            estimate_mean_dc_cost(scen, Window(1.0, 1.0), 5, seed=0)

    @pytest.mark.parametrize("case", sorted(PINNED_CASES))
    def test_per_term_means_are_pinned(self, case):
        """Sampling, assignment and pricing reproduce recorded means to the last bit."""
        assert _pinned_hex(case) == {**FULL_STATION_PINS[case], **STATION_SAMPLE_PINS[case]}

    @pytest.mark.parametrize("case", sorted(PINNED_CASES))
    def test_a_station_fraction_of_one_keeps_every_station(self, monkeypatch, case):
        """At fraction 1 the mask keeps every station and no other stream or operation moves."""
        monkeypatch.setattr(simulate, "STATION_FRACTION", 1.0)
        assert _pinned_hex(case) == FULL_STATION_PINS[case]

    def test_an_empty_station_sample_prices_the_station_linear_terms_at_zero(self, monkeypatch):
        """An empty sample is kept, not discarded; the six other terms keep their fraction-1 bits."""
        monkeypatch.setattr(simulate, "STATION_FRACTION", 2.0**-30)
        assert _pinned_hex("torus") == {
            name: (0.0).hex() if name in STATION_LINEAR else pin for name, pin in FULL_STATION_PINS["torus"].items()
        }

    def test_conditioning_on_the_backhaul_draw_is_exact(self):
        """At p = 0.5 a replication's totals are the mean of its p = 1 and p = 0 totals.

        Each technology's layer has its own stream, so the layers priced at
        p = 0.5 are those priced at p = 1 and at p = 0. ``equipment_backhaul``
        is left out: its ``c2`` depends on p.
        """
        scen = default_scenario()
        for rep in range(3):
            half, mw, of = (
                _replication_terms((replace(scen, p_mw=p), Window(4.0, 4.0), 17, rep)) for p in (0.5, 1.0, 0.0)
            )
            for j, name in enumerate(COST_TERMS):
                if name != "equipment_backhaul":
                    assert half[j] == pytest.approx(0.5 * mw[j] + 0.5 * of[j], rel=1e-12), (rep, name)

    @pytest.mark.parametrize("p_mw", [0.0, 1.0])
    def test_a_technology_of_weight_zero_is_not_sampled(self, monkeypatch, p_mw):
        """At p = 0 or 1 a replication samples thinned users, data centers and one backhaul layer."""
        scen = replace(default_scenario(), p_mw=p_mw)
        intensities = []

        def recording(intensity, window, seed):
            intensities.append(intensity)
            return sample_ppp(intensity, window, seed)

        monkeypatch.setattr(simulate, "sample_ppp", recording)
        estimate_mean_dc_cost(scen, Window(4.0, 4.0), 3, seed=5)
        backhaul = scen.lambda_2_mw if p_mw == 1.0 else scen.lambda_2_of
        assert intensities == 3 * [USER_FRACTION * scen.lambda_0, scen.lambda_3, backhaul]

    def test_worker_count_does_not_change_results(self):
        scen = default_scenario()
        w = Window(5.0, 5.0)
        serial = estimate_mean_dc_cost(scen, w, 16, seed=9, threads=1)
        parallel = estimate_mean_dc_cost(scen, w, 16, seed=9, threads=2)
        assert serial.mean == parallel.mean
        assert serial.per_term_means == parallel.per_term_means

    def test_window_doubling_leaves_means_unchanged(self):
        scen = default_scenario()
        small = estimate_mean_dc_cost(scen, Window(7.0, 7.0), 120, seed=21)
        large = estimate_mean_dc_cost(scen, Window(9.9, 9.9), 120, seed=22)
        se = math.hypot(small.std_error, large.std_error)
        assert small.mean == pytest.approx(large.mean, abs=3.5 * se)


class TestCompareToClosedForm:
    def test_zero_cost_scenario_passes_with_zero_z(self):
        scen = Scenario(
            equipment=EquipmentCosts(c_macro=0.0, c_micro=0.0, c_mw=0.0, c_of=0.0, c_dc=0.0),
            links=replace(
                UNIT_LINKS,
                user_bs=LinkCost(0, 1, 0, 1),
                bs_backhaul_mw=LinkCost(0, 1, 0, 1),
                bs_backhaul_of=LinkCost(0, 1, 0, 1),
                backhaul_dc_mw=LinkCost(0, 1, 0, 1),
                backhaul_dc_of=LinkCost(0, 1, 0, 1),
                processing_base=0.0,
            ),
        )
        report = compare_to_closed_form(scen, Window(4.0, 4.0), 20, seed=2)
        assert report.passed
        assert all(z == 0.0 for z in report.z_scores.values())

    def test_negative_control_detects_corrupted_closed_form(self):
        """Doubling the capacity base in the closed form must blow the z-score."""
        scen = replace(default_scenario(), lambda_1m=0.0, lambda_1c=10.0, p_mw=1.0, lambda_2_mw=5.0)
        est = estimate_mean_dc_cost(scen, TORUS10, 150, seed=11)
        corrupted = replace(
            scen,
            links=replace(
                scen.links, backhaul_dc_mw=replace(scen.links.backhaul_dc_mw, a=2 * scen.links.backhaul_dc_mw.a)
            ),
        )
        closed_bad = datacenter_cost(corrupted)
        z = (est.per_term_means["capacity_dc"] - closed_bad.capacity_dc) / est.per_term_std_errors[
            "capacity_dc"
        ]
        assert abs(z) > 3.0

    @staticmethod
    def _z_against_a_10pct_error(term: str) -> float:
        scen = default_scenario()
        est = estimate_mean_dc_cost(scen, TORUS10, 40, seed=31)
        corrupted = 1.1 * datacenter_cost(scen).as_dict()[term]
        return (est.per_term_means[term] - corrupted) / est.per_term_std_errors[term]

    def test_negative_control_on_a_backhaul_term_at_40_replications(self):
        """A 10% error in the closed form's ``infra_bs_backhaul`` shows at 40 default replications.

        Priced under both technologies, that term's standard error is about
        0.8% of its mean at 40 replications on the 10 km torus, so the error
        sits about 12 standard errors out. With one Bernoulli draw of the
        technology per replication it was about 15%, and the same error
        would hide inside one standard error.
        """
        assert abs(self._z_against_a_10pct_error("infra_bs_backhaul")) > 3.0

    def test_negative_control_where_station_sampling_loosens_the_gate_most(self):
        """A 10% error in the closed form's ``capacity_bs_backhaul`` shows at 40 default replications.

        Sampling the stations at ``STATION_FRACTION`` widens this term's
        standard error the most: about 0.8% of its mean at 40 replications
        on the 10 km torus (0.5% with every station priced), so the error
        still sits about 12 standard errors out.
        """
        assert abs(self._z_against_a_10pct_error("capacity_bs_backhaul")) > 3.0

    @pytest.mark.parametrize("field", ["lambda_0", "lambda_1m", "lambda_2_mw", "lambda_3"])
    def test_a_layer_count_numpy_cannot_draw_is_a_parameter_error(self, field):
        with pytest.raises(ParameterError, match="mean count"):
            estimate_mean_dc_cost(replace(default_scenario(), **{field: 1e300}), Window(3.0, 3.0), 2, seed=0)

    def test_report_rows_are_complete(self):
        scen = replace(default_scenario(), lambda_1m=0.0, lambda_1c=10.0, p_mw=1.0, lambda_2_mw=5.0)
        report = compare_to_closed_form(scen, Window(6.0, 6.0), 40, seed=3)
        rows = report.rows()
        assert [r["term"] for r in rows][-1] == "c_phi3"
        assert len(rows) == 10
        assert "discard rate" in report.window_note
        n = report.estimate.n_reps
        for row in rows:
            # the fewest replications whose standard error, at this variance, is 1% of the closed form
            target, reps = 0.01 * row["closed_form"], row["reps_to_1pct"]
            assert row["std_error"] * math.sqrt(n / reps) <= target
            assert reps == 1 or row["std_error"] * math.sqrt(n / (reps - 1)) > target

    def test_reps_to_1pct_is_none_where_the_closed_form_is_zero(self):
        scen = replace(default_scenario(), links=replace(default_scenario().links, processing_base=0.0))
        rows = {row["term"]: row for row in compare_to_closed_form(scen, Window(4.0, 4.0), 4, seed=3).rows()}
        assert rows["processing"]["reps_to_1pct"] is None
        assert isinstance(rows["infra_dc"]["reps_to_1pct"], int)


def test_realization_rows_roundtrip():
    scen = default_scenario()
    real = simulate_realization(scen, Window(4.0, 4.0), seed=6)
    rows = realization_rows(real)
    by_layer = {}
    for layer, x, y, parent, subtree in rows:
        by_layer.setdefault(layer, []).append((x, y, parent, subtree))
    assert len(by_layer["users"]) == len(real.users)
    assert len(by_layer["base_stations"]) == len(real.base_stations)
    assert len(by_layer["data_centers"]) == real.n_dc
    # subtree conservation visible in the export
    assert sum(r[3] for r in by_layer["data_centers"]) == len(real.users)
    assert all(r[2] == -1 for r in by_layer["data_centers"])
