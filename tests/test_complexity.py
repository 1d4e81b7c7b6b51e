"""Tests for the decoder workload model and server dimensioning."""

import copy
import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crancost import complexity
from crancost.complexity import (
    SERVER_COST,
    DecoderParams,
    DegenerateSnrSampler,
    NearestBsSnrSampler,
    db_to_linear,
    decoding_complexity,
    default_mcs_rates,
    dran_equivalent_demand,
    make_snr_sampler,
    outage_demand,
    pooling_table,
    processing_cost_rate,
    servers_required,
    snr_thresholds,
)
from crancost.config import derive_processing_base
from crancost.costs import Architecture
from crancost.dimensioning import DRAN_POOLING_FACTOR, OFFSET_PRESETS
from crancost.errors import ParameterError, SamplerDomainError

PARAMS = DecoderParams()


def offset_table(gamma):
    params = DecoderParams(gamma_offset_db=gamma)
    return snr_thresholds(default_mcs_rates(), params), params


#: the MCS table and decoder of each supported offset
TABLES = {gamma: offset_table(gamma) for gamma in (0.0, 0.4, 0.9)}


class TestDecodingComplexity:
    def test_spot_value(self):
        # gamma=3, rate=1: the log2(1) term vanishes and
        # (1/log2 5)*log2(4/1.2) remains
        assert decoding_complexity(3.0, 1.0) == pytest.approx(0.74807, abs=1e-4)

    def test_clamp_boundary(self):
        # margin such that the bracket hits exactly zero:
        # log2(1+gamma) - rate = sqrt((zeta-2)/(k*zeta))
        margin = math.sqrt((PARAMS.zeta - 2.0) / (PARAMS.k_scaling * PARAMS.zeta))
        gamma = 2.0 ** (1.0 + margin) - 1.0
        assert decoding_complexity(gamma, 1.0) == pytest.approx(0.0, abs=1e-12)
        # and beyond the boundary it stays clamped at zero
        assert decoding_complexity(4.0 * gamma, 1.0) == 0.0

    def test_diverges_toward_the_rate_threshold(self):
        rate = 1.0
        gammas = [2.0 ** (rate + eps) - 1.0 for eps in (0.5, 0.1, 0.01, 0.001, 1e-5)]
        values = [decoding_complexity(g, rate) for g in gammas]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 10.0

    def test_below_capacity_is_a_domain_error(self):
        with pytest.raises(SamplerDomainError):
            decoding_complexity(1.0, 1.0)  # log2(2) == rate
        with pytest.raises(SamplerDomainError):
            decoding_complexity(0.5, 1.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, -2.0, -1.0, -0.5])
    def test_snr_not_finite_and_non_negative_is_a_domain_error(self, gamma):
        with pytest.raises(SamplerDomainError, match="finite and >= 0"):
            decoding_complexity(gamma, 0.5)

    @given(rate=st.floats(0.2, 4.0), extra=st.floats(0.05, 1.5))
    @settings(max_examples=80, deadline=None)
    def test_increasing_in_rate_at_fixed_margin(self, rate, extra):
        g1 = 2.0 ** (rate + extra) - 1.0
        g2 = 2.0 ** (rate + 0.3 + extra) - 1.0
        d1 = decoding_complexity(g1, rate)
        d2 = decoding_complexity(g2, rate + 0.3)
        if d1 > 0:  # below the clamp both scale with the rate factor
            assert d2 >= d1 - 1e-9

    @given(rate=st.floats(0.2, 4.0), e1=st.floats(0.01, 1.0), e2=st.floats(0.01, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_decreasing_in_snr_above_threshold(self, rate, e1, e2):
        lo, hi = sorted((e1, e2))
        d_lo = decoding_complexity(2.0 ** (rate + lo) - 1.0, rate)
        d_hi = decoding_complexity(2.0 ** (rate + hi) - 1.0, rate)
        assert d_hi <= d_lo + 1e-9


class TestDecoderParams:
    @pytest.mark.parametrize("field", ["zeta", "k_scaling", "nu_db", "gamma_offset_db"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_fields_must_be_finite(self, field, value):
        with pytest.raises(ParameterError, match="finite"):
            DecoderParams(**{field: value})

    @pytest.mark.parametrize("nu_db,offset", [(0.0, 0.0), (-1.0, 0.0), (0.2, -1.0), (0.2, -0.2)])
    def test_the_total_margin_must_be_positive(self, nu_db, offset):
        """At 0 dB or less the admission thresholds sit at or below capacity."""
        with pytest.raises(ParameterError, match="nu_db \\+ gamma_offset_db"):
            DecoderParams(nu_db=nu_db, gamma_offset_db=offset)


class TestSnrThresholds:
    def test_capacity_threshold(self):
        mcs = snr_thresholds([2.0])
        assert mcs.gamma_capacity[0] == pytest.approx(3.0)

    def test_calibration_margin_at_zero_offset(self):
        mcs = snr_thresholds([1.0], DecoderParams(gamma_offset_db=0.0))
        assert mcs.gamma_admission[0] == pytest.approx(1.04713, abs=1e-5)

    def test_combined_margin(self):
        mcs = snr_thresholds([1.0], DecoderParams(gamma_offset_db=0.9))
        assert mcs.gamma_admission[0] == pytest.approx(1.28825, abs=1e-5)

    def test_margin_ratio_uniform_across_rates(self):
        params = DecoderParams(gamma_offset_db=0.4)
        mcs = snr_thresholds(default_mcs_rates(), params)
        ratio = mcs.gamma_admission / mcs.gamma_capacity
        expected = db_to_linear(0.2) * db_to_linear(0.4)
        assert np.allclose(ratio, expected, rtol=1e-12)

    def test_non_monotone_rates_rejected(self):
        with pytest.raises(ParameterError):
            snr_thresholds([1.0, 1.0])
        with pytest.raises(ParameterError):
            snr_thresholds([2.0, 1.0])

    @pytest.mark.parametrize("rates", [[0.5, math.nan], [0.5, math.inf], [math.nan]])
    def test_non_finite_rates_rejected(self, rates):
        with pytest.raises(ParameterError, match="finite"):
            snr_thresholds(rates)


def _searchsorted_select(mcs, gamma):
    """The binary-search reference for ``McsTable.select``."""
    return np.searchsorted(mcs.gamma_admission, np.asarray(gamma, dtype=float), side="right") - 1


class TestMcsSelect:
    def test_matches_searchsorted_at_and_around_every_threshold(self):
        mcs = snr_thresholds(default_mcs_rates())
        t = mcs.gamma_admission
        gamma = np.concatenate(
            [t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf), [0.0, t[0] / 2, 10 * t[-1], np.inf, -np.inf]]
        )
        k = mcs.select(gamma)
        assert np.array_equal(k, _searchsorted_select(mcs, gamma))
        assert k[: len(t)].tolist() == list(range(len(t)))
        assert (k[len(t) : 2 * len(t)] == np.arange(-1, len(t) - 1)).all()

    def test_below_all_and_above_the_top(self):
        mcs = snr_thresholds(default_mcs_rates())
        assert mcs.select([0.0, 1e-9, 1e9]).tolist() == [-1, -1, len(mcs) - 1]

    def test_empty_and_scalar_inputs(self):
        mcs = snr_thresholds(default_mcs_rates())
        assert mcs.select(np.empty(0)).shape == (0,)
        for gamma in (0.05, float(mcs.gamma_admission[3]), 2.5, 1e6):
            k = mcs.select(gamma)
            assert np.shape(k) == ()
            assert k == _searchsorted_select(mcs, gamma)

    def test_nan_meets_no_threshold(self):
        mcs = snr_thresholds(default_mcs_rates())
        assert mcs.select([np.nan, 3.0]).tolist() == [-1, _searchsorted_select(mcs, 3.0)]

    @pytest.mark.parametrize("n_rates", [1, 15, 127, 128, 300])
    def test_random_draws_on_tables_of_any_size(self, n_rates):
        mcs = snr_thresholds(default_mcs_rates(n_rates))
        sampler = make_snr_sampler("lognormal", median_db=5.0, sigma_db=15.0)
        gamma = sampler.sample(np.random.default_rng(n_rates), 5000)
        k = mcs.select(gamma)
        assert np.array_equal(k, _searchsorted_select(mcs, gamma))
        assert k.max() == len(mcs) - 1


class TestOutageDemand:
    def test_degenerate_sampler_reduces_to_single_complexity(self):
        mcs = snr_thresholds([1.0])
        d = outage_demand(1, 0.1, DegenerateSnrSampler(3.0), mcs, n_mc=64, seed=5)
        assert d == pytest.approx(decoding_complexity(3.0, 1.0), rel=1e-12)

    def test_degenerate_sampler_scales_linearly_in_pool_size(self):
        mcs = snr_thresholds([1.0])
        d1 = outage_demand(1, 0.1, DegenerateSnrSampler(3.0), mcs, n_mc=64, seed=5)
        d10 = outage_demand(10, 0.1, DegenerateSnrSampler(3.0), mcs, n_mc=64, seed=5)
        assert d10 == pytest.approx(10 * d1, rel=1e-12)

    def test_pool_size_monotonicity(self):
        mcs = snr_thresholds(default_mcs_rates())
        sampler = make_snr_sampler("nearest_bs", lambda_1=50.0)
        sizes = [1, 2, 5, 10, 20, 50]
        totals = [outage_demand(n, 0.1, sampler, mcs, n_mc=30_000, seed=3) for n in sizes]
        # total demand grows with the pool, per-station demand shrinks
        assert all(b >= a - 1e-12 for a, b in zip(totals, totals[1:]))
        per_station = [t / n for t, n in zip(totals, sizes)]
        assert all(b <= a + 1e-12 for a, b in zip(per_station, per_station[1:]))

    def test_nondecreasing_in_quantile_level(self):
        mcs = snr_thresholds(default_mcs_rates())
        sampler = make_snr_sampler("lognormal", median_db=10.0, sigma_db=5.0)
        d_strict = outage_demand(5, 0.05, sampler, mcs, n_mc=20_000, seed=9)
        d_loose = outage_demand(5, 0.2, sampler, mcs, n_mc=20_000, seed=9)
        assert d_strict >= d_loose

    def test_deterministic_given_seed(self):
        mcs = snr_thresholds(default_mcs_rates())
        sampler = make_snr_sampler("lognormal")
        a = outage_demand(4, 0.1, sampler, mcs, n_mc=5000, seed=42)
        b = outage_demand(4, 0.1, sampler, mcs, n_mc=5000, seed=42)
        assert a == b

    def test_sampler_below_thresholds_is_a_domain_error(self):
        mcs = snr_thresholds([2.0])  # admission ~ 3.14
        with pytest.raises(SamplerDomainError):
            outage_demand(1, 0.1, DegenerateSnrSampler(1.0), mcs, n_mc=100, seed=1)

    def test_a_draw_below_the_floor_is_rejected_above_the_top_capacity(self):
        """A draw that selects no MCS is redrawn even where the top rate could carry it."""
        params = DecoderParams(nu_db=3.0)
        mcs = snr_thresholds([1.0, 1.1], params)  # floor 1.995, top capacity 1.144
        with pytest.raises(SamplerDomainError, match="below the lowest admission threshold"):
            outage_demand(1, 0.1, DegenerateSnrSampler(1.5), mcs, params, n_mc=100, seed=1)

    class RareMinusInfSampler:
        """Keeps the stream contract; about one draw in 10^3 is -inf, below every floor."""

        def sample(self, rng, size):
            u = rng.random(size)
            return np.where(u > 1 - 1e-3, -np.inf, 3.0 + u)

    @pytest.mark.parametrize(
        "sampler",
        [make_snr_sampler("nearest_bs"), make_snr_sampler("lognormal", median_db=0.0), RareMinusInfSampler()],
        ids=["nearest_bs", "lognormal", "minus_inf"],
    )
    def test_rejected_draws_raise_no_warning(self, sampler):
        mcs, params = TABLES[0.9]
        assert np.any(sampler.sample(np.random.default_rng(1), 5 * 4000) < mcs.gamma_admission[0])
        complexity._memo = None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(outage_demand(5, 0.1, sampler, mcs, params, n_mc=4000, seed=1))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_draws_are_a_domain_error(self, value):
        class NonFiniteSampler:
            def sample(self, rng, size):
                return np.full(size, value)

        mcs = snr_thresholds(default_mcs_rates())
        with pytest.raises(SamplerDomainError, match="non-finite"):
            outage_demand(2, 0.1, NonFiniteSampler(), mcs, n_mc=10, seed=1)

    def test_non_finite_draw_in_a_late_block_is_a_domain_error(self):
        class LateNanSampler:
            def sample(self, rng, size):
                draws = np.full(size, 3.0)
                draws[-1] = np.nan
                return draws

        mcs = snr_thresholds(default_mcs_rates())
        # 80k draws: the NaN sits in the third workload block
        with pytest.raises(SamplerDomainError, match="non-finite"):
            outage_demand(2, 0.1, LateNanSampler(), mcs, n_mc=40_000, seed=1)

    def test_non_finite_draw_in_a_grown_tail_is_a_domain_error(self):
        class RareNanSampler:
            """Keeps the stream contract; about one draw in 10^4 is NaN, and -inf as often."""

            def sample(self, rng, size):
                u = rng.random(size)
                return np.where(u < 1e-4, np.nan, np.where(u > 1 - 1e-4, -np.inf, 3.0 + u))

        first_nan = int(np.argmax(np.isnan(RareNanSampler().sample(np.random.default_rng(1), 10**6))))
        mcs = snr_thresholds(default_mcs_rates())
        complexity._memo = None
        # the prefix ends before the NaN, and its -inf draws are redrawn
        assert math.isfinite(outage_demand(1, 0.1, RareNanSampler(), mcs, n_mc=first_nan, seed=1))
        # the head grows past the NaN
        with pytest.raises(SamplerDomainError, match="non-finite"):
            outage_demand(2, 0.1, RareNanSampler(), mcs, n_mc=first_nan, seed=1)

    def test_workload_memory_is_one_draw_array_plus_fixed_blocks(self):
        mcs = snr_thresholds(default_mcs_rates())
        sampler = make_snr_sampler("nearest_bs")
        tracemalloc.start()
        try:
            outage_demand(50, 0.1, sampler, mcs, n_mc=20_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 1M SNR draws alone take 8 MB
        assert peak <= 10e6

    def test_parameter_validation(self):
        mcs = snr_thresholds([1.0])
        sampler = DegenerateSnrSampler(3.0)
        with pytest.raises(ParameterError):
            outage_demand(0, 0.1, sampler, mcs)
        with pytest.raises(ParameterError):
            outage_demand(1, 0.0, sampler, mcs)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("seed", -1),
            ("seed", 1.5),
            ("seed", None),
            ("seed", True),
            ("n_cloud", 2.5),
            ("n_cloud", True),
            ("n_mc", 10.5),
        ],
    )
    def test_counts_and_seed_must_be_integers(self, name, value):
        mcs = snr_thresholds(default_mcs_rates())
        kwargs = {"n_cloud": 2, "n_mc": 16, "seed": 0, name: value}
        n_cloud = kwargs.pop("n_cloud")
        with pytest.raises(ParameterError, match=f"^{name} must be an integer"):
            outage_demand(n_cloud, 0.1, make_snr_sampler("nearest_bs"), mcs, **kwargs)

    def test_numpy_integers_are_accepted(self):
        mcs = snr_thresholds(default_mcs_rates())
        sampler = make_snr_sampler("nearest_bs")
        got = outage_demand(np.int64(3), 0.1, sampler, mcs, n_mc=np.int32(50), seed=np.uint8(4))
        assert got == outage_demand(3, 0.1, sampler, mcs, n_mc=50, seed=4)


class TestDranEquivalentDemand:
    def test_equals_pooled_at_single_station(self):
        mcs = snr_thresholds(default_mcs_rates())
        sampler = make_snr_sampler("lognormal")
        assert dran_equivalent_demand(1, 0.1, sampler, mcs, n_mc=4000, seed=2) == outage_demand(
            1, 0.1, sampler, mcs, n_mc=4000, seed=2
        )

    def test_never_below_the_pooled_demand(self):
        mcs = snr_thresholds(default_mcs_rates())
        for name, kwargs in (("nearest_bs", {"lambda_1": 50.0}), ("lognormal", {}), ("rayleigh_fading", {})):
            sampler = make_snr_sampler(name, **kwargs)
            for n in (1, 2, 5, 20):
                pooled = outage_demand(n, 0.1, sampler, mcs, n_mc=20_000, seed=6)
                standalone = dran_equivalent_demand(n, 0.1, sampler, mcs, n_mc=20_000, seed=6)
                assert pooled <= standalone + 1e-9

    def test_degenerate_sampler_has_no_pooling_gain(self):
        mcs = snr_thresholds([1.0])
        sampler = DegenerateSnrSampler(3.0)
        pooled = outage_demand(20, 0.1, sampler, mcs, n_mc=256, seed=1)
        standalone = dran_equivalent_demand(20, 0.1, sampler, mcs, n_mc=256, seed=1)
        assert pooled == pytest.approx(standalone, rel=1e-12)


class TestPinnedDemands:
    """Pooled and standalone demands recorded bit for bit from the searchsorted
    implementation; the comparison-pass selection and the in-place arithmetic
    must reproduce them exactly. The last three cases were recorded before the
    workload was evaluated in blocks: one spans about 31 blocks, one ends in a
    partial block, and one has more stations than a block holds draws."""

    @pytest.mark.parametrize(
        "name,kwargs,offset,n,seed,n_mc,pooled,standalone",
        [
            ("nearest_bs", {}, 0.0, 7, 3, 400, "0x1.5640fec8b77a8p+5", "0x1.0ce636dcb8606p+6"),
            ("nearest_bs", {}, 0.9, 50, 11, 200, "0x1.285b6267d5e5ap+7", "0x1.02638b63a30c1p+8"),
            ("nearest_bs", {"lambda_1": 10.0}, 0.9, 7, 3, 400, "0x1.a21dc10085692p+4", "0x1.24ad1ad37fda9p+5"),
            ("lognormal", {}, 0.0, 7, 3, 400, "0x1.9cc8813e3872ep+5", "0x1.349be58371bebp+6"),
            ("lognormal", {}, 0.9, 50, 11, 200, "0x1.7d4c946d805dap+7", "0x1.4cbdf60615b66p+8"),
            ("rayleigh_fading", {}, 0.0, 7, 3, 400, "0x1.95fb36d2faa1fp+5", "0x1.4385970de77d7p+6"),
            ("rayleigh_fading", {}, 0.9, 50, 11, 200, "0x1.6f37cad7aaa10p+7", "0x1.161144d2d4663p+8"),
            ("nearest_bs", {}, 0.9, 50, 11, 20000, "0x1.2686afca49a97p+7", "0x1.0e3af70ba2bbdp+8"),
            ("lognormal", {}, 0.0, 7, 3, 30000, "0x1.9d70eec71d974p+5", "0x1.29b7849e0935cp+6"),
            ("rayleigh_fading", {}, 0.4, 40000, 2, 3, "0x1.57c805528808ep+17", "0x1.bb65b7d0c1e9bp+17"),
        ],
    )
    def test_demands_are_bit_identical(self, name, kwargs, offset, n, seed, n_mc, pooled, standalone):
        params = DecoderParams(gamma_offset_db=offset)
        mcs = snr_thresholds(default_mcs_rates(), params)
        sampler = make_snr_sampler(name, **kwargs)
        args = (n, 0.1, sampler, mcs, params)
        assert outage_demand(*args, n_mc=n_mc, seed=seed) == float.fromhex(pooled)
        assert dran_equivalent_demand(*args, n_mc=n_mc, seed=seed) == float.fromhex(standalone)


class TestServersRequired:
    def test_zero_demand(self):
        d = servers_required(0.0)
        assert (d.d_abs, d.d_flops, d.d_unit) == (0.0, 0.0, 0.0)

    def test_unit_demand_chain(self):
        d = servers_required(1.0)
        assert d.d_abs == pytest.approx(7.56e6)
        assert d.d_flops == pytest.approx(7.56e9)
        assert d.d_unit == pytest.approx(0.019688, abs=1e-6)

    def test_one_full_server(self):
        assert servers_required(50.79).d_unit == pytest.approx(1.0, abs=1e-3)

    def test_chain_identities_exact(self):
        d = servers_required(3.7)
        assert d.d_abs == 3.7 * 45 * 12 * 7 / 0.5e-3
        assert d.d_flops == d.d_abs * 1000.0
        assert d.d_unit == d.d_flops / (4 * 96e9)


class TestProcessingCostRate:
    @pytest.mark.parametrize(
        "slope,intercept,lam1,expected",
        [
            (0.111, 0.0051, 50.0, 653.54),
            (0.096, 0.0036, 51.2, 578.68),
            (0.083, 0.0027, 52.8, 515.89),
        ],
    )
    def test_reference_rows(self, slope, intercept, lam1, expected):
        assert processing_cost_rate(slope, intercept, lam1, 20000.0, 170.0) == pytest.approx(
            expected, abs=0.01
        )

    def test_zero_users_rejected(self):
        with pytest.raises(ParameterError):
            processing_cost_rate(0.1, 0.0, 50.0, 20000.0, 0.0)

    def test_presets_cover_all_offsets(self):
        assert set(OFFSET_PRESETS) == {0.0, 0.4, 0.9}
        for gamma, preset in OFFSET_PRESETS.items():
            pooled = derive_processing_base(Architecture.CLOUD_RAN, gamma, 170.0, 50.0)
            dran = derive_processing_base(Architecture.DRAN, gamma, 170.0, 50.0)
            assert pooled == processing_cost_rate(preset.slope, preset.intercept, 50.0, SERVER_COST, 170.0)
            assert dran == pytest.approx(DRAN_POOLING_FACTOR * preset.slope * 50.0 * SERVER_COST / 170.0)
            # the distributed line passes through the origin
            assert derive_processing_base(Architecture.DRAN, gamma, 170.0, 0.0) == 0.0
            assert dran > pooled


@pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf])
def test_degenerate_sampler_rejects_non_positive_or_non_finite_snr(gamma):
    with pytest.raises(ParameterError):
        DegenerateSnrSampler(gamma)


def test_sampler_registry_rejects_unknown_names():
    with pytest.raises(ParameterError):
        make_snr_sampler("cauchy")


@pytest.mark.parametrize(
    "name,params,key",
    [
        ("nearest_bs", {"bogus": 1}, "bogus"),
        ("degenerate", {"gamma": "x"}, "gamma"),
        ("lognormal", {"sigma_db": None}, "sigma_db"),
        ("rayleigh_fading", {"mean_db": True}, "mean_db"),
        ("nearest_bs", {"lambda_1": math.inf}, "lambda_1"),
    ],
)
def test_sampler_registry_rejects_unknown_keys_and_non_numbers(name, params, key):
    with pytest.raises(ParameterError, match=f"'{name}' parameter '{key}'"):
        make_snr_sampler(name, **params)


def test_nearest_bs_sampler_spans_the_mcs_range():
    mcs = snr_thresholds(default_mcs_rates())
    sampler = make_snr_sampler("nearest_bs", lambda_1=50.0)
    rng = np.random.default_rng(0)
    draws = sampler.sample(rng, 20_000)
    k = mcs.select(np.clip(draws, mcs.gamma_admission[0], None))
    # a healthy spread: both low and top MCS indices get selected
    assert k.min() <= 2 and k.max() == len(mcs) - 1


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=300),
    level=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_higher_quantile_is_numpys(values, level):
    got = complexity._higher_quantile(np.array(values), level)
    assert got.hex() == float(np.quantile(values, level, method="higher")).hex()


SAMPLER_SPECS = [
    ("degenerate", {"gamma": 3.0}),
    ("lognormal", {}),
    ("rayleigh_fading", {}),
    ("nearest_bs", {}),
]


@pytest.mark.parametrize("name,kwargs", SAMPLER_SPECS, ids=[name for name, _ in SAMPLER_SPECS])
@settings(max_examples=40, deadline=None)
@given(a=st.integers(0, 3000), b=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1))
def test_sampler_keeps_the_stream_contract(name, kwargs, a, b, seed):
    """sample(rng, a) then sample(rng, b) is sample(rng, a + b), bit for bit."""
    sampler = make_snr_sampler(name, **kwargs)
    rng = np.random.default_rng(seed)
    split = np.concatenate((sampler.sample(rng, a), sampler.sample(rng, b)))
    whole = sampler.sample(np.random.default_rng(seed), a + b)
    assert split.tobytes() == whole.tobytes()


class TestSharedStream:
    """Calls with one seed share the stream kept between them; no call's result depends on that."""

    @staticmethod
    def alone(n, sampler, offset, seed):
        complexity._memo = None
        return outage_demand(n, 0.1, sampler, *TABLES[offset], n_mc=2000, seed=seed)

    def test_interleaved_calls_match_calls_on_a_cleared_memo(self):
        first, twin = make_snr_sampler("nearest_bs"), make_snr_sampler("nearest_bs")
        complexity._memo = None
        live = []

        def call(n, sampler, offset, seed):
            # the reference: the sampler's values at call time, without an instance `sample`
            same = copy.copy(sampler)
            vars(same).pop("sample", None)
            got = outage_demand(n, 0.1, sampler, *TABLES[offset], n_mc=2000, seed=seed)
            live.append(((n, same, offset, seed), got))

        call(1, first, 0.0, 0)
        call(20, first, 0.0, 0)
        call(5, twin, 0.4, 0)  # an equal-valued instance shares the stream
        call(20, twin, 0.9, 1)  # the seeds alternate
        call(1, first, 0.9, 0)
        call(50, first, 0.4, 1)  # n_cloud grows, then shrinks
        call(2, first, 0.0, 1)
        call(3, make_snr_sampler("lognormal"), 0.0, 1)
        call(3, first, 0.9, 1)
        first.snr_median_db = 6.0  # the instance changes under the memo
        call(10, first, 0.0, 1)
        call(1, twin, 0.0, 1)
        first.snr_median_db = 12.0
        # an instance attribute `sample`, installed and removed as a tracer does
        first.sample = lambda rng, size: NearestBsSnrSampler.sample(first, rng, size)
        call(7, first, 0.4, 1)
        call(50, first, 0.9, 1)
        del first.sample
        call(7, first, 0.4, 1)
        call(50, first, 0.9, 1)
        call(50, twin, 0.9, 0)
        for args, got in live:
            assert got.hex() == self.alone(*args).hex()

    def test_a_call_inside_the_kept_head_draws_nothing(self):
        sampler = make_snr_sampler("nearest_bs")
        sizes = []

        def counted(rng, size, original=sampler.sample):
            sizes.append(size)
            return original(rng, size)

        sampler.sample = counted
        complexity._memo = None
        outage_demand(20, 0.1, sampler, *TABLES[0.0], n_mc=2000, seed=3)
        assert sizes[0] == 40_000
        del sizes[:]
        for offset in TABLES:
            for n in (1, 2, 5):
                outage_demand(n, 0.1, sampler, *TABLES[offset], n_mc=2000, seed=3)
        assert sizes == []

    def test_a_table_draws_its_head_once(self):
        sampler = make_snr_sampler("nearest_bs")
        sizes = []

        def counted(rng, size, original=sampler.sample):
            sizes.append(size)
            return original(rng, size)

        sampler.sample = counted
        complexity._memo = None
        pooling_table(list(TABLES), (1, 5, 20), 0.1, sampler, n_mc=2000, seed=3)
        # the largest pool's head first; later calls only draw past it for rejection rounds
        assert sizes[0] == 40_000
        assert sum(sizes[1:]) < 1000

    def test_table_rows_follow_the_given_order(self):
        sampler = make_snr_sampler("nearest_bs")
        rows = pooling_table([0.9, 0.0], (5, 1, 20, 5), 0.1, sampler, n_mc=2000, seed=2)
        assert [(r["gamma_offset_db"], r["n_cloud"]) for r in rows] == [
            (offset, n) for offset in (0.9, 0.0) for n in (5, 1, 20, 5)
        ]
        for row in rows:
            n, offset = row["n_cloud"], row["gamma_offset_db"]
            pooled = outage_demand(n, 0.1, sampler, *TABLES[offset], n_mc=2000, seed=2)
            standalone = dran_equivalent_demand(n, 0.1, sampler, *TABLES[offset], n_mc=2000, seed=2)
            assert row["pooled_per_station"] == pooled / n
            assert row["distributed_per_station"] == standalone / n
            assert row["distributed_servers"] == servers_required(standalone).d_unit

    def test_threads_return_the_serial_tables(self):
        sampler = make_snr_sampler("nearest_bs")
        seeds = (0, 1, 2, 3)

        def table(seed):
            return pooling_table(list(TABLES), (1, 5, 20), 0.1, sampler, n_mc=2000, seed=seed)

        serial = [table(seed) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # more threads than cores, each seed missing the memo the others just filled
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(table, seed) for _ in range(3) for seed in seeds]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == serial * 3

    def test_threads_growing_one_head_return_the_serial_demands(self):
        sampler = make_snr_sampler("nearest_bs")

        def ascending(seed):
            return [
                outage_demand(n, 0.1, sampler, *TABLES[0.0], n_mc=2000, seed=seed).hex()
                for n in (1, 2, 5, 20, 50)
            ]

        complexity._memo = None
        serial = [ascending(seed) for seed in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # threads on one seed grow the head that others hold, so both the
            # growth in place and the redraw it falls back to run
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(ascending, seed) for _ in range(4) for seed in (0, 0, 1)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [serial[seed] for _ in range(4) for seed in (0, 0, 1)]

    def test_the_memo_keeps_one_head_at_most(self):
        sampler = make_snr_sampler("nearest_bs")
        complexity._memo = None
        tracemalloc.start()
        try:
            outage_demand(20, 0.1, sampler, *TABLES[0.0], n_mc=20_000, seed=1)
            # the 3.2 MB head grows in place to 8 MB, so no second head is held
            outage_demand(50, 0.1, sampler, *TABLES[0.0], n_mc=20_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
            outage_demand(1, 0.1, sampler, *TABLES[0.0], n_mc=20_000, seed=2)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10e6
        assert retained <= 1e6

    #: the benchmark's order: one seed, pool sizes from the smallest up
    ASCENDING = (1, 2, 5, 10, 20, 50)

    @staticmethod
    def demand(n, sampler, seed):
        return outage_demand(n, 0.1, sampler, *TABLES[0.0], n_mc=20_000, seed=seed)

    def test_ascending_calls_draw_each_value_once(self):
        sampler = make_snr_sampler("nearest_bs")
        calls = []

        def counted(rng, size, original=sampler.sample):
            calls.append((rng, size))
            return original(rng, size)

        sampler.sample = counted
        complexity._memo = None
        demands = [self.demand(n, sampler, 4) for n in self.ASCENDING]
        del sampler.sample
        # the head grows in place on the generator it was drawn from; the
        # rejection rounds past it draw from copies of that generator
        stream_rng = complexity._memo.rng
        head = sum(size for rng, size in calls if rng is stream_rng)
        rejection = sum(size for rng, size in calls if rng is not stream_rng)
        assert head == 20_000 * 50
        # redrawing every larger head from the seed drew 1.76 M values
        assert 0 < rejection < 10_000
        for n, got in zip(self.ASCENDING, demands):
            complexity._memo = None
            assert got.hex() == self.demand(n, sampler, 4).hex()

    def test_growing_the_head_keeps_one_head_at_most(self):
        sampler = make_snr_sampler("nearest_bs")
        complexity._memo = None
        tracemalloc.start()
        try:
            for n in self.ASCENDING:
                self.demand(n, sampler, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the final head alone takes 8 MB
        assert peak <= 10e6

    def test_blocks_are_views_of_the_kept_head(self, monkeypatch):
        """Only the realizations to evaluate again are gathered, in one call per demand."""
        sampler = make_snr_sampler("nearest_bs")
        views = []

        def recorded(gamma, mcs, params, original=complexity._complexity_vector):
            views.append(np.shares_memory(gamma, complexity._memo.head))
            return original(gamma, mcs, params)

        monkeypatch.setattr(complexity, "_complexity_vector", recorded)
        complexity._memo = None
        for n in self.ASCENDING:
            del views[:]
            self.demand(n, sampler, 4)
            assert views == [True] * (len(views) - 1) + [False]

    def test_a_held_view_makes_the_call_redraw_from_the_seed(self):
        sampler = make_snr_sampler("nearest_bs")
        complexity._memo = None
        outage_demand(5, 0.1, sampler, *TABLES[0.0], n_mc=2000, seed=6)
        held = complexity._memo.head[:1]
        got = outage_demand(20, 0.1, sampler, *TABLES[0.0], n_mc=2000, seed=6)
        # numpy refuses to resize a head with a live view: the held head stays
        # as it was and the memo keeps a head redrawn from the seed
        assert held.base.size == 10_000
        assert held.base is not complexity._memo.head and complexity._memo.head.size == 40_000
        assert got.hex() == self.alone(20, sampler, 0.0, 6).hex()
