"""Tests for the rate expression and base-station intensity inversion."""

import math

import pytest

from crancost.dimensioning import (
    PAPER_LTE_10MHZ,
    OFFSET_PRESETS,
    RadioParams,
    dbm_to_watt,
    invert_for_bs_intensity,
    spatial_avg_rate,
    spectral_efficiency_target,
)
from crancost.errors import ParameterError


def spatial_avg_rate_naive(lambda_0: float, lambda_1: float, radio: RadioParams = PAPER_LTE_10MHZ) -> float:
    """Literal Erfc * exp evaluation of ``spatial_avg_rate``; overflows for x >~ 26."""
    if lambda_0 <= 0 or lambda_1 <= 0:
        raise ParameterError("intensities must be > 0")
    snr = radio.ptx_watt / radio.noise_watt
    x = (math.pi**2 * lambda_0 / 4.0) * math.sqrt(snr)
    return (
        (math.pi**2.5 / 2.0)
        * math.sqrt(lambda_0 * lambda_1 * snr)
        * math.erfc(x)
        * math.exp(x * x)
    )


def large_x_asymptotic_rate(lambda_0: float, lambda_1: float) -> float:
    """Limit form 2*sqrt(lambda_1/lambda_0) of ``spatial_avg_rate``; the link budget cancels entirely."""
    return 2.0 * math.sqrt(lambda_1 / lambda_0)


class TestPowerParams:
    def test_preset_values(self):
        radio = PAPER_LTE_10MHZ
        assert radio.ptx_dbm == 46.0
        assert radio.noise_dbm == -146.22

    def test_subcarrier_log_component(self):
        assert 10.0 * math.log10(600) == pytest.approx(27.78, abs=0.01)

    def test_dbm_watt_roundtrip(self):
        watt = dbm_to_watt(46.0)
        assert watt == pytest.approx(39.81, abs=0.01)


class TestSpatialAvgRate:
    def test_reference_operating_point(self):
        # 170 users/km^2 against 50.03 stations/km^2 -> 1.0847 bps/Hz
        assert spatial_avg_rate(170.0, 50.03) == pytest.approx(1.0847, abs=1e-3)

    def test_vanishes_with_station_intensity(self):
        assert spatial_avg_rate(170.0, 1e-12) < 1e-5

    def test_large_x_asymptote(self):
        # at the preset link budget the Erfc*exp factor collapses and the rate
        # approaches 2*sqrt(lambda_1/lambda_0)
        got = spatial_avg_rate(170.0, 50.0)
        assert got == pytest.approx(1.08465, abs=1e-4)
        assert got == pytest.approx(large_x_asymptotic_rate(170.0, 50.0), rel=1e-4)

    def test_exact_sqrt_scaling(self):
        r1 = spatial_avg_rate(170.0, 12.5)
        r4 = spatial_avg_rate(170.0, 50.0)
        assert r4 / r1 == pytest.approx(2.0, rel=1e-9)

    def test_erfcx_agrees_with_naive_where_finite(self):
        # small-x regime via a weak link budget: x <= 20
        radio = RadioParams(ptx_dbm=0.0, noise_dbm=-20.0)
        for lam0 in (0.01, 0.1, 0.5):
            naive = spatial_avg_rate_naive(lam0, 5.0, radio)
            stable = spatial_avg_rate(lam0, 5.0, radio)
            assert math.isfinite(naive)
            assert stable == pytest.approx(naive, rel=1e-10)

    def test_rejects_nonpositive_intensities(self):
        with pytest.raises(ParameterError):
            spatial_avg_rate(0.0, 1.0)
        with pytest.raises(ParameterError):
            spatial_avg_rate(1.0, -1.0)


class TestInvertForBsIntensity:
    @pytest.mark.parametrize(
        "target,expected",
        [
            (1.0847, 50.03),
            (1.0847 + 0.01322, 51.2),
            (1.0847 + 0.029751, 52.8),
        ],
    )
    def test_reference_intensities(self, target, expected):
        assert invert_for_bs_intensity(target, 170.0) == pytest.approx(expected, abs=0.5)

    def test_roundtrip_identity(self):
        for lam1 in (3.0, 50.0, 210.0):
            target = spatial_avg_rate(170.0, lam1)
            assert invert_for_bs_intensity(target, 170.0) == pytest.approx(lam1, rel=1e-9)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ParameterError):
            invert_for_bs_intensity(0.0, 170.0)


def test_spectral_efficiency_targets_per_offset():
    assert spectral_efficiency_target(0.0) == 1.0847
    assert spectral_efficiency_target(0.4) == pytest.approx(1.09792)
    assert spectral_efficiency_target(0.9) == pytest.approx(1.114451)
    with pytest.raises(ParameterError):
        spectral_efficiency_target(0.7)


def test_rate_offsets_table():
    assert OFFSET_PRESETS[0.4].rate_penalty == 0.01322
    assert OFFSET_PRESETS[0.9].rate_penalty == 0.029751
