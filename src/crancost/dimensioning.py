"""Base-station intensity dimensioning from user demand, and the offset presets.

The spatially averaged rate of the user layer against a base-station layer of
intensity ``lambda_1`` has the form C(lambda_0, radio) * sqrt(lambda_1), which
makes inversion for the base-station intensity a one-liner. At realistic
parameters the Erfc * exp product underflows/overflows, so evaluation goes
through the scaled complementary error function erfcx.

:data:`OFFSET_PRESETS` is the one table of supported link-adaptation offsets.
Each row fixes the rate penalty that sets the station intensity and the
pooled servers-per-station fit that sets the processing cost; the distributed
fit is :data:`DRAN_POOLING_FACTOR` times the pooled slope. Every other module
reads its offsets from this table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special as sp

from .errors import ParameterError

__all__ = [
    "RadioParams",
    "PAPER_LTE_10MHZ",
    "OffsetPreset",
    "OFFSET_PRESETS",
    "DRAN_POOLING_FACTOR",
    "dbm_to_watt",
    "spatial_avg_rate",
    "invert_for_bs_intensity",
    "spectral_efficiency_target",
]


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class RadioParams:
    """Link-budget constants for the rate expression.

    Powers are stored in dBm; the linear-watt values used in the rate formula
    are exposed as properties.
    """

    ptx_dbm: float = 46.0
    noise_dbm: float = -146.22

    def __post_init__(self):
        if not math.isfinite(self.ptx_dbm) or not math.isfinite(self.noise_dbm):
            raise ParameterError("powers must be finite")

    @property
    def ptx_watt(self) -> float:
        return dbm_to_watt(self.ptx_dbm)

    @property
    def noise_watt(self) -> float:
        return dbm_to_watt(self.noise_dbm)


#: LTE 10 MHz link budget that the station intensity is dimensioned at.
PAPER_LTE_10MHZ = RadioParams()


@dataclass(frozen=True)
class OffsetPreset:
    """What one link-adaptation offset fixes.

    rate_penalty: spectral-efficiency penalty (bps/Hz) of running the decoder
        at the offset; compensated by a higher base-station intensity
    slope, intercept: pooled (centralized) processing fit, servers per base
        station and servers
    """

    rate_penalty: float
    slope: float
    intercept: float


#: The supported link-adaptation offsets (dB), one row each.
OFFSET_PRESETS: dict[float, OffsetPreset] = {
    0.0: OffsetPreset(rate_penalty=0.0, slope=0.111, intercept=0.0051),
    0.4: OffsetPreset(rate_penalty=0.01322, slope=0.096, intercept=0.0036),
    0.9: OffsetPreset(rate_penalty=0.029751, slope=0.083, intercept=0.0027),
}

#: Standalone (distributed) provisioning has no pooling gain: each station is
#: dimensioned for its own outage quantile instead of sharing the aggregate
#: one. The published fits cover only the pooled case, so the distributed
#: slope is modeled as a fixed multiple of the pooled slope with zero
#: intercept (the standalone line passes through the origin). 1.5 matches the
#: 30-45% resource savings typically reported for computational pooling.
DRAN_POOLING_FACTOR = 1.5

#: Baseline spectral-efficiency target (bps/Hz) bundled with the LTE preset.
#: An operator-calibrated constant: it is not the naive conversion of the
#: 10 Mbps demand over 10 MHz at 29% overhead, which gives ~1.41.
BASE_SPECTRAL_EFFICIENCY = 1.0847


def _rate_coefficient(lambda_0: float, radio: RadioParams) -> float:
    """C such that the spatially averaged rate equals C * sqrt(lambda_1)."""
    snr = radio.ptx_watt / radio.noise_watt
    x = (math.pi**2 * lambda_0 / 4.0) * math.sqrt(snr)
    return (math.pi**2.5 / 2.0) * math.sqrt(lambda_0 * snr) * float(sp.erfcx(x))


def spatial_avg_rate(lambda_0: float, lambda_1: float, radio: RadioParams = PAPER_LTE_10MHZ) -> float:
    """Spatially averaged spectral efficiency (bps/Hz) at the given intensities.

    Evaluates (pi^(5/2)/2) * sqrt(lambda_0*lambda_1*P/N) * Erfc(x) * exp(x^2)
    with x = (pi^2*lambda_0/4) * sqrt(P/N), using erfcx(x) = exp(x^2)*Erfc(x).
    At the preset parameters x is astronomically large and the naive product
    is inf * 0; erfcx keeps it finite.
    """
    if lambda_0 <= 0 or lambda_1 <= 0:
        raise ParameterError("intensities must be > 0")
    return _rate_coefficient(lambda_0, radio) * math.sqrt(lambda_1)


def invert_for_bs_intensity(target: float, lambda_0: float) -> float:
    """Base-station intensity achieving the target spectral efficiency at :data:`PAPER_LTE_10MHZ`.

    Since the rate is C * sqrt(lambda_1) with C independent of lambda_1, the
    inverse is (target / C)^2; the round trip through
    :func:`spatial_avg_rate` is exact to floating precision. An intensity
    that is not finite and > 0 is a :class:`ParameterError`.
    """
    if not 0 < target < math.inf:
        raise ParameterError(f"target spectral efficiency must be finite and > 0, got {target}")
    if not 0 < lambda_0 < math.inf:
        raise ParameterError(f"user intensity must be finite and > 0, got {lambda_0}")
    coeff = _rate_coefficient(lambda_0, PAPER_LTE_10MHZ)
    try:
        lambda_1 = (target / coeff) ** 2
    except OverflowError:
        lambda_1 = math.inf
    if not 0 < lambda_1 < math.inf:
        raise ParameterError(
            f"base-station intensity for target {target} at user intensity {lambda_0} "
            f"must be finite and > 0, got {lambda_1}"
        )
    return lambda_1


def spectral_efficiency_target(gamma_offset_db: float) -> float:
    """Preset spectral-efficiency target including the decoder rate offset."""
    try:
        preset = OFFSET_PRESETS[gamma_offset_db]
    except KeyError:
        raise ParameterError(
            f"no rate-offset preset for gamma_offset_db={gamma_offset_db}; "
            f"available: {sorted(OFFSET_PRESETS)}"
        ) from None
    return BASE_SPECTRAL_EFFICIENCY + preset.rate_penalty
