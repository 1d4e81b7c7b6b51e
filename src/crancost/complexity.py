"""Uplink decoder workload model and data-center dimensioning.

Per-codeword decoding effort in bit-iterations per channel use, MCS admission
thresholds, Monte Carlo dimensioning of the pooled processing demand under a
computational-outage target, the conversion chain from normalized demand to
server counts, the per-user data-processing cost rate, and the pooled vs
standalone table over offsets and pool sizes (:func:`pooling_table`, which
``crancost complexity`` and the pooling-table script print). The frame and
server figures of the conversion chain are plain module constants; the per-offset
servers-per-station fits are rows of
:data:`crancost.dimensioning.OFFSET_PRESETS`.

The outage Monte Carlo (:func:`outage_demand`) is the hot path of the
complexity table. Its SNRs are the start of one stream per seed: the
n_mc * N draws of a call are the stream's first n_mc * N values, and its
rejection rounds take the values after them. This rests on the stream
contract every package sampler keeps: ``sample(rng, a)`` followed by
``sample(rng, b)`` returns, bit for bit, what ``sample(rng, a + b)`` does.
A table calls with one seed at every offset and pool size, so the module
keeps the last stream between calls: a head of draws, the generator as it
stands after the head, and how many leading draws of the head are neither
NaN nor +inf, found once per draw. A call that needs more values than the
head holds past its own prefix draws them from a copy of that generator.
One that needs a longer head grows the head's own buffer in place and fills
the new tail from the generator, so the head is drawn once however the calls
are ordered and one head is kept at most (8 MB for 50 stations at 20000
draws); by the stream contract the grown head is the head a single draw from
the seed gives. If numpy refuses the resize because a view of the head is
still alive, the call drops the head and redraws it from the seed. A call
evaluates the workload on views of its prefix, in blocks of whole
realizations, about 32k draws each, so that the block's temporaries stay in
cache. A draw below the lowest admission threshold selects no MCS, so its
workload is NaN and so is its realization's sum: only those realizations are
gathered, their draws below the floor replaced by the rejection rounds'
values in index order, and evaluated again. Every element sees the same
operations in the same order and every realization is summed alone, so the
result is the same bit for bit whatever the block size and whatever was
called before. The demand is the order statistic that
``np.quantile(sums, 1 - eps, method="higher")`` returns, found by one
partition of the sums in place. :meth:`McsTable.select` counts
the admission thresholds each SNR meets, one vectorized comparison pass per
MCS, in place of a binary search per draw. The nearest-base-station sampler
and the workload evaluate their closed forms in one buffer with the same
operations in the same order as the plain expressions, so every draw and
workload keeps its exact value. A NaN or +inf SNR in a call's prefix or
among its redrawn values raises :class:`SamplerDomainError`.
"""

from __future__ import annotations

import copy
import inspect
import math
import numbers
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, SamplerDomainError

__all__ = [
    "DecoderParams",
    "McsTable",
    "CHANNEL_USES_PER_S",
    "FLOP_PER_BIT_ITER",
    "SERVER_FLOPS",
    "SERVER_COST",
    "ProcessingDemand",
    "db_to_linear",
    "decoding_complexity",
    "snr_thresholds",
    "default_mcs_rates",
    "make_snr_sampler",
    "DegenerateSnrSampler",
    "LognormalSnrSampler",
    "RayleighFadingSnrSampler",
    "NearestBsSnrSampler",
    "outage_demand",
    "dran_equivalent_demand",
    "servers_required",
    "pooling_table",
    "processing_cost_rate",
]


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class DecoderParams:
    """Turbo-decoder model constants.

    zeta: message-passing connectivity (> 2)
    k_scaling: complexity scaling at the target channel outage
    nu_db: complexity calibration margin, dB
    gamma_offset_db: extra link-adaptation margin, dB

    Every field is finite, and the total margin nu_db + gamma_offset_db is
    above 0 dB, so every admission threshold lies above its capacity.
    """

    zeta: float = 6.0
    k_scaling: float = 0.2
    nu_db: float = 0.2
    gamma_offset_db: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.zeta, self.k_scaling, self.nu_db, self.gamma_offset_db))):
            raise ParameterError(f"decoder parameters must be finite, got {self}")
        if self.zeta <= 2:
            raise ParameterError("zeta must be > 2")
        if self.k_scaling <= 0:
            raise ParameterError("k_scaling must be > 0")
        if self.nu_db + self.gamma_offset_db <= 0:
            raise ParameterError(f"nu_db + gamma_offset_db must be > 0 dB, got {self.nu_db} + {self.gamma_offset_db}")


@dataclass(frozen=True)
class McsTable:
    """Modulation-and-coding schemes: rates with admission thresholds.

    gamma_capacity[k] = 2^rate_k - 1 is the Shannon threshold; the realizable
    threshold gamma_admission[k] adds the calibration and link-adaptation
    margins. Both sequences are strictly increasing.
    """

    rates: np.ndarray
    gamma_capacity: np.ndarray
    gamma_admission: np.ndarray

    def __len__(self) -> int:
        return self.rates.shape[0]

    def select(self, gamma: np.ndarray) -> np.ndarray:
        """Highest MCS index whose admission threshold is met; -1 if below all.

        Counts the thresholds each SNR meets, one comparison pass per MCS: the
        same index as ``searchsorted(side="right") - 1`` for every non-NaN
        value, without a binary search per element. NaN meets no threshold.
        """
        gamma = np.asarray(gamma, dtype=float)
        count = np.zeros(gamma.shape, dtype=np.int8 if len(self) < 128 else np.intp)
        # one comparison buffer for every pass; its int8 view adds without a cast
        met = np.empty(gamma.shape, dtype=bool)
        for threshold in self.gamma_admission:
            count += np.greater_equal(gamma, threshold, out=met).view(np.int8)
        count -= 1
        return count


def default_mcs_rates(n: int = 15, lo: float = 0.15, hi: float = 5.55) -> np.ndarray:
    """Default rate set: geometrically spaced code rates in bits per channel use."""
    return np.geomspace(lo, hi, n)


def snr_thresholds(rates, params: DecoderParams = DecoderParams()) -> McsTable:
    """Build the MCS table from a strictly increasing sequence of rates."""
    r = np.asarray(rates, dtype=float)
    if r.ndim != 1 or r.shape[0] == 0:
        raise ParameterError("rates must be a non-empty 1D sequence")
    if not np.all(np.isfinite(r)) or np.any(r <= 0) or np.any(np.diff(r) <= 0):
        raise ParameterError("rates must be finite, positive and strictly increasing")
    gamma_c = 2.0**r - 1.0
    margin = db_to_linear(params.nu_db) * db_to_linear(params.gamma_offset_db)
    return McsTable(rates=r, gamma_capacity=gamma_c, gamma_admission=margin * gamma_c)


def decoding_complexity(gamma: float, rate: float, params: DecoderParams = DecoderParams()) -> float:
    """Decoder workload in bit-iterations per channel use for one codeword.

    (rate / log2(zeta-1)) * [log2((zeta-2)/(k*zeta)) - 2*log2(log2(1+gamma) - rate)],
    clamped at zero from below: the expression goes negative at large SNR
    margins and a negative iteration count is unphysical. Requires the SNR to
    support the rate (log2(1+gamma) > rate), otherwise the MCS was misselected;
    an SNR that is not finite and >= 0 is a domain error too.
    """
    if rate <= 0:
        raise ParameterError(f"rate must be > 0, got {rate}")
    if not 0.0 <= gamma < math.inf:
        raise SamplerDomainError(f"SNR must be finite and >= 0, got {gamma}")
    capacity = math.log2(1.0 + gamma)
    if capacity <= rate:
        raise SamplerDomainError(
            f"SNR {gamma:.4g} cannot support rate {rate:.4g} (capacity {capacity:.4g})"
        )
    bracket = math.log2((params.zeta - 2.0) / (params.k_scaling * params.zeta)) - 2.0 * math.log2(
        capacity - rate
    )
    return max(0.0, rate / math.log2(params.zeta - 1.0) * bracket)


def _complexity_vector(gamma: np.ndarray, mcs: McsTable, params: DecoderParams) -> np.ndarray:
    """Vectorized workload with per-sample MCS selection.

    Evaluates the ``decoding_complexity`` expression with the same operations
    in the same order, in place in one buffer, so every value keeps its bits.
    A draw below the lowest admission threshold selects no MCS and gives NaN,
    which :func:`outage_demand` reads as the mark of a realization to
    evaluate again with that draw redrawn; every other draw must be finite.
    Call it under ``np.errstate(invalid="ignore", divide="ignore")``.
    """
    k = mcs.select(gamma)
    # index -1, below every threshold, takes the NaN after the last rate;
    # fancy indexing casts a small-integer index per element, which costs
    # more than one cast to intp up front
    rate = np.append(mcs.rates, math.nan)[k.astype(np.intp)]
    # log2(1 + gamma) - rate; admission thresholds sit above capacity, so
    # the margins of admitted draws are strictly positive
    work = np.add(1.0, gamma)
    np.log2(work, out=work)
    work -= rate
    # rate / log2(zeta - 1) * (const - 2 * log2(margin))
    np.log2(work, out=work)
    work *= 2.0
    np.subtract(math.log2((params.zeta - 2.0) / (params.k_scaling * params.zeta)), work, out=work)
    rate /= math.log2(params.zeta - 1.0)
    work *= rate
    return np.maximum(work, 0.0, out=work)


# ---------------------------------------------------------------------------
# SNR samplers


class DegenerateSnrSampler:
    """Constant SNR; useful for exact spot checks."""

    def __init__(self, gamma: float):
        if not 0.0 < gamma < math.inf:
            raise ParameterError(f"gamma must be finite and > 0, got {gamma}")
        self.gamma = float(gamma)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.gamma)


class LognormalSnrSampler:
    """SNR lognormal in dB: median_db +/- sigma_db spread."""

    def __init__(self, median_db: float = 12.0, sigma_db: float = 6.0):
        if sigma_db < 0:
            raise ParameterError("sigma_db must be >= 0")
        self.median_db = float(median_db)
        self.sigma_db = float(sigma_db)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return db_to_linear(self.median_db) * db_to_linear(self.sigma_db) ** rng.standard_normal(size)


class RayleighFadingSnrSampler:
    """Exponentially distributed linear SNR (Rayleigh fading) with a mean in dB."""

    def __init__(self, mean_db: float = 12.0):
        self.mean_db = float(mean_db)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(db_to_linear(self.mean_db), size)


class NearestBsSnrSampler:
    """SNR of the typical user under nearest-base-station association.

    Distance to the nearest base station is Rayleigh (PPP of intensity
    ``lambda_1``) and the received SNR follows a power-law path loss around a
    reference level at the median distance:
    SNR_dB = snr_median_db - 10 * pathloss_exp * log10(r / median_distance).

    The reference level is a model parameter rather than a raw link budget:
    plugging the preset transmit/noise powers straight into a path-loss law
    puts every user tens of dB above the top MCS threshold and clamps all
    workloads to zero, which defeats dimensioning. The default median of
    12 dB places typical users mid-MCS-range.

    ``lambda_1`` cancels: with r = sqrt(-ln(u) / (pi lambda_1)) and the median
    distance sqrt(ln(2) / (pi lambda_1)), the SNR is
    g_med * (-ln(u) / ln(2)) ** (-pathloss_exp / 2), g_med the median in
    linear units. Draws at different intensities differ only by rounding.
    """

    def __init__(self, lambda_1: float = 50.0, snr_median_db: float = 12.0, pathloss_exp: float = 4.0):
        if lambda_1 <= 0:
            raise ParameterError("lambda_1 must be > 0")
        if pathloss_exp <= 0:
            raise ParameterError("pathloss_exp must be > 0")
        self.lambda_1 = float(lambda_1)
        self.snr_median_db = float(snr_median_db)
        self.pathloss_exp = float(pathloss_exp)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # one buffer, the operations of the closed form in order:
        # r = sqrt(-log(u) / (pi lambda_1)),
        # 10 ** ((snr_median_db - 10 pathloss_exp log10(r / median_r)) / 10)
        median_r = math.sqrt(math.log(2.0) / (math.pi * self.lambda_1))
        snr = rng.random(size)
        np.log(snr, out=snr)
        np.negative(snr, out=snr)
        snr /= math.pi * self.lambda_1
        np.sqrt(snr, out=snr)
        snr /= median_r
        np.log10(snr, out=snr)
        snr *= 10.0 * self.pathloss_exp
        np.subtract(self.snr_median_db, snr, out=snr)
        snr /= 10.0
        return np.power(10.0, snr, out=snr)


_SAMPLERS = {
    "degenerate": DegenerateSnrSampler,
    "lognormal": LognormalSnrSampler,
    "rayleigh_fading": RayleighFadingSnrSampler,
    "nearest_bs": NearestBsSnrSampler,
}


def make_snr_sampler(name: str = "nearest_bs", **params):
    """Instantiate a named SNR sampler from a config-style spec.

    Every parameter must be one the sampler takes and a finite number; an
    unknown name or key, or any other value, is a :class:`ParameterError`
    naming the sampler and the key.

    Every sampler keeps the stream contract that :func:`outage_demand`
    relies on: its draws depend only on the generator and on its type and
    attribute values, and ``sample(rng, a)`` followed by ``sample(rng, b)``
    returns, bit for bit, what ``sample(rng, a + b)`` does.
    """
    try:
        cls = _SAMPLERS[name]
    except KeyError:
        raise ParameterError(f"unknown SNR sampler {name!r}; available: {sorted(_SAMPLERS)}") from None
    accepted = inspect.signature(cls).parameters
    for key, value in params.items():
        where = f"SNR sampler {name!r} parameter {key!r}"
        if key not in accepted:
            raise ParameterError(f"{where} is unknown; the sampler takes {sorted(accepted)}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ParameterError(f"{where} must be a finite number, got {value!r}")
    return cls(**params)


# ---------------------------------------------------------------------------
# outage dimensioning

#: Draws per block of the workload stage. 2^15 doubles are 256 KiB, so a
#: block's temporaries stay in the L2 cache; 2^14, 2^16 and 2^17 were slower.
_BLOCK = 1 << 15

#: Rejection rounds after which a sampler counts as inconsistent with the MCS table.
_MAX_ROUNDS = 1000


def _clean_length(draws: np.ndarray) -> int:
    """How many leading draws are neither NaN nor +inf; -inf is below every floor and is redrawn."""
    for lo in range(0, draws.size, _BLOCK):
        block = draws[lo : lo + _BLOCK]
        if not block.max() < math.inf:
            return lo + int(np.argmin(block < math.inf))
    return draws.size


class _Stream:
    """One seed's SNR stream: a head of draws, the generator past it, and its clean length.

    ``clean`` is how many leading draws of the head are neither NaN nor +inf;
    it is found once per draw, when the head is drawn or grown.
    """

    __slots__ = ("key", "head", "rng", "clean")

    def __init__(self, key, sampler, seed: int, size: int):
        self.key = key
        self.rng = np.random.default_rng(seed)
        self.head = np.asarray(sampler.sample(self.rng, size), dtype=float)
        self.head.flags.writeable = False
        self.clean = _clean_length(self.head)

    def grow(self, sampler, size: int) -> bool:
        """Extend the head in place to ``size`` draws, taken from the generator past it.

        The head's own buffer is resized, so no second head is ever held.
        Returns False, with the stream unchanged, if numpy refuses the resize:
        it does while anything else refers to the head or to a view of it.
        """
        old = self.head.size
        try:
            self.head.flags.writeable = True
            self.head.resize(size, refcheck=True)
        except ValueError:
            self.head.flags.writeable = False
            return False
        for lo in range(old, size, _BLOCK):
            self.head[lo : lo + _BLOCK] = sampler.sample(self.rng, min(_BLOCK, size - lo))
        self.head.flags.writeable = False
        if self.clean == old:
            self.clean += _clean_length(self.head[old:])
        return True


#: The last stream drawn; it is looked up, grown and replaced under the lock.
_memo: _Stream | None = None
_memo_lock = threading.Lock()


def _stream(sampler, seed: int, size: int) -> _Stream:
    """The stream of ``sampler`` under ``seed``, with a head of at least ``size`` draws.

    Called under ``_memo_lock``. The memo key is the seed with the sampler's
    type and attribute values, so equal-valued samplers share a stream and a
    changed attribute misses. A sampler without a ``__dict__``, or with an
    unhashable attribute, gets a stream of its own. A kept head that is too
    short grows in place; if something still holds it, the head is redrawn
    from the seed instead, and the holder's stream stays as it was.
    """
    global _memo
    try:
        key = (seed, type(sampler), tuple(sorted((k, type(v), v) for k, v in vars(sampler).items())))
        hash(key)
    except TypeError:
        return _Stream(None, sampler, seed, size)
    # out of the memo while it changes, so a sampler that raises leaves no half-grown head
    stream, _memo = _memo, None
    if stream is not None and stream.key == key and (stream.head.size >= size or stream.grow(sampler, size)):
        _memo = stream
    else:
        stream = None  # drop the old head before drawing the new one
        _memo = stream = _Stream(key, sampler, seed, size)
    return stream


def _rejection_rounds(sampler, head: np.ndarray, rng, size: int, count: int, floor: float) -> np.ndarray:
    """Redrawn values for the ``count`` draws below ``floor`` among the stream's first ``size``.

    The values come in the index order of the draws they replace. Each round
    redraws the draws still below the floor, in index order, from the
    stream's next values, read from ``head`` and then from a copy of ``rng``,
    the generator past it, and compares only those. A NaN or +inf among the
    redrawn values is a :class:`SamplerDomainError`.
    """
    redrawn = np.empty(count)
    pending = np.arange(count)
    past_head = None  # the copy of the generator, made when a round reaches it
    offset, rounds = size, 0
    while pending.size:
        rounds += 1
        if rounds > _MAX_ROUNDS:
            raise SamplerDomainError(
                "sampler keeps producing SNRs below the lowest admission threshold; "
                "it is inconsistent with the MCS table"
            )
        fresh = head[offset : offset + pending.size]
        if fresh.size < pending.size:
            if past_head is None:
                past_head = copy.deepcopy(rng)
            past = np.asarray(sampler.sample(past_head, pending.size - fresh.size), dtype=float)
            fresh = np.concatenate((fresh, past))
        offset += pending.size
        redrawn[pending] = fresh
        pending = pending[fresh < floor]
    peak = redrawn.max(initial=-math.inf)
    if not peak < math.inf:
        raise SamplerDomainError(f"sampler produced non-finite SNR {peak}")
    return redrawn


def _whole(name: str, value, least: int) -> int:
    """``value`` as an int; it must be an integer >= ``least`` and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _higher_quantile(values: np.ndarray, level: float) -> float:
    """``np.quantile(values, level, method="higher")`` for finite values, reordering them in place.

    That quantile is the order statistic at index ceil((n - 1) * level), which
    one partition in place finds; ``np.quantile`` spends several times as long
    around the same partition, on a copy and its general-purpose checks.
    """
    k = math.ceil((values.size - 1) * level)
    values.partition(k)
    return float(values[k])


def outage_demand(
    n_cloud: int,
    eps_comp: float,
    sampler,
    mcs: McsTable,
    params: DecoderParams = DecoderParams(),
    n_mc: int = 20000,
    seed: int = 0,
) -> float:
    """Pooled processing demand covering n_cloud stations at the outage target.

    Draws ``n_mc`` realizations of the aggregate workload
    sum_i D(gamma_i, k(gamma_i)) over ``n_cloud`` stations and returns the
    empirical quantile at probability 1 - eps_comp, so that the probability of
    the aggregate exceeding the provision is at most eps_comp. Deterministic
    given the seed, an integer >= 0.

    The SNRs are the first n_mc * n_cloud values of the seed's stream, and the
    rejection rounds take the values after them (see the module docstring).
    The last stream is kept between calls, so calls with one seed and an
    equal-valued sampler share its draws; the result does not depend on what
    was called before.
    """
    n_cloud = _whole("n_cloud", n_cloud, 1)
    if not 0.0 < eps_comp < 1.0:
        raise ParameterError("eps_comp must lie in (0, 1)")
    n_mc = _whole("n_mc", n_mc, 1)
    seed = _whole("seed", seed, 0)
    size = n_mc * n_cloud
    floor = float(mcs.gamma_admission[0])
    with _memo_lock:
        stream = _stream(sampler, seed, size)
        # a referenced head cannot grow, so holding it until the rejection
        # rounds have read past the prefix keeps the stream as it is
        head, rng, clean = stream.head, stream.rng, stream.clean
    if clean < size:
        raise SamplerDomainError(f"sampler produced non-finite SNR {head[clean]}")
    draws = head[:size].reshape(n_mc, n_cloud)
    # whole realizations per block, each summed alone: the sums do not
    # depend on where the blocks end
    rows = max(1, _BLOCK // n_cloud)
    sums = np.empty(n_mc)
    with np.errstate(invalid="ignore", divide="ignore"):
        for start in range(0, n_mc, rows):
            sums[start : start + rows] = _complexity_vector(draws[start : start + rows], mcs, params).sum(axis=1)
        # a draw below the floor makes its realization's sum NaN; the stream
        # stays as drawn, and the redone rows' copy takes the redrawn values,
        # which a boolean mask fills in row-major order, the stream's order
        redo = np.flatnonzero(np.isnan(sums))
        again = draws[redo]
        below = again < floor
        again[below] = _rejection_rounds(sampler, head, rng, size, np.count_nonzero(below), floor)
        sums[redo] = _complexity_vector(again, mcs, params).sum(axis=1)
    # smallest provision covering at least a 1-eps fraction of realizations
    return _higher_quantile(sums, 1.0 - eps_comp)


def dran_equivalent_demand(
    n_cloud: int,
    eps_comp: float,
    sampler,
    mcs: McsTable,
    params: DecoderParams = DecoderParams(),
    n_mc: int = 20000,
    seed: int = 0,
) -> float:
    """Distributed provisioning: each station dimensioned standalone.

    Returns ``n_cloud * outage_demand(1, ...)`` with the same seed, i.e. no
    pooling gain. Equals the pooled demand exactly for degenerate samplers.
    Its n_mc draws are the first n_mc values of the seed's stream, so after a
    pooled call with the same seed and sampler they are read from the kept
    stream without drawing.
    """
    return n_cloud * outage_demand(1, eps_comp, sampler, mcs, params, n_mc, seed)


# ---------------------------------------------------------------------------
# demand -> servers -> cost


#: LTE channel uses per second: one user occupies at most 45 physical
#: resource blocks of 12 subcarriers x 7 symbols in a 0.5 ms subframe
#: (7.56e6; the commonly quoted 7.5e6 is a rounding of that product).
CHANNEL_USES_PER_S = 45 * 12 * 7 / 0.5e-3
#: FLOP a turbo decoder needs per bit-iteration, at most.
FLOP_PER_BIT_ITER = 1000.0
#: FLOP/s one quad-socket server sustains.
SERVER_FLOPS = 4 * 96e9
#: Price of one server, $.
SERVER_COST = 20000.0


@dataclass(frozen=True)
class ProcessingDemand:
    """Demand chain from normalized workload to fractional server count."""

    d_outage: float  # bit-iterations per channel use
    d_abs: float  # bit-iterations per second
    d_flops: float  # FLOP per second
    d_unit: float  # servers (fractional)


def servers_required(d_outage: float) -> ProcessingDemand:
    """Convert a normalized demand into absolute load, FLOP/s and server count."""
    if d_outage < 0:
        raise ParameterError("d_outage must be >= 0")
    d_abs = d_outage * CHANNEL_USES_PER_S
    d_flops = d_abs * FLOP_PER_BIT_ITER
    return ProcessingDemand(d_outage=d_outage, d_abs=d_abs, d_flops=d_flops, d_unit=d_flops / SERVER_FLOPS)


def pooling_table(
    offsets,
    pool_sizes,
    eps_comp: float,
    sampler,
    decoder: DecoderParams = DecoderParams(),
    n_mc: int = 20000,
    seed: int = 0,
) -> list[dict]:
    """Pooled vs standalone processing demand, one row per (offset, pool size).

    Each row holds ``gamma_offset_db``, ``n_cloud``, the per-station demand of
    a pooled and of a standalone provision, and the server counts of each;
    every cell uses the same seed. The standalone provision is
    ``n * outage_demand(1, ...)``, as :func:`dran_equivalent_demand` gives.
    Rows come in the order of ``offsets`` and ``pool_sizes``.
    """
    sizes = [int(n) for n in pool_sizes]
    rows = []
    for gamma in offsets:
        params = replace(decoder, gamma_offset_db=gamma)
        mcs = snr_thresholds(default_mcs_rates(), params)
        # largest pool first, so the kept stream's head is drawn once for the
        # table; a standalone station is a pool of one
        pooled = {
            n: outage_demand(n, eps_comp, sampler, mcs, params, n_mc=n_mc, seed=seed)
            for n in sorted({1, *sizes}, reverse=True)
        }
        for n in sizes:
            standalone = n * pooled[1]
            rows.append(
                {
                    "gamma_offset_db": gamma,
                    "n_cloud": n,
                    "pooled_per_station": pooled[n] / n,
                    "distributed_per_station": standalone / n,
                    "pooled_servers": servers_required(pooled[n]).d_unit,
                    "distributed_servers": servers_required(standalone).d_unit,
                }
            )
    return rows


def processing_cost_rate(
    slope: float, intercept: float, lambda_1: float, server_cost: float, lambda_0: float
) -> float:
    """Per-user data-processing base cost from a servers-vs-stations fit.

    (slope * lambda_1 + intercept) servers per km^2, priced at the server
    cost and spread over the users: (slope*lambda_1 + intercept)*cost/lambda_0.
    """
    if min(slope, intercept, lambda_1, server_cost) < 0:
        raise ParameterError("inputs must be >= 0")
    if lambda_0 <= 0:
        raise ParameterError("lambda_0 must be > 0")
    return (slope * lambda_1 + intercept) * server_cost / lambda_0
