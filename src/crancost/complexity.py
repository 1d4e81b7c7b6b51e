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
keeps the last stream between calls: a head of draws and the generator as
it stands after the head. Every SNR is checked once, where it is drawn: a
NaN or +inf, which is what a sampler that overflows gives, raises
:class:`SamplerDomainError` before any call reads it, so a kept head holds
neither. A call that needs more values than the head holds past its own
prefix draws them from a copy of that generator. One that needs a longer
head grows the head's own buffer in place and fills the new tail from the
generator, so the head is drawn once however the calls are ordered and one
head is kept at most (8 MB for 50 stations at 20000 draws); by the stream
contract the grown head is the head a single draw from the seed gives. If
numpy refuses the resize because a view of the head is still alive, the
call drops the head and redraws it from the seed. The stream also keeps
the MCS index of its head's first draws under the last table of admission
thresholds, one int8 per head draw up to 127 rates, grown in place with
the head and dropped with it. A call on that table selects only the draws
past the filled prefix and fills them in; a call on another table starts a
new index. So a table selects each draw's MCS once per offset, however its
pool sizes are ordered. A call evaluates the workload on views of its
prefix and of the index, in blocks of whole realizations, about 32k draws
each, so that the block's temporaries stay in cache. A draw below the
lowest admission threshold selects no MCS, so its workload is NaN and so
is its realization's sum: only those realizations are gathered, their
draws below the floor replaced by the rejection rounds' values in index
order, and selected and evaluated again. Every element sees the same
operations in the same order and every realization is summed alone, a
pool of fewer than 8 stations column by column in numpy's own order, so
the result is the same bit for bit whatever the block size and whatever
was called before. The demand is the order statistic that
``np.quantile(sums, 1 - eps, method="higher")`` returns, found by one
partition of the sums in place. :meth:`McsTable.select` counts the
admission thresholds each SNR meets, one vectorized comparison pass per
MCS, in place of a binary search per draw. The workload evaluates its
closed form in one buffer with the same operations in the same order as
the plain expression, so every workload keeps its exact value. The
nearest-base-station sampler draws from its closed form in the median
SNR, five array passes, within a few ulp of the path through the
distance.
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
    "N_MC",
    "outage_demand",
    "dran_equivalent_demand",
    "servers_required",
    "pooling_table",
    "processing_cost_rate",
]


def db_to_linear(db: float) -> float:
    """10^(db/10); a value past the float range is a :class:`ParameterError`."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ParameterError(f"{db} dB is past the float range in linear units") from None


@dataclass(frozen=True)
class DecoderParams:
    """Turbo-decoder model constants.

    zeta: message-passing connectivity (> 2)
    k_scaling: complexity scaling at the target channel outage
    nu_db: complexity calibration margin, dB
    gamma_offset_db: extra link-adaptation margin, dB

    Every field is finite, and the total margin nu_db + gamma_offset_db is
    above 0 dB and finite in linear units, so every admission threshold lies
    above its capacity.
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
        try:
            margin = db_to_linear(self.nu_db) * db_to_linear(self.gamma_offset_db)
        except ParameterError:
            margin = math.inf
        if margin == math.inf:
            raise ParameterError(
                f"nu_db + gamma_offset_db must be finite in linear units, got {self.nu_db} + {self.gamma_offset_db}"
            )


def _index_dtype(n_rates: int) -> type:
    """The integer type of an MCS index into ``n_rates`` rates: int8 while -1 and every index fit."""
    return np.int8 if n_rates < 128 else np.intp


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
        count = np.zeros(gamma.shape, dtype=_index_dtype(len(self)))
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
    with np.errstate(over="ignore"):
        gamma_a = margin * gamma_c
    if gamma_a[-1] == math.inf:
        raise ParameterError(f"the admission threshold of rate {r[-1]} is past the float range")
    return McsTable(rates=r, gamma_capacity=gamma_c, gamma_admission=gamma_a)


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


def _complexity_vector(gamma: np.ndarray, k: np.ndarray, mcs: McsTable, params: DecoderParams) -> np.ndarray:
    """Vectorized workload of the SNRs ``gamma`` at their MCS indices ``k``, which ``mcs.select(gamma)`` gives.

    The caller passes the index so that a draw evaluated under one table at
    several pool sizes is selected once. Evaluates the
    ``decoding_complexity`` expression with the same operations in the same
    order, in place in one buffer, so every value keeps its bits. A draw
    below the lowest admission threshold selects no MCS (index -1) and gives
    NaN, which :func:`outage_demand` reads as the mark of a realization to
    evaluate again with that draw redrawn; every other draw must be finite.
    Call it under ``np.errstate(invalid="ignore", divide="ignore")``.
    """
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


def _row_sums(work: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``work.sum(axis=1)`` written to ``out``, bit for bit.

    Below 8 columns numpy adds each row's values left to right, in one inner
    loop per row; adding whole columns in that order gives the same bits
    several times faster. From 8 columns numpy sums pairwise, so those rows
    keep its reduction.
    """
    if work.shape[1] >= 8:
        return work.sum(axis=1, out=out)
    np.copyto(out, work[:, 0])
    for j in range(1, work.shape[1]):
        out += work[:, j]
    return out


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
    linear units. :meth:`sample` evaluates that closed form, so ``lambda_1``
    does not enter the draws: every intensity gives the same draws, bit for
    bit, each within a few ulp of the distance-then-decibel chain above.
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
        # g_med * (-log(u) / ln 2) ** (-pathloss_exp / 2) in one buffer; numpy's
        # power overflows to +inf, which the caller's check rejects, where
        # Python's raises OverflowError
        snr = rng.random(size)
        np.log(snr, out=snr)
        snr /= -math.log(2.0)
        np.power(snr, -0.5 * self.pathloss_exp, out=snr)
        snr *= np.power(10.0, self.snr_median_db / 10.0)
        return snr


_SAMPLERS = {
    "degenerate": DegenerateSnrSampler,
    "lognormal": LognormalSnrSampler,
    "rayleigh_fading": RayleighFadingSnrSampler,
    "nearest_bs": NearestBsSnrSampler,
}


def make_snr_sampler(name: str = "nearest_bs", **params):
    """Instantiate a named SNR sampler from a config-style spec.

    Every parameter must be one the sampler takes and a finite number, and a
    ``*_db`` level must be finite in linear units; an unknown name or key, a
    missing key the sampler has no default for, or any other value, is a
    :class:`ParameterError` naming the sampler and the key.

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
        if key.endswith("_db"):  # a level in dB must be a float in linear units too
            try:
                db_to_linear(value)
            except ParameterError:
                raise ParameterError(f"{where} is {value} dB, past the float range in linear units") from None
    for key, spec in accepted.items():
        if spec.default is spec.empty and key not in params:
            raise ParameterError(f"SNR sampler {name!r} parameter {key!r} is required; it has no default")
    return cls(**params)


# ---------------------------------------------------------------------------
# outage dimensioning

#: Draws per block of the workload stage. 2^15 doubles are 256 KiB, so a
#: block's temporaries stay in the L2 cache; 2^14, 2^16 and 2^17 were slower.
_BLOCK = 1 << 15

#: Outage Monte Carlo draws per demand unless a caller asks for another count.
N_MC = 20000

#: Rejection rounds after which a sampler counts as inconsistent with the MCS table.
_MAX_ROUNDS = 1000


def _draw(sampler, rng, size: int) -> np.ndarray:
    """The stream's next ``size`` SNRs, checked: a NaN or +inf among them is a :class:`SamplerDomainError`.

    A sampler that overflows gives +inf here, and one that multiplies 0 by
    +inf gives NaN, not a warning, and so an error; -inf and 0 lie below
    every admission floor and are redrawn.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        draws = np.asarray(sampler.sample(rng, size), dtype=float)
    peak = draws.max()
    if not peak < math.inf:
        raise SamplerDomainError(f"sampler produced non-finite SNR {peak}")
    return draws


class _Stream:
    """One seed's SNR stream: a head of checked draws, the generator past it, and the head's MCS index.

    ``index`` holds one MCS index per head draw; its first ``selected``
    entries are ``select`` of the head's first draws under the admission
    thresholds ``table`` (their bytes), and the rest are not yet filled.
    """

    __slots__ = ("key", "head", "rng", "table", "index", "selected")

    def __init__(self, key, sampler, seed: int, size: int):
        self.key = key
        self.rng = np.random.default_rng(seed)
        self.head = _draw(sampler, self.rng, size)
        self.head.flags.writeable = False
        self.table, self.index, self.selected = None, None, 0

    def grow(self, sampler, size: int) -> bool:
        """Extend the head in place to ``size`` draws, taken from the generator past it.

        The head's own buffer is resized, and the index's with it, so no
        second head or index is ever held. Returns False if numpy refuses a
        resize: it does while anything else refers to the head or the index,
        or to a view of either. The caller then drops the stream.
        """
        old = self.head.size
        try:
            # the index first, so that the head, eight times larger, is the
            # last block the allocator moves and the one it extends in place:
            # the other order left about 1 MB more of the heap resident
            if self.index is not None:
                self.index.resize(size, refcheck=True)
            self.head.flags.writeable = True
            self.head.resize(size, refcheck=True)
        except ValueError:
            self.head.flags.writeable = False
            return False
        for lo in range(old, size, _BLOCK):
            self.head[lo : lo + _BLOCK] = _draw(sampler, self.rng, min(_BLOCK, size - lo))
        self.head.flags.writeable = False
        return True

    def index_under(self, mcs: McsTable) -> tuple[np.ndarray, int]:
        """The head's MCS index under ``mcs``, and how many of its first entries are filled.

        An index selected under other admission thresholds is replaced by an
        empty one, not overwritten, since a call may still be reading it.
        """
        table = np.asarray(mcs.gamma_admission, dtype=float).tobytes()
        if table != self.table:
            self.index = None  # drop the old index before the new one is allocated
            self.table, self.index, self.selected = table, np.empty(self.head.size, _index_dtype(len(mcs))), 0
        return self.index, self.selected


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
    # out of the memo while it changes, so a draw that raises leaves no half-grown head
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
    the generator past it, and compares only those. The values past the head
    are checked as they are drawn, as the head's were.
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
            fresh = np.concatenate((fresh, _draw(sampler, past_head, pending.size - fresh.size)))
        offset += pending.size
        redrawn[pending] = fresh
        pending = pending[fresh < floor]
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
    n_mc: int = N_MC,
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
    was called before. A NaN or +inf draw, the stream's own or one past it,
    raises :class:`SamplerDomainError` where it is drawn, and a sampler
    overflow is +inf.
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
        head, rng = stream.head, stream.rng
        index, selected = stream.index_under(mcs)
    draws = head[:size].reshape(n_mc, n_cloud)
    ks = index[:size].reshape(n_mc, n_cloud)
    # whole realizations per block, each summed alone: the sums do not
    # depend on where the blocks end
    rows = max(1, _BLOCK // n_cloud)
    sums = np.empty(n_mc)
    with np.errstate(invalid="ignore", divide="ignore"):
        for start in range(0, n_mc, rows):
            stop = min(start + rows, n_mc)
            # select only the block's draws past the filled index; a call on
            # the same table that overlaps this one writes the same values
            lo, hi = max(start * n_cloud, selected), stop * n_cloud
            if lo < hi:
                index[lo:hi] = mcs.select(head[lo:hi])
            _row_sums(_complexity_vector(draws[start:stop], ks[start:stop], mcs, params), sums[start:stop])
        # a draw below the floor makes its realization's sum NaN; the stream
        # stays as drawn, and the redone rows' copy takes the redrawn values,
        # which a boolean mask fills in row-major order, the stream's order
        redo = np.flatnonzero(np.isnan(sums))
        again = draws[redo]
        below = again < floor
        again[below] = _rejection_rounds(sampler, head, rng, size, np.count_nonzero(below), floor)
        sums[redo] = _row_sums(_complexity_vector(again, mcs.select(again), mcs, params), np.empty(redo.size))
    with _memo_lock:
        if stream.index is index:  # no call has replaced it under another table
            stream.selected = max(stream.selected, size)
    # smallest provision covering at least a 1-eps fraction of realizations
    return _higher_quantile(sums, 1.0 - eps_comp)


def dran_equivalent_demand(
    n_cloud: int,
    eps_comp: float,
    sampler,
    mcs: McsTable,
    params: DecoderParams = DecoderParams(),
    n_mc: int = N_MC,
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
    n_mc: int = N_MC,
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
