"""Scenario configuration: the default scenario, INI files, round-trip serialization.

The config format is flat key-value text with one section per concern
(architecture, geometry, costs, complexity, simulation); keys follow the
model symbols. The file holds the scenario and the model alone: what to run,
how many draws or replications and with how many workers are command-line
flags, and no setting has a second source. One ordered table, ``_SCHEMA``,
maps each key to the attribute it sets and the values it accepts; it alone
drives reading, the known-key check, writing and the keys a sweep rejects.
:func:`read_config` parses a file once and checks every section, and builds
its SNR sampler: an unknown section or key, or a bad value anywhere, is a
:class:`ConfigError` naming the key, and a sampler that cannot be built a
:class:`ParameterError` naming the sampler and the key. Unset keys keep the
:class:`Scenario` and :class:`ComplexitySettings` defaults.
:func:`redimension` is the one place where an architecture and offset select
the base-station intensity and the matching processing-cost fit.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import groupby
from operator import attrgetter
from typing import Callable, NamedTuple

from .complexity import SERVER_COST, DecoderParams, make_snr_sampler, processing_cost_rate
from .costs import C2_CONVENTIONS, Architecture, Scenario
from .dimensioning import DRAN_POOLING_FACTOR, OFFSET_PRESETS, invert_for_bs_intensity, spectral_efficiency_target
from .errors import ConfigError, ParameterError

__all__ = [
    "default_scenario",
    "redimension",
    "read_config",
    "load_scenario",
    "load_complexity_settings",
    "parse_values",
    "parse_names",
    "scenario_to_config",
    "scenario_hash",
]


def derive_bs_intensity(lambda_0: float, gamma_offset_db: float) -> float:
    """Base-station intensity meeting the offset-adjusted rate target."""
    return invert_for_bs_intensity(spectral_efficiency_target(gamma_offset_db), lambda_0)


def derive_processing_base(
    architecture: Architecture, gamma_offset_db: float, lambda_0: float, lambda_1: float
) -> float:
    """Per-user data-processing cost for the architecture and decoder offset.

    Cloud-RAN prices the offset's pooled fit; DRAN prices
    :data:`DRAN_POOLING_FACTOR` times its slope with zero intercept.
    """
    preset = OFFSET_PRESETS[gamma_offset_db]
    if architecture is Architecture.CLOUD_RAN:
        slope, intercept = preset.slope, preset.intercept
    else:
        slope, intercept = DRAN_POOLING_FACTOR * preset.slope, 0.0
    return processing_cost_rate(slope, intercept, lambda_1, SERVER_COST, lambda_0)


def redimension(scenario: Scenario, architecture: Architecture, gamma_offset_db: float) -> Scenario:
    """The scenario re-dimensioned for an architecture and link-adaptation offset.

    The base-station intensity lambda_1 meeting the offset-adjusted rate target
    at ``scenario.lambda_0`` splits into ``lambda_1c = lambda_1 / (1 +
    lambda_1m)`` clusters, and the per-user processing cost follows from the
    architecture's servers-per-station fit at that lambda_1. Distributed
    deployments always run at zero offset. Every other field is kept.
    """
    if architecture is Architecture.DRAN:
        gamma_offset_db = 0.0
    lambda_1 = derive_bs_intensity(scenario.lambda_0, gamma_offset_db)
    processing = derive_processing_base(architecture, gamma_offset_db, scenario.lambda_0, lambda_1)
    return replace(
        scenario,
        architecture=architecture,
        gamma_offset_db=gamma_offset_db,
        lambda_1c=lambda_1 / (1.0 + scenario.lambda_1m),
        links=replace(scenario.links, processing_base=processing),
    )


def default_scenario(
    architecture: Architecture = Architecture.CLOUD_RAN,
    gamma_offset_db: float = 0.0,
    lambda_0: float = Scenario.lambda_0,
) -> Scenario:
    """The bundled default scenario, fully resolved.

    170 users/km^2 at 10 Mbps each; the base-station intensity comes from
    :func:`redimension` and splits into clusters of one macro plus
    ``lambda_1m`` expected micros with cluster variance 0.5. Backhaul is an
    equal mix of microwave and fiber nodes averaging 5/km^2 (two microwave
    nodes stand in for one fiber node, hence the 2:1 intensity ratio). These
    and the price tables are the :class:`Scenario` defaults.
    """
    return redimension(Scenario(lambda_0=lambda_0), architecture, gamma_offset_db)


@dataclass
class ComplexitySettings:
    """Decoder model, SNR-sampler spec and outage target of the [complexity] section."""

    decoder: DecoderParams = DecoderParams()
    sampler_name: str = "nearest_bs"
    sampler_params: dict = field(default_factory=dict)
    eps_comp: float = 0.1


# ---------------------------------------------------------------------------
# The schema


class _Kind(NamedTuple):
    """How a key's text becomes a field value and back."""

    parse: Callable[[str, str], object]  # (text, key) -> value; a ConfigError names the key
    show: Callable[[object], str] = repr


def _number(lo=None, hi=None, above=None, among=None) -> _Kind:
    """A finite number; ``lo``, ``hi`` inclusive, ``above`` exclusive, ``among`` the allowed values."""

    def parse(raw: str, key: str):
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"expected a number, got {raw!r}", key=key) from None
        if not math.isfinite(value):
            raise ConfigError("value must be finite", key=key)
        if lo is not None and value < lo:
            raise ConfigError(f"value {value} below minimum {lo}", key=key)
        if above is not None and value <= above:
            raise ConfigError(f"value {value} must be above {above}", key=key)
        if hi is not None and value > hi:
            raise ConfigError(f"value {value} above maximum {hi}", key=key)
        if among is not None and value not in among:
            raise ConfigError(f"value {value} must be one of {sorted(among)}", key=key)
        return value

    return _Kind(parse)


def _choice(values, show=str) -> _Kind:
    """One of ``values``, written ``show(value)`` and read without regard to case."""
    by_text = {show(value): value for value in values}

    def parse(raw: str, key: str):
        try:
            return by_text[raw.strip().lower()]
        except KeyError:
            raise ConfigError(f"expected one of {', '.join(by_text)}, got {raw.strip()!r}", key=key) from None

    return _Kind(parse, show)


def parse_values(raw: str, key: str) -> tuple[float, ...]:
    """The finite numbers of a space- or comma-separated list; at least one is required."""
    try:
        values = tuple(float(tok) for tok in raw.replace(",", " ").split())
    except ValueError:
        values = ()
    if not values or not all(map(math.isfinite, values)):
        raise ConfigError(f"expected one or more finite numbers, got {raw!r}", key=key)
    return values


def parse_names(raw: str, key: str) -> tuple[str, ...]:
    """The entries of a comma-separated list, stripped, empty entries skipped; at least one is required."""
    names = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    if not names:
        raise ConfigError(f"expected one or more comma-separated names, got {raw!r}", key=key)
    return names


_NUMBER = _number()
_NONNEG = _number(lo=0.0)
_FRACTION = _number(lo=0.0, hi=1.0)
_POSITIVE = _number(lo=1e-12)
_OPEN_UNIT = _number(lo=1e-9, hi=1.0 - 1e-9)
_TEXT = _Kind(lambda raw, key: raw.strip(), str)
#: the scenario holds the cluster spread sigma; its key is the variance
_VARIANCE = _Kind(lambda raw, key: math.sqrt(_POSITIVE.parse(raw, key)), lambda sigma: repr(sigma**2))


class _Key(NamedTuple):
    """One schema row: a config key and the attribute it sets."""

    section: str
    key: str
    path: str  # dotted attribute path; an empty one, or one ending in ".", ends in the key itself
    kind: _Kind
    #: how :func:`redimension` treats the attribute: as its "argument", or as
    #: "derived", where an explicit key wins except in a sweep, which
    #: re-dimensions every variant and so rejects the key
    role: str | None = None

    @property
    def names(self) -> list[str]:
        path = self.path + self.key if self.path.endswith(".") or not self.path else self.path
        return path.split(".")


def _replaced(obj, names: list[str], value):
    """``obj`` with the attribute at the path ``names`` set to ``value``."""
    head, *rest = names
    return replace(obj, **{head: _replaced(getattr(obj, head), rest, value) if rest else value})


#: the scenario keys, in the order --dump-config writes them
_SCENARIO_KEYS = (
    _Key("architecture", "mode", "architecture", _choice(Architecture, attrgetter("value")), "argument"),
    _Key("architecture", "gamma_offset_db", "", _number(among=OFFSET_PRESETS), "argument"),
    _Key("geometry", "lambda0", "lambda_0", _POSITIVE),
    _Key("geometry", "lambda1c", "lambda_1c", _NONNEG, "derived"),
    _Key("geometry", "lambda1m", "lambda_1m", _NONNEG),
    _Key("geometry", "sigma2", "sigma", _VARIANCE),
    _Key("geometry", "p", "p_mw", _FRACTION),
    _Key("geometry", "lambda2_mw", "lambda_2_mw", _NONNEG),
    _Key("geometry", "lambda2_of", "lambda_2_of", _NONNEG),
    _Key("geometry", "lambda3", "lambda_3", _NONNEG),
    _Key("costs", "c_macro", "equipment.", _NONNEG),
    _Key("costs", "c_micro", "equipment.", _NONNEG),
    _Key("costs", "c_mw", "equipment.", _NONNEG),
    _Key("costs", "c_of", "equipment.", _NONNEG),
    _Key("costs", "c_dc", "equipment.", _NONNEG),
    _Key("costs", "alpha", "equipment.", _FRACTION),
    _Key("costs", "a01", "links.user_bs.a", _NONNEG),
    _Key("costs", "beta01", "links.user_bs.beta", _NONNEG),
    _Key("costs", "b01", "links.user_bs.b", _NONNEG),
    _Key("costs", "theta01", "links.user_bs.theta", _NONNEG),
    _Key("costs", "a12_mw", "links.bs_backhaul_mw.a", _NONNEG),
    _Key("costs", "beta12_mw", "links.bs_backhaul_mw.beta", _NONNEG),
    _Key("costs", "b12_mw", "links.bs_backhaul_mw.b", _NONNEG),
    _Key("costs", "theta12_mw", "links.bs_backhaul_mw.theta", _NONNEG),
    _Key("costs", "a12_of", "links.bs_backhaul_of.a", _NONNEG),
    _Key("costs", "beta12_of", "links.bs_backhaul_of.beta", _NONNEG),
    _Key("costs", "b12_of", "links.bs_backhaul_of.b", _NONNEG),
    _Key("costs", "theta12_of", "links.bs_backhaul_of.theta", _NONNEG),
    _Key("costs", "a23_mw", "links.backhaul_dc_mw.a", _NONNEG),
    _Key("costs", "beta23_mw", "links.backhaul_dc_mw.beta", _NONNEG),
    _Key("costs", "b23_mw", "links.backhaul_dc_mw.b", _NONNEG),
    _Key("costs", "theta23_mw", "links.backhaul_dc_mw.theta", _NONNEG),
    _Key("costs", "a23_of", "links.backhaul_dc_of.a", _NONNEG),
    _Key("costs", "beta23_of", "links.backhaul_dc_of.beta", _NONNEG),
    _Key("costs", "b23_of", "links.backhaul_dc_of.b", _NONNEG),
    _Key("costs", "theta23_of", "links.backhaul_dc_of.theta", _NONNEG),
    _Key("costs", "a23_processing", "links.processing_base", _NONNEG, "derived"),
    _Key("simulation", "c2_convention", "", _choice(C2_CONVENTIONS)),
)

#: why a sweep rejects a key, by its role
_SWEEP_REJECTS = {
    "argument": "the variants come from --architectures",
    "derived": "every variant is re-dimensioned",
}

_SCHEMA = (
    *_SCENARIO_KEYS,
    _Key("complexity", "zeta", "decoder.", _number(above=2.0)),
    _Key("complexity", "k_scaling", "decoder.", _number(lo=1e-9)),
    _Key("complexity", "nu_db", "decoder.", _number(above=0.0)),
    _Key("complexity", "sampler", "sampler_name", _TEXT),
    _Key("complexity", "eps_comp", "", _OPEN_UNIT),
)

_SECTIONS = {section: {row.key: row for row in rows} for section, rows in groupby(_SCHEMA, attrgetter("section"))}


# ---------------------------------------------------------------------------
# Reading


class ConfigFile:
    """A config file read once, every key of every section parsed and checked.

    ``complexity`` holds the [complexity] settings and ``sampler`` the SNR
    sampler they name, built here so that every command checks it.
    """

    def __init__(self, values: dict, sampler_params: dict):
        self._scenario = {row: value for row, value in values.items() if row in _SCENARIO_KEYS}
        self.complexity = ComplexitySettings(sampler_params=sampler_params)
        for row, value in values.items():
            if row.section == "complexity":
                try:
                    self.complexity = _replaced(self.complexity, row.names, value)
                except ParameterError as exc:  # DecoderParams checks what one key cannot
                    raise ConfigError(str(exc), key=row.key) from None
        self.sampler = make_snr_sampler(self.complexity.sampler_name, **self.complexity.sampler_params)

    def scenario(self, architecture: Architecture | None = None) -> Scenario:
        """The file's scenario over the :class:`Scenario` defaults, re-dimensioned.

        ``architecture``, when given, replaces the file's architecture before
        :func:`redimension`; an explicit key for an attribute it derives wins.
        """
        scenario = Scenario()
        for row, value in self._scenario.items():
            scenario = _replaced(scenario, row.names, value)
        scenario = redimension(scenario, architecture or scenario.architecture, scenario.gamma_offset_db)
        for row, value in self._scenario.items():
            if row.role == "derived":
                scenario = _replaced(scenario, row.names, value)
        return scenario

    def sweep_scenario(self) -> Scenario:
        """The base scenario of a sweep; a key the sweep would replace is a :class:`ConfigError`."""
        for row in self._scenario:
            if row.role is not None:
                reason = _SWEEP_REJECTS[row.role]
                raise ConfigError(f"[{row.section}] {row.key} has no effect in a sweep: {reason}", key=row.key)
        return self.scenario()


def read_config(path=None, text: str | None = None) -> ConfigFile:
    """Parse and check the config file at ``path`` (or the INI ``text``); neither means no config."""
    parser = configparser.ConfigParser()
    try:
        if text is not None:
            parser.read_string(text)
        elif path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ConfigError(f"config file failed to parse: {exc}")
    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}]")
    values, sampler_params = {}, {}
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]; known: {', '.join(_SECTIONS)}")
        known = _SECTIONS[name]
        for key, raw in parser[name].items():
            if key in known:
                values[known[key]] = known[key].kind.parse(raw, key)
            elif name == "complexity" and key.startswith("sampler_"):
                # make_snr_sampler checks sampler_<param> keys against the named sampler
                sampler_params[key.removeprefix("sampler_")] = _NUMBER.parse(raw, key)
            else:
                raise ConfigError(f"unknown key in [{name}]; known: {', '.join(known)}", key=key)
    return ConfigFile(values, sampler_params)


def load_scenario(path=None, text: str | None = None, architecture: Architecture | None = None) -> Scenario:
    """The scenario of a config file; see :meth:`ConfigFile.scenario`."""
    return read_config(path, text).scenario(architecture)


def load_complexity_settings(path=None, text: str | None = None) -> ComplexitySettings:
    """The [complexity] settings of a config file, every other section checked too."""
    return read_config(path, text).complexity


# ---------------------------------------------------------------------------
# Writing


def scenario_to_config(scenario: Scenario) -> str:
    """Serialize a Scenario into the INI format accepted by :func:`load_scenario`."""
    lines = []
    for section, rows in groupby(_SCENARIO_KEYS, attrgetter("section")):
        lines.append(f"[{section}]")
        lines += (f"{row.key} = {row.kind.show(reduce(getattr, row.names, scenario))}" for row in rows)
        lines.append("")
    return "\n".join(lines) + "\n"


def scenario_hash(scenario: Scenario) -> str:
    """Stable short digest of a fully resolved scenario."""
    return hashlib.sha256(scenario_to_config(scenario).encode()).hexdigest()[:16]
