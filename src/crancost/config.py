"""Scenario configuration: the default scenario, INI files, round-trip serialization.

The config format is flat key-value text with one section per concern
(architecture, geometry, costs, complexity, simulation, sweep); keys follow
the model symbols (lambda0, lambda1c, sigma2, gamma_offset_db, ...). Unset
keys fall back to :func:`default_scenario`; an unknown section or key is a
:class:`ConfigError`. :func:`redimension` is the one place where an
architecture and link-adaptation offset select the base-station intensity
and the matching processing-cost fit; the default scenario, the sweeps and
``load_scenario`` all go through it.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import replace

from .complexity import (
    DecoderParams,
    PROCESSING_PRESETS,
    dran_processing_preset,
    make_snr_sampler,
    processing_cost_rate,
)
from .costs import Architecture, LinkCost, Scenario
from .dimensioning import invert_for_bs_intensity, spectral_efficiency_target
from .errors import ConfigError, CrancostError

__all__ = [
    "default_scenario",
    "redimension",
    "load_scenario",
    "check_sweep_overrides",
    "load_complexity_settings",
    "load_sweep_section",
    "parse_values",
    "parse_names",
    "save_scenario",
    "scenario_to_config",
    "scenario_hash",
]

#: server hardware price used to turn server counts into processing cost
_SERVER_COST = 20000.0


def derive_bs_intensity(lambda_0: float, gamma_offset_db: float) -> float:
    """Base-station intensity meeting the offset-adjusted rate target."""
    return invert_for_bs_intensity(spectral_efficiency_target(gamma_offset_db), lambda_0)


def derive_processing_base(
    architecture: Architecture, gamma_offset_db: float, lambda_0: float, lambda_1: float
) -> float:
    """Per-user data-processing cost for the architecture and decoder offset."""
    if architecture is Architecture.CLOUD_RAN:
        preset = PROCESSING_PRESETS[gamma_offset_db]
    else:
        preset = dran_processing_preset(gamma_offset_db)
    return processing_cost_rate(preset.slope, preset.intercept, lambda_1, _SERVER_COST, lambda_0)


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
    lambda_0: float = 170.0,
    lambda_1m: float = 4.0,
) -> Scenario:
    """The bundled default scenario, fully resolved.

    170 users/km^2 at 10 Mbps each; the base-station intensity comes from
    :func:`redimension` and splits into clusters of one macro plus
    ``lambda_1m`` expected micros with cluster variance 0.5. Backhaul is an
    equal mix of microwave and fiber nodes averaging 5/km^2 (two microwave
    nodes stand in for one fiber node, hence the 2:1 intensity ratio). These
    and the price tables are the :class:`Scenario` defaults.
    """
    return redimension(Scenario(lambda_0=lambda_0, lambda_1m=lambda_1m), architecture, gamma_offset_db)


# ---------------------------------------------------------------------------
# INI serialization

_EQUIPMENT_KEYS = {
    "c_macro": "c_macro",
    "c_micro": "c_micro",
    "c_mw": "c_mw",
    "c_of": "c_of",
    "c_dc": "c_dc",
    "alpha": "alpha",
}

_LINK_FIELDS = {
    "user_bs": ("a01", "beta01", "b01", "theta01"),
    "bs_backhaul_mw": ("a12_mw", "beta12_mw", "b12_mw", "theta12_mw"),
    "bs_backhaul_of": ("a12_of", "beta12_of", "b12_of", "theta12_of"),
    "backhaul_dc_mw": ("a23_mw", "beta23_mw", "b23_mw", "theta23_mw"),
    "backhaul_dc_of": ("a23_of", "beta23_of", "b23_of", "theta23_of"),
}

#: the keys each section accepts; [complexity] also takes the sampler_<param>
#: keys, which make_snr_sampler checks against the named sampler
_SECTION_KEYS = {
    "architecture": ("mode", "gamma_offset_db"),
    "geometry": ("lambda0", "lambda1c", "lambda1m", "sigma2", "p", "lambda2_mw", "lambda2_of", "lambda3"),
    "costs": (*_EQUIPMENT_KEYS, *(key for keys in _LINK_FIELDS.values() for key in keys), "a23_processing"),
    "complexity": ("zeta", "k_scaling", "eps_channel", "nu_db", "sampler", "eps_comp", "n_mc"),
    "simulation": ("user_bs_distance", "c2_convention"),
    "sweep": ("axis", "values", "architectures"),
}


def _getfloat(
    section, key: str, lo: float | None = None, hi: float | None = None, above: float | None = None
) -> float | None:
    """The finite number under ``key``, None if absent; ``lo``, ``hi`` inclusive, ``above`` exclusive."""
    if key not in section:
        return None
    raw = section[key]
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
    return value


def _getint(section, key: str, lo: int) -> int | None:
    """The integer under ``key``, None if absent; a fractional value is an error, not truncated."""
    value = _getfloat(section, key, lo=lo)
    if value is None:
        return None
    if value != int(value):
        raise ConfigError(f"expected an integer, got {section[key]!r}", key=key)
    return int(value)


def _read_parser(path=None, text: str | None = None) -> configparser.ConfigParser:
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
    for name in parser.sections():
        if name not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{name}]; known: {', '.join(_SECTION_KEYS)}")
        for key in parser[name]:
            if key not in _SECTION_KEYS[name] and not (name == "complexity" and key.startswith("sampler_")):
                raise ConfigError(f"unknown key in [{name}]; known: {', '.join(_SECTION_KEYS[name])}", key=key)
    return parser


class ComplexitySettings:
    """Decoder model and SNR-sampler spec resolved from the [complexity] section."""

    def __init__(self, decoder: DecoderParams, sampler_name: str, sampler_params: dict,
                 eps_comp: float, n_mc: int):
        self.decoder = decoder
        self.sampler_name = sampler_name
        self.sampler_params = sampler_params
        self.eps_comp = eps_comp
        self.n_mc = n_mc

    def make_sampler(self):
        return make_snr_sampler(self.sampler_name, **self.sampler_params)


def load_complexity_settings(path=None, text: str | None = None) -> ComplexitySettings:
    """Decoder parameters and sampler spec (name + sampler_* keys) from config."""
    parser = _read_parser(path, text)
    section = parser["complexity"] if parser.has_section("complexity") else {}
    decoder = DecoderParams(
        zeta=_getfloat(section, "zeta", above=2.0) or 6.0,
        k_scaling=_getfloat(section, "k_scaling", lo=1e-9) or 0.2,
        eps_channel=_getfloat(section, "eps_channel", lo=1e-9, hi=1.0 - 1e-9) or 0.1,
        nu_db=_getfloat(section, "nu_db") if "nu_db" in section else 0.2,
    )
    sampler_name = section.get("sampler", "nearest_bs").strip()
    sampler_params = {}
    for key in section:
        if key.startswith("sampler_"):
            sampler_params[key[len("sampler_"):]] = _getfloat(section, key)
    eps_comp = _getfloat(section, "eps_comp", lo=1e-9, hi=1.0 - 1e-9) or 0.1
    n_mc = _getint(section, "n_mc", lo=1) or 20000
    return ComplexitySettings(decoder, sampler_name, sampler_params, eps_comp, n_mc)


def parse_values(raw: str, key: str) -> tuple[float, ...]:
    """The finite numbers of a space- or comma-separated list; at least one is required."""
    try:
        values = tuple(float(tok) for tok in raw.replace(",", " ").split())
    except ValueError:
        values = ()
    if not values or not all(map(math.isfinite, values)):
        raise ConfigError(f"expected one or more finite numbers, got {raw!r}", key=key)
    return values


def parse_names(raw: str) -> tuple[str, ...]:
    """The entries of a comma-separated list, stripped, empty entries skipped."""
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def load_sweep_section(path=None, text: str | None = None):
    """(axis, values, architectures) from the [sweep] section, or None if absent."""
    parser = _read_parser(path, text)
    if not parser.has_section("sweep"):
        return None
    section = parser["sweep"]
    if "axis" not in section or "values" not in section:
        raise ConfigError("sweep section needs both 'axis' and 'values'", key="sweep")
    architectures = parse_names(section["architectures"]) if "architectures" in section else None
    return section["axis"].strip(), parse_values(section["values"], "values"), architectures


def check_sweep_overrides(path) -> None:
    """Reject keys of the config file at ``path`` that a sweep would silently replace.

    A sweep re-dimensions every architecture variant it is given, so
    ``[architecture] mode`` and ``gamma_offset_db``, ``lambda1c`` and
    ``a23_processing`` cannot take effect there; each raises
    :class:`ConfigError` naming the key.
    """
    parser = _read_parser(path)
    redimensioned = "every variant is re-dimensioned"
    for section, keys, reason in (
        (
            "architecture",
            ("mode", "gamma_offset_db"),
            "the variants come from --architectures or [sweep] architectures",
        ),
        ("geometry", ("lambda1c",), redimensioned),
        ("costs", ("a23_processing",), redimensioned),
    ):
        for key in keys:
            if parser.has_option(section, key):
                raise ConfigError(f"[{section}] {key} has no effect in a sweep: {reason}", key=key)


def load_scenario(path=None, text: str | None = None, architecture: Architecture | None = None) -> Scenario:
    """Resolve a Scenario from an INI file over :func:`default_scenario`.

    Any key absent from the file takes the default scenario's value;
    geometry and architecture keys that feed derived quantities (base-station
    intensity, processing cost) are applied before derivation so the scenario
    stays internally consistent, and explicit ``lambda1c`` and
    ``a23_processing`` keys are applied after it. ``architecture``, when
    given, takes the place of ``[architecture] mode``.
    """
    parser = _read_parser(path, text)

    arch_section = parser["architecture"] if parser.has_section("architecture") else {}
    mode_raw = arch_section.get("mode", "cloud_ran").strip().lower()
    try:
        mode = Architecture(mode_raw)
    except ValueError:
        raise ConfigError(f"unknown architecture {mode_raw!r}", key="mode") from None
    if architecture is None:
        architecture = mode
    gamma = _getfloat(arch_section, "gamma_offset_db") if arch_section else None
    if gamma is None:
        gamma = 0.0
    if gamma not in PROCESSING_PRESETS:
        raise ConfigError(
            f"gamma_offset_db must be one of {sorted(PROCESSING_PRESETS)}", key="gamma_offset_db"
        )

    geometry = parser["geometry"] if parser.has_section("geometry") else {}
    lambda_0 = _getfloat(geometry, "lambda0", lo=1e-12)
    lambda_1m = _getfloat(geometry, "lambda1m", lo=0.0)

    base = default_scenario(
        architecture=architecture,
        gamma_offset_db=gamma,
        lambda_0=lambda_0 if lambda_0 is not None else 170.0,
        lambda_1m=lambda_1m if lambda_1m is not None else 4.0,
    )

    updates: dict = {}
    if geometry:
        p = _getfloat(geometry, "p", lo=0.0, hi=1.0)
        if p is not None:
            updates["p_mw"] = p
        for key, attr in (("lambda2_mw", "lambda_2_mw"), ("lambda2_of", "lambda_2_of"), ("lambda3", "lambda_3")):
            value = _getfloat(geometry, key, lo=0.0)
            if value is not None:
                updates[attr] = value
        sigma2 = _getfloat(geometry, "sigma2", lo=1e-12)
        if sigma2 is not None:
            updates["sigma"] = math.sqrt(sigma2)
        lambda_1c = _getfloat(geometry, "lambda1c", lo=0.0)
        if lambda_1c is not None:
            updates["lambda_1c"] = lambda_1c

    if parser.has_section("costs"):
        costs = parser["costs"]
        eq_updates = {}
        for key, attr in _EQUIPMENT_KEYS.items():
            value = _getfloat(costs, key, lo=0.0, hi=1.0 if key == "alpha" else None)
            if value is not None:
                eq_updates[attr] = value
        equipment = replace(base.equipment, **eq_updates) if eq_updates else base.equipment

        link_updates = {}
        for field_name, (a_key, beta_key, b_key, theta_key) in _LINK_FIELDS.items():
            current: LinkCost = getattr(base.links, field_name)
            vals = {
                "a": _getfloat(costs, a_key, lo=0.0),
                "beta": _getfloat(costs, beta_key, lo=0.0),
                "b": _getfloat(costs, b_key, lo=0.0),
                "theta": _getfloat(costs, theta_key, lo=0.0),
            }
            present = {k: v for k, v in vals.items() if v is not None}
            if present:
                link_updates[field_name] = replace(current, **present)
        processing = _getfloat(costs, "a23_processing", lo=0.0)
        links = base.links
        if link_updates or processing is not None:
            if processing is not None:
                link_updates["processing_base"] = processing
            links = replace(base.links, **link_updates)
        if eq_updates or link_updates:
            updates["equipment"] = equipment
            updates["links"] = links

    if parser.has_section("simulation"):
        sim = parser["simulation"]
        if "user_bs_distance" in sim:
            updates["user_bs_distance"] = sim["user_bs_distance"].strip()
        if "c2_convention" in sim:
            updates["c2_convention"] = sim["c2_convention"].strip()

    try:
        return replace(base, **updates) if updates else base
    except CrancostError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc))


def scenario_to_config(scenario: Scenario) -> str:
    """Serialize a Scenario into the INI format accepted by load_scenario."""
    parser = configparser.ConfigParser()
    parser["architecture"] = {
        "mode": scenario.architecture.value,
        "gamma_offset_db": repr(scenario.gamma_offset_db),
    }
    parser["geometry"] = {
        "lambda0": repr(scenario.lambda_0),
        "lambda1c": repr(scenario.lambda_1c),
        "lambda1m": repr(scenario.lambda_1m),
        "sigma2": repr(scenario.sigma**2),
        "p": repr(scenario.p_mw),
        "lambda2_mw": repr(scenario.lambda_2_mw),
        "lambda2_of": repr(scenario.lambda_2_of),
        "lambda3": repr(scenario.lambda_3),
    }
    costs = {}
    for key, attr in _EQUIPMENT_KEYS.items():
        costs[key] = repr(getattr(scenario.equipment, attr))
    for field_name, (a_key, beta_key, b_key, theta_key) in _LINK_FIELDS.items():
        link: LinkCost = getattr(scenario.links, field_name)
        costs[a_key] = repr(link.a)
        costs[beta_key] = repr(link.beta)
        costs[b_key] = repr(link.b)
        costs[theta_key] = repr(link.theta)
    costs["a23_processing"] = repr(scenario.links.processing_base)
    parser["costs"] = costs
    parser["simulation"] = {
        "user_bs_distance": scenario.user_bs_distance,
        "c2_convention": scenario.c2_convention,
    }
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario_to_config(scenario))


def scenario_hash(scenario: Scenario) -> str:
    """Stable short digest of a fully resolved scenario."""
    return hashlib.sha256(scenario_to_config(scenario).encode()).hexdigest()[:16]
