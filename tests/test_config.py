"""Tests for scenario presets, config loading and round-trip serialization."""

import inspect
import json
import math
import re
from collections import Counter
from dataclasses import fields, is_dataclass

import pytest

from crancost.cli import main
from crancost.complexity import _SAMPLERS
from crancost.config import (
    _SCENARIO_KEYS,
    _SCHEMA,
    default_scenario,
    load_complexity_settings,
    load_scenario,
    read_config,
    redimension,
    scenario_hash,
    scenario_to_config,
)
from crancost.costs import Architecture, Scenario
from crancost.errors import ConfigError
from crancost.sweeps import ARCHITECTURE_VARIANTS


def _moved(a, b, rel=1e-12) -> bool:
    """Whether two JSON values differ: a number by more than ``rel`` relative, anything else at all."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() != b.keys() or any(_moved(a[k], b[k], rel) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) != len(b) or any(_moved(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) > rel * max(abs(a), abs(b))
    return a != b


class TestDefaultScenario:
    def test_preset_geometry(self):
        scen = default_scenario()
        assert scen.lambda_0 == 170.0
        assert scen.lambda_2 == pytest.approx(5.0)
        assert scen.sigma**2 == pytest.approx(0.5)
        assert scen.p_mw == 0.5
        assert scen.lambda_3 == 3.0

    def test_preset_costs(self):
        scen = default_scenario(architecture=Architecture.DRAN)
        assert scen.equipment.c_macro == 50000.0
        assert scen.equipment.c_micro == 20000.0
        assert scen.equipment.c_mw == 50000.0
        assert scen.equipment.c_of == 5000.0
        assert scen.links.user_bs.a == 5000.0
        assert scen.links.user_bs.beta == 4.0
        assert scen.links.bs_backhaul_of.b == 100000.0

    def test_offset_selects_intensity_and_processing(self):
        by_offset = {g: default_scenario(gamma_offset_db=g) for g in (0.0, 0.4, 0.9)}
        assert by_offset[0.0].lambda_1 == pytest.approx(50.03, abs=0.5)
        assert by_offset[0.4].lambda_1 == pytest.approx(51.2, abs=0.5)
        assert by_offset[0.9].lambda_1 == pytest.approx(52.8, abs=0.5)
        # processing cost falls as the offset grows (cheaper decoding)
        bases = [by_offset[g].links.processing_base for g in (0.0, 0.4, 0.9)]
        assert bases[0] > bases[1] > bases[2]
        assert bases[0] == pytest.approx(653.54, abs=1.0)

    def test_dran_runs_at_zero_offset_with_higher_processing(self):
        dran = default_scenario(architecture=Architecture.DRAN, gamma_offset_db=0.9)
        assert dran.gamma_offset_db == 0.0
        cloud = default_scenario(architecture=Architecture.CLOUD_RAN)
        assert dran.links.processing_base > cloud.links.processing_base


class TestRedimension:
    @pytest.mark.parametrize("variant", sorted(ARCHITECTURE_VARIANTS))
    def test_default_scenario_is_a_fixed_point(self, variant):
        architecture, gamma = ARCHITECTURE_VARIANTS[variant]
        scen = default_scenario(architecture, gamma)
        assert scenario_hash(redimension(scen, architecture, gamma)) == scenario_hash(scen)

    def test_only_architecture_intensity_and_processing_change(self):
        scen = load_scenario(text="[geometry]\nlambda3 = 1.5\np = 0.25\n[costs]\nc_macro = 60000\n")
        dran = redimension(scen, Architecture.DRAN, 0.9)
        reference = default_scenario(Architecture.DRAN)
        assert dran.gamma_offset_db == 0.0
        assert dran.lambda_1c == reference.lambda_1c
        assert dran.links.processing_base == reference.links.processing_base
        assert (dran.lambda_3, dran.p_mw, dran.equipment) == (1.5, 0.25, scen.equipment)


class TestLoadScenario:
    def test_empty_config_gives_the_preset(self):
        scen = load_scenario(text="")
        assert scen == default_scenario()

    def test_out_of_range_probability_names_the_key(self):
        with pytest.raises(ConfigError, match="'p'"):
            load_scenario(text="[geometry]\np = 1.5\n")

    def test_non_numeric_value_names_the_key(self):
        with pytest.raises(ConfigError, match="lambda3"):
            load_scenario(text="[geometry]\nlambda3 = plenty\n")

    def test_architecture_selection(self):
        scen = load_scenario(text="[architecture]\nmode = dran\n")
        assert scen.architecture is Architecture.DRAN
        assert scen.c_dc_effective == 0.0

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            load_scenario(text="[architecture]\nmode = hybrid\n")

    def test_unsupported_offset_rejected(self):
        with pytest.raises(ConfigError, match="gamma_offset_db"):
            load_scenario(text="[architecture]\ngamma_offset_db = 0.7\n")

    def test_geometry_overrides_apply(self):
        scen = load_scenario(
            text="[geometry]\nlambda3 = 1.5\nsigma2 = 1.0\np = 0.25\nlambda1c = 12.0\n"
        )
        assert scen.lambda_3 == 1.5
        assert scen.sigma == pytest.approx(1.0)
        assert scen.p_mw == 0.25
        assert scen.lambda_1c == 12.0

    def test_lambda0_override_redimensions_stations(self):
        scen = load_scenario(text="[geometry]\nlambda0 = 300\n")
        assert scen.lambda_1 == pytest.approx(88.2, abs=1.0)
        # processing base stays finite and per-user
        assert 0 < scen.links.processing_base < 2000

    def test_architecture_argument_replaces_the_mode(self):
        text = "[architecture]\nmode = cloud_ran\ngamma_offset_db = 0.4\n"
        assert load_scenario(text=text, architecture=Architecture.DRAN) == default_scenario(Architecture.DRAN)

    def test_explicit_keys_win_over_the_architecture_argument(self):
        text = "[geometry]\nlambda1c = 5\n[costs]\na23_processing = 1\n"
        scen = load_scenario(text=text, architecture=Architecture.DRAN)
        assert scen.architecture is Architecture.DRAN
        assert (scen.lambda_1c, scen.links.processing_base) == (5.0, 1.0)

    def test_cost_overrides_apply(self):
        scen = load_scenario(text="[costs]\nc_macro = 60000\nb12_of = 90000\na23_processing = 500\n")
        assert scen.equipment.c_macro == 60000.0
        assert scen.links.bs_backhaul_of.b == 90000.0
        assert scen.links.processing_base == 500.0

    def test_alpha_range_checked(self):
        with pytest.raises(ConfigError, match="alpha"):
            load_scenario(text="[costs]\nalpha = 1.4\n")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario("/nonexistent/scenario.ini")

    def test_simulation_flags(self):
        scen = load_scenario(text="[simulation]\nc2_convention = normalized\n")
        assert scen.c2_convention == "normalized"

    @pytest.mark.parametrize(
        "text,name",
        [
            ("[bogus]\nx = 1\n", "[bogus]"),
            ("[geometry]\nlamda3 = 9\n", "lamda3"),
            ("[radio]\nptx_dbm = 46\n", "[radio]"),
            ("[complexity]\ngamma_offset_db = 0.4\n", "gamma_offset_db"),
            ("[complexity]\neps_channel = 0.3\n", "eps_channel"),
            ("[costs]\nc_macroo = 1\n", "c_macroo"),
            ("[simulation]\nuser_bs_distance = contact\n", "user_bs_distance"),
            ("[DEFAULT]\nlambda3 = 2\n", "[DEFAULT]"),
        ],
    )
    def test_unknown_section_or_key_is_rejected(self, tmp_path, capsys, text, name):
        with pytest.raises(ConfigError, match=re.escape(name)):
            load_scenario(text=text)
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(text)
        for command in (["evaluate"], ["complexity", "--pool-sizes", "1", "--offsets", "0"]):
            assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
            assert name in json.loads(capsys.readouterr().err)["message"]

    def test_sampler_keys_stay_open(self):
        text = "[complexity]\nsampler_lambda_1 = 50\n"
        assert load_scenario(text=text) == default_scenario()
        assert load_complexity_settings(text=text).sampler_params == {"lambda_1": 50.0}


class TestComplexitySection:
    def test_defaults(self):
        settings = load_complexity_settings(text="")
        assert settings.decoder.zeta == 6.0
        assert settings.eps_comp == 0.1
        assert settings.sampler_name == "nearest_bs"

    def test_sampler_spec_from_config(self):
        settings = load_complexity_settings(
            text="[complexity]\nsampler = lognormal\nsampler_median_db = 15\nsampler_sigma_db = 4\n"
                 "eps_comp = 0.05\nzeta = 8\n"
        )
        assert settings.decoder.zeta == 8.0
        assert settings.eps_comp == 0.05
        sampler = settings.make_sampler()
        assert sampler.median_db == 15.0
        assert sampler.sigma_db == 4.0

    @pytest.mark.parametrize(
        "line,key",
        [
            ("zeta = 2", "zeta"),
            ("zeta = 1.5", "zeta"),
            ("nu_db = 0", "nu_db"),
            ("nu_db = -1", "nu_db"),
            ("n_mc = 10.7", "n_mc"),
            ("n_mc = 0", "n_mc"),
            ("sampler_gamma = x", "sampler_gamma"),
        ],
    )
    def test_invalid_values_are_config_errors_naming_the_key(self, line, key):
        with pytest.raises(ConfigError) as exc:
            load_complexity_settings(text=f"[complexity]\n{line}\n")
        assert exc.value.key == key

    def test_integral_n_mc_is_accepted(self):
        assert load_complexity_settings(text="[complexity]\nn_mc = 64.0\n").n_mc == 64

    #: a valid value other than the default for every [complexity] key
    NON_DEFAULT = {
        "zeta": "8",
        "k_scaling": "0.3",
        "nu_db": "0.5",
        "sampler": "rayleigh_fading",
        "eps_comp": "0.2",
        "n_mc": "5000",
    }

    @pytest.fixture(scope="class")
    def table(self, tmp_path_factory):
        """The complexity JSON under a config text."""
        tmp = tmp_path_factory.mktemp("complexity")

        def table(text: str) -> dict:
            cfg, out = tmp / "scenario.ini", tmp / "out.json"
            cfg.write_text(text)
            command = ["complexity", "--pool-sizes", "1 5", "--offsets", "0", "--config", str(cfg)]
            assert main([*command, "--out", str(out)]) == 0
            return json.loads(out.read_text())

        return table

    @pytest.mark.parametrize("key", [row.key for row in _SCHEMA if row.section == "complexity"])
    def test_every_key_changes_the_table(self, table, key):
        """A key the table does not read is inert and must not be accepted."""
        assert _moved(table(f"[complexity]\n{key} = {self.NON_DEFAULT[key]}\n"), table(""))

    def test_every_sampler_parameter_changes_the_table(self, table):
        """Doubling any sampler parameter moves the table; the one exception is pinned.

        nearest_bs ``lambda_1`` cancels from the SNR law and moves the table by
        rounding only (4.3e-15 relative). It stays because the benchmark's
        pooling workload passes it; the parameter goes with the next change to
        the benchmark.
        """
        inert = set()
        for name, sampler in _SAMPLERS.items():
            base = {
                param: 10.0 if spec.default is inspect.Parameter.empty else spec.default
                for param, spec in inspect.signature(sampler).parameters.items()
            }

            def text(params):
                return f"[complexity]\nsampler = {name}\n" + "".join(f"sampler_{k} = {v}\n" for k, v in params.items())

            reference = table(text(base))
            for param, value in base.items():
                if not _moved(table(text({**base, param: 2.0 * value})), reference):
                    inert.add((name, param))
        assert inert == {("nearest_bs", "lambda_1")}


def _scenario_defaults() -> dict[str, str]:
    """Each scenario key's default, as ``--dump-config`` writes it."""
    lines = scenario_to_config(default_scenario()).splitlines()
    return dict(line.split(" = ") for line in lines if " = " in line)


#: a valid other value for every scenario key that is not a number to halve
_OTHER_CHOICE = {"mode": "dran", "gamma_offset_db": "0.4", "c2_convention": "normalized"}


def _leaf_fields(record, prefix: str = "") -> list[str]:
    """The dotted path of every field of ``record`` that is not itself a record."""
    paths = []
    for f in fields(record):
        value = getattr(record, f.name)
        paths += _leaf_fields(value, f"{prefix}{f.name}.") if is_dataclass(value) else [prefix + f.name]
    return paths


def test_every_scenario_field_has_exactly_one_config_key():
    """Every leaf of Scenario, through equipment, links and each LinkCost, is set by one key, and every key sets one."""
    leaves = _leaf_fields(Scenario())
    keyed = Counter(".".join(row.names) for row in _SCENARIO_KEYS)
    assert {path: keyed[path] for path in leaves} == dict.fromkeys(leaves, 1)
    assert keyed.keys() <= set(leaves)


@pytest.mark.parametrize("key,default", sorted(_scenario_defaults().items()))
def test_every_scenario_key_changes_evaluate(tmp_path, key, default):
    """A scenario key whose value no cost term reads is inert and must not be accepted."""

    def costs(text: str) -> dict:
        cfg, out = tmp_path / "scenario.ini", tmp_path / "out.json"
        cfg.write_text(text)
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        # the hash and the echoed inputs move with any key; the costs must move too
        return {k: payload[k] for k in ("per_data_center", "c_phi3", "total_per_km2")}

    section = next(row.section for row in _SCHEMA if row.key == key)
    other = _OTHER_CHOICE.get(key) or repr(float(default) / 2.0)
    assert _moved(costs(f"[{section}]\n{key} = {other}\n"), costs(""))


class TestSweepSection:
    def test_absent_returns_none(self):
        assert read_config(text="").sweep is None

    def test_parsed_fields(self):
        sweep = read_config(
            text="[sweep]\naxis = lambda3\nvalues = 1 2 3\narchitectures = dran,cloud_ran@0db\n"
        ).sweep
        assert sweep == {"axis": "lambda3", "values": (1.0, 2.0, 3.0), "architectures": ("dran", "cloud_ran@0db")}

    def test_incomplete_section_rejected(self):
        with pytest.raises(ConfigError):
            read_config(text="[sweep]\naxis = lambda3\n")


def _dump_config(tmp_path, text: str):
    """The scenario ``evaluate --dump-config`` writes for the config ``text``, loaded back."""
    cfg, path = tmp_path / "given.ini", tmp_path / "scenario.ini"
    cfg.write_text(text)
    assert main(["evaluate", "--config", str(cfg), "--dump-config", str(path), "--out", str(tmp_path / "e.json")]) == 0
    return load_scenario(path)


class TestRoundTrip:
    def test_load_emit_load_reproduces_the_scenario(self, tmp_path):
        scen = default_scenario(architecture=Architecture.CLOUD_RAN, gamma_offset_db=0.4)
        assert _dump_config(tmp_path, "[architecture]\nmode = cloud_ran\ngamma_offset_db = 0.4\n") == scen
        assert load_scenario(text=scenario_to_config(scen)) == scen

    def test_roundtrip_preserves_overrides(self, tmp_path):
        text = "[geometry]\nlambda3 = 2.25\np = 0.125\n[costs]\nc_of = 4321\n"
        assert _dump_config(tmp_path, text) == load_scenario(text=text)

    def test_hash_stability(self):
        a = scenario_hash(default_scenario())
        b = scenario_hash(default_scenario())
        c = scenario_hash(default_scenario(gamma_offset_db=0.4))
        assert a == b
        assert a != c

    @pytest.mark.parametrize(
        "variant,digest",
        [
            ("dran", "26869954b68fd4ce"),
            ("cloud_ran@0db", "cc64f690e2cc5cfc"),
            ("cloud_ran@0.4db", "272cd3a69ace2d66"),
            ("cloud_ran@0.9db", "28939c1720ff6435"),
        ],
    )
    def test_default_variant_hashes_are_pinned(self, variant, digest):
        # the digest covers every written key, its order and its text
        assert scenario_hash(default_scenario(*ARCHITECTURE_VARIANTS[variant])) == digest

    def test_config_text_is_sectioned(self):
        text = scenario_to_config(default_scenario())
        for section in ("[architecture]", "[geometry]", "[costs]", "[simulation]"):
            assert section in text
