"""Tests for sweeps, table emission and the command-line interface."""

import argparse
import configparser
import csv
import hashlib
import inspect
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from crancost.cli import _EXIT_CODES, _SHARED_OPTIONS, _csv, build_parser, main
from crancost.complexity import _SAMPLERS
from crancost.config import _SCHEMA, default_scenario
from crancost.costs import Architecture, datacenter_cost
from crancost.errors import ParameterError
from crancost.simulate import compare_to_closed_form
from crancost.spatial_stats import ppp_contact_moment
from crancost.sweeps import (
    CSV_COLUMNS,
    TOOL_VERSION,
    SweepResult,
    SweepSpec,
    run_sweep,
    tabulate,
)


def _poisson_limit_user_link_terms(s) -> tuple[float, float]:
    """The user-link capacity and infrastructure terms when the stations are a PPP of intensity lambda_1."""
    link, intensity = s.links.user_bs, s.lambda_1c * (1.0 + s.lambda_1m)
    users_per_dc = s.lambda_0 / s.lambda_3
    return (
        users_per_dc * link.a * ppp_contact_moment(link.beta, intensity),
        users_per_dc * link.b * ppp_contact_moment(link.theta, intensity),
    )


def _sweep_csv(result: SweepResult) -> str:
    """The CSV text ``crancost sweep --format csv`` writes for ``result``."""
    return _csv(*tabulate(result)[1:])


class TestSweepSpec:
    def test_rejects_unknown_axis(self):
        with pytest.raises(ParameterError):
            SweepSpec(axis="lambda7", values=(1.0,))

    def test_rejects_empty_or_unsorted_values(self):
        with pytest.raises(ParameterError):
            SweepSpec(axis="lambda3", values=())
        with pytest.raises(ParameterError):
            SweepSpec(axis="lambda3", values=(3.0, 1.0))

    def test_rejects_unknown_architecture(self):
        with pytest.raises(ParameterError):
            SweepSpec(axis="lambda3", values=(1.0,), architectures=("cloud_ran@7db",))

    def test_rejects_empty_architectures(self):
        with pytest.raises(ParameterError, match="architectures"):
            SweepSpec(axis="lambda3", values=(1.0,), architectures=())


class TestRunSweep:
    def test_row_count_is_values_times_architectures(self):
        spec = SweepSpec(axis="lambda3", values=(1.0, 2.0, 3.0), architectures=("dran", "cloud_ran@0db"))
        result = run_sweep(spec, default_scenario())
        assert len(result.rows) == 6

    def test_errors_are_recorded_in_row_and_sweep_continues(self):
        spec = SweepSpec(axis="lambda3", values=(0.0, 3.0), architectures=("cloud_ran@0db",))
        result = run_sweep(spec, default_scenario())
        assert result.rows[0].error is not None and result.rows[0].breakdown is None
        assert result.rows[1].error is None and result.rows[1].breakdown is not None

    @pytest.mark.parametrize("threads", [0, 2, 3])
    def test_a_sweep_runs_serially(self, threads):
        spec = SweepSpec(axis="alpha", values=(0.0,), architectures=("dran",))
        with pytest.raises(ParameterError, match="threads must be 1"):
            run_sweep(spec, default_scenario(), threads=threads)

    def test_lambda3_sweep_shapes(self):
        """Interior minimum for the centralized curve; cheaper than distributed
        across the mid-range of data-center intensities."""
        values = tuple(x / 2.0 for x in range(1, 13))  # 0.5 .. 6.0
        spec = SweepSpec(axis="lambda3", values=values, architectures=("dran", "cloud_ran@0db"))
        result = run_sweep(spec, default_scenario())
        cloud = {r.value: r.breakdown.total_per_km2 for r in result.rows if r.architecture != "dran"}
        dran = {r.value: r.breakdown.total_per_km2 for r in result.rows if r.architecture == "dran"}
        totals = [cloud[v] for v in values]
        arg = totals.index(min(totals))
        assert 0 < arg < len(values) - 1
        for v in values:
            if 1.0 <= v <= 3.0:
                assert cloud[v] < dran[v]

    def test_alpha_sweep_nondecreasing(self):
        spec = SweepSpec(axis="alpha", values=(0.0, 0.25, 0.5, 0.75, 1.0), architectures=("cloud_ran@0db",))
        result = run_sweep(spec, default_scenario())
        totals = [r.breakdown.total_per_km2 for r in result.rows]
        assert all(b >= a - 1e-9 for a, b in zip(totals, totals[1:]))

    def test_p_sweep_minimum_at_the_mix(self):
        spec = SweepSpec(axis="p", values=(0.0, 0.5, 1.0), architectures=("cloud_ran@0db", "dran"))
        result = run_sweep(spec, default_scenario())
        for variant in ("cloud_ran@0db", "dran"):
            by_p = {r.value: r.breakdown.total_per_km2 for r in result.rows if r.architecture == variant}
            assert by_p[0.5] <= by_p[0.0]
            assert by_p[0.5] <= by_p[1.0]

    def test_sigma2_axis_runs(self):
        spec = SweepSpec(axis="sigma2", values=(0.1, 0.5, 1.0), architectures=("cloud_ran@0db",))
        result = run_sweep(spec, default_scenario())
        assert all(r.error is None for r in result.rows)

    def test_nonpositive_sigma2_is_an_error_row(self):
        spec = SweepSpec(axis="sigma2", values=(-1.0, 0.0, 0.5), architectures=("dran",))
        rows = run_sweep(spec, default_scenario()).rows
        assert [r.error.split(":")[0] if r.error else None for r in rows] == ["parameter", "parameter", None]
        assert rows[2].breakdown is not None

    def test_rows_and_breakdowns_carry_no_instance_dict(self):
        """Rows and breakdowns use slots: a held sweep costs its fields, not a dict per object."""
        spec = SweepSpec(axis="alpha", values=(0.0, 1.0), architectures=("dran",))
        rows = run_sweep(spec, default_scenario()).rows
        assert [r.error for r in rows] == [None, None]
        assert not any(hasattr(obj, "__dict__") for r in rows for obj in (r, r.breakdown))


class TestTabulate:
    def test_csv_columns_exact(self):
        spec = SweepSpec(axis="lambda3", values=(3.0,), architectures=("cloud_ran@0db",))
        rows = list(csv.reader(io.StringIO(_sweep_csv(run_sweep(spec, default_scenario())))))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 2

    def test_empty_result_is_header_only(self):
        spec = SweepSpec(axis="lambda3", values=(3.0,), architectures=("cloud_ran@0db",))
        empty = SweepResult(spec=spec, rows=[], metadata={})
        assert _sweep_csv(empty) == ",".join(CSV_COLUMNS) + "\n"

    def test_grouped_columns_sum_to_total(self):
        spec = SweepSpec(axis="lambda3", values=(2.0, 3.0), architectures=("cloud_ran@0db", "dran"))
        result = run_sweep(spec, default_scenario())
        for row in csv.DictReader(io.StringIO(_sweep_csv(result))):
            parts = (
                float(row["equipment"])
                + float(row["capacity"])
                + float(row["infrastructure"])
                + float(row["processing"])
            )
            assert parts == pytest.approx(float(row["total_per_km2"]), rel=1e-4)

    def test_byte_identical_across_runs(self, tmp_path):
        argv = ["sweep", "--axis", "p", "--values", "0 0.5 1", "--architectures", "cloud_ran@0db"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_carries_metadata(self):
        spec = SweepSpec(axis="lambda3", values=(3.0,), architectures=("dran",))
        payload = tabulate(run_sweep(spec, default_scenario()))[0]
        assert payload["metadata"]["axis"] == "lambda3"
        assert "base_scenario_hash" in payload["metadata"]
        assert payload["rows"][0]["architecture"] == "dran"

    def test_error_rows_serialize(self):
        spec = SweepSpec(axis="lambda3", values=(0.0,), architectures=("cloud_ran@0db",))
        result = run_sweep(spec, default_scenario())
        assert "nan" in _sweep_csv(result)
        assert "error" in tabulate(result)[0]["rows"][0]

    def test_unknown_format_is_a_usage_error(self, tmp_path):
        out = tmp_path / "table.xml"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis", "lambda3", "--values", "3", "--format", "xml", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


#: a quick run of each command that takes --config, given a config of only [geometry] lambda3
CONFIG_COMMANDS = {
    "evaluate": ["evaluate"],
    "simulate": ["simulate", "--window", "2", "--reps", "2"],
    "compare": ["compare", "--window", "2", "--reps", "2"],
    "sweep": ["sweep", "--axis", "alpha", "--values", "0", "--architectures", "dran"],
    "complexity": ["complexity", "--pool-sizes", "1", "--offsets", "0", "--n-mc", "64"],
}


class TestCli:
    @pytest.mark.parametrize("command", sorted(CONFIG_COMMANDS))
    def test_every_command_parses_its_config_once(self, tmp_path, monkeypatch, command):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text("[geometry]\nlambda3 = 2\n")
        parses = []
        for method in ("read_file", "read_string"):
            original = getattr(configparser.ConfigParser, method)

            def counted(self, *args, _original=original, **kwargs):
                parses.append(args)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(configparser.ConfigParser, method, counted)
        argv = [*CONFIG_COMMANDS[command], "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert len(parses) == 1

    @pytest.mark.parametrize("command", sorted(CONFIG_COMMANDS))
    @pytest.mark.parametrize(
        "text,key",
        [
            ("[complexity]\nzeta = 1\n", "zeta"),
            ("[complexity]\nnu_db = -1\n", "nu_db"),
            ("[simulation]\nc2_convention = bogus\n", "c2_convention"),
        ],
    )
    def test_a_bad_value_in_any_section_fails_every_command(self, tmp_path, capsys, command, text, key):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(text)
        argv = [*CONFIG_COMMANDS[command], "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "config"
        assert f"'{key}'" in error["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", sorted(CONFIG_COMMANDS))
    @pytest.mark.parametrize(
        "text,words",
        [
            ("sampler = bogus\n", ["bogus", "sampler"]),
            ("sampler_bogus = 1\n", ["nearest_bs", "bogus"]),
            ("sampler = degenerate\n", ["degenerate", "gamma"]),
        ],
        ids=["unknown-sampler", "unknown-parameter", "missing-parameter"],
    )
    def test_a_sampler_that_cannot_be_built_fails_every_command(self, tmp_path, capsys, command, text, words):
        """The config's sampler is built when the file is read, whatever the command reads of it."""
        cfg = tmp_path / "scenario.ini"
        cfg.write_text("[complexity]\n" + text)
        argv = [*CONFIG_COMMANDS[command], "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "parameter" and all(word in error["message"] for word in words)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--lambda0"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_dimension_rejects_non_finite_inputs(self, tmp_path, capsys, flag, value):
        out = tmp_path / "dim.json"
        assert main(["dimension", flag, value, "--out", str(out)]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "parameter"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("width", ["inf", "nan"])
    def test_window_must_be_finite(self, tmp_path, capsys, command, width):
        assert main([command, "--window", width, "--reps", "2", "--out", str(tmp_path / "x.json")]) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "parameter" and "window" in error["message"]

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_one_kept_replication_is_an_estimation_error(self, tmp_path, capsys, command):
        """On a 0.8 km window seed 0 discards one of two replications, and one has no standard error."""
        out = tmp_path / "x.json"
        assert main([command, "--window", "0.8", "--reps", "2", "--seed", "0", "--out", str(out)]) == 7
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "estimation" and "1 of 2 replications kept" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(CONFIG_COMMANDS))
    @pytest.mark.parametrize("value", ["contact", "palm"])
    def test_the_removed_user_bs_distance_key_fails_every_command(self, tmp_path, capsys, command, value):
        """Users are always priced at the contact distance; the key that chose it is unknown, whatever its value."""
        cfg, out, dump = tmp_path / "scenario.ini", tmp_path / "out.json", tmp_path / "nodes.csv"
        cfg.write_text(f"[simulation]\nuser_bs_distance = {value}\n")
        argv = [*CONFIG_COMMANDS[command], "--config", str(cfg), "--out", str(out)]
        if command == "simulate":
            argv += ["--dump-realization", str(dump)]
        assert main(argv) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "config" and "'user_bs_distance'" in error["message"]
        assert not out.exists() and not dump.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare", "complexity"])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, command):
        out = tmp_path / "out.json"
        assert main([command, "--seed", "-1", "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "config" and "'seed'" in error["message"]
        assert not out.exists()

    def test_evaluate_json(self, tmp_path, capsys):
        out = tmp_path / "eval.json"
        code = main(["evaluate", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["total_per_km2"] > 1e6
        assert set(payload["per_data_center"]) == {
            "equipment_backhaul",
            "processing",
            "capacity_dc",
            "infra_dc",
            "equipment_bs",
            "capacity_bs_backhaul",
            "infra_bs_backhaul",
            "capacity_user_bs",
            "infra_user_bs",
        }

    def test_evaluate_csv_format(self, tmp_path):
        out = tmp_path / "eval.csv"
        assert main(["evaluate", "--format", "csv", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["term", "per_data_center"]
        assert rows[-1][0] == "total_per_km2"

    def test_evaluate_architecture_override(self, tmp_path):
        out_c = tmp_path / "cloud.json"
        out_d = tmp_path / "dran.json"
        assert main(["evaluate", "--architecture", "cloud_ran", "--out", str(out_c)]) == 0
        assert main(["evaluate", "--architecture", "dran", "--out", str(out_d)]) == 0
        cloud = json.loads(out_c.read_text())
        dran = json.loads(out_d.read_text())
        assert cloud["total_per_km2"] < dran["total_per_km2"]

    @pytest.mark.parametrize("mode,equipment_bs", [("cloud_ran", 108333.33), ("dran", 216666.67)])
    def test_evaluate_architecture_flag_keeps_config_overrides(self, tmp_path, mode, equipment_bs):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(f"[architecture]\nmode = {mode}\n[geometry]\nlambda1c = 5\n[costs]\na23_processing = 1\n")
        terms = []
        for extra in ([], ["--architecture", mode]):
            out = tmp_path / "eval.json"
            assert main(["evaluate", "--config", str(cfg), "--out", str(out), *extra]) == 0
            per_dc = json.loads(out.read_text())["per_data_center"]
            terms.append((per_dc["equipment_bs"], per_dc["processing"]))
        assert terms[0] == terms[1]
        assert terms[0] == pytest.approx((equipment_bs, 56.67), abs=0.01)

    def test_evaluate_dran_flag_on_a_cloud_config_rederives(self, tmp_path):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text("[architecture]\nmode = cloud_ran\ngamma_offset_db = 0.4\n")
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--config", str(cfg), "--architecture", "dran", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["gamma_offset_db"] == 0.0
        expected = datacenter_cost(default_scenario(Architecture.DRAN)).processing
        assert payload["per_data_center"]["processing"] == expected
        cloud = datacenter_cost(default_scenario(Architecture.CLOUD_RAN, 0.4)).processing
        assert expected != pytest.approx(cloud, rel=1e-3)

    def test_evaluate_dump_config_roundtrip(self, tmp_path):
        dumped = tmp_path / "resolved.ini"
        assert main(["evaluate", "--out", str(tmp_path / "e.json"), "--dump-config", str(dumped)]) == 0
        from crancost.config import load_scenario

        assert load_scenario(dumped) == default_scenario()

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--axis",
                "lambda3",
                "--values",
                "1 2 3",
                "--architectures",
                "dran,cloud_ran@0db",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 7

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_negative_sigma2_is_an_error_row(self, tmp_path, fmt):
        out = tmp_path / f"sweep.{fmt}"
        argv = ["sweep", "--axis", "sigma2", "--values", "-1 0.5", "--architectures", "dran", "--format", fmt]
        assert main([*argv, "--out", str(out)]) == 0
        if fmt == "csv":
            with open(out) as fh:
                rows = list(csv.DictReader(fh))
            assert rows[0]["total_per_km2"] == "nan" and rows[1]["total_per_km2"] != "nan"
        else:
            rows = json.loads(out.read_text())["rows"]
            assert rows[0]["error"].startswith("parameter: ") and "total_per_km2" in rows[1]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_non_finite_cost_is_an_error_row(self, tmp_path, fmt):
        out = tmp_path / f"sweep.{fmt}"
        argv = ["sweep", "--axis", "lambda3", "--values", "1e-300 3", "--architectures", "dran", "--format", fmt]
        assert main([*argv, "--out", str(out)]) == 0
        if fmt == "csv":
            with open(out) as fh:
                rows = list(csv.DictReader(fh))
            assert all(rows[0][column] == "nan" for column in CSV_COLUMNS[4:])
            assert all(math.isfinite(float(rows[1][column])) for column in CSV_COLUMNS[4:])
        else:
            rows = json.loads(out.read_text())["rows"]
            assert rows[0]["error"].startswith("parameter: ") and "total_per_km2" in rows[1]

    def test_evaluate_non_finite_cost_is_a_parameter_error(self, tmp_path, capsys):
        cfg, out = tmp_path / "scenario.ini", tmp_path / "cost.csv"
        cfg.write_text("[geometry]\nlambda3 = 1e-300\n")
        assert main(["evaluate", "--config", str(cfg), "--format", "csv", "--out", str(out)]) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "parameter" and "capacity_dc" in error["message"]
        assert not out.exists()

    def test_evaluate_non_positive_moment_is_a_numerical_error(self, tmp_path, capsys):
        # at 1e12 micros per macro the survival lies inside the first grid
        # panel, and the contact moments cancel to 0.0 and -1.5e-23
        cfg, out = tmp_path / "scenario.ini", tmp_path / "cost.csv"
        cfg.write_text("[geometry]\nlambda1c = 10\nlambda1m = 1e12\n")
        assert main(["evaluate", "--config", str(cfg), "--format", "csv", "--out", str(out)]) == 4
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "numerical" and "not positive" in error["message"]
        assert not out.exists()

    def test_sweep_unconverged_moment_is_an_error_row(self, tmp_path):
        # at 1000 micros per macro and sigma2 = 0.1 the coarse and fine grids disagree
        cfg, out = tmp_path / "scenario.ini", tmp_path / "sweep.json"
        cfg.write_text("[geometry]\nlambda1m = 1000\n")
        argv = ["sweep", "--config", str(cfg), "--axis", "sigma2", "--values", "0.001 0.1", "--architectures", "dran"]
        assert main([*argv, "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert "total_per_km2" in rows[0] and rows[0]["total_per_km2"] > 0
        assert rows[1]["error"].startswith("numerical: ") and "did not converge" in rows[1]["error"]

    @pytest.mark.parametrize("sigma2", ["1e12", "1e300"])
    def test_evaluate_at_a_huge_kernel_gives_the_poisson_limit(self, tmp_path, sigma2):
        """At sigma = 1e6 and 1e150 km the stations are a PPP of intensity lambda_1c (1 + lambda_1m)."""
        cfg, out = tmp_path / "scenario.ini", tmp_path / "cost.json"
        cfg.write_text(f"[geometry]\nsigma2 = {sigma2}\n")
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
        terms = json.loads(out.read_text())["per_data_center"]
        got = terms["capacity_user_bs"], terms["infra_user_bs"]
        assert got == pytest.approx(_poisson_limit_user_link_terms(default_scenario()), rel=1e-12)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_at_a_huge_kernel_prints_the_poisson_limit(self, tmp_path, fmt):
        out = tmp_path / f"sweep.{fmt}"
        argv = ["sweep", "--axis", "sigma2", "--values", "0.5 1e12 1e300", "--architectures", "dran", "--format", fmt]
        assert main([*argv, "--out", str(out)]) == 0
        if fmt == "csv":
            with open(out) as fh:
                rows = list(csv.DictReader(fh))
            assert all(math.isfinite(float(row[column])) for row in rows for column in CSV_COLUMNS[4:])
            return
        # the sweep JSON prints 6 significant digits
        want = tuple(float(f"{v:.6g}") for v in _poisson_limit_user_link_terms(default_scenario(Architecture.DRAN)))
        for row in json.loads(out.read_text())["rows"][1:]:
            assert (row["breakdown"]["capacity_user_bs"], row["breakdown"]["infra_user_bs"]) == want

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[geometry]\np = 2.0\n")
        code = main(["evaluate", "--config", str(bad), "--out", str(tmp_path / "x.json")])
        assert code == 2

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("architecture", "mode", "dran"),
            ("architecture", "gamma_offset_db", "0.9"),
            ("geometry", "lambda1c", "5"),
            ("costs", "a23_processing", "1"),
        ],
    )
    def test_sweep_rejects_keys_it_would_replace(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        argv = ["sweep", "--config", str(cfg), "--axis", "alpha", "--values", "0", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        message = json.loads(capsys.readouterr().err)["message"]
        assert key in message
        if section == "architecture":
            assert "--architectures" in message

    def test_sweep_lists_ignore_spaces_around_separators(self, tmp_path):
        """Numbers separated by commas or spaces and names by commas, surrounding spaces ignored."""
        out = tmp_path / "flags.csv"
        flags = ["--axis", "p", "--values", "0, 0.5", "--architectures", "dran, cloud_ran@0db"]
        assert main(["sweep", *flags, "--format", "csv", "--out", str(out)]) == 0
        with open(out) as fh:
            assert [r["architecture"] for r in csv.DictReader(fh)] == ["dran", "cloud_ran@0db"] * 2

    @pytest.mark.parametrize("flags", [["--values", "0"], ["--axis", "alpha"]], ids=["no-axis", "no-values"])
    def test_sweep_without_axis_or_values_is_a_usage_error(self, tmp_path, flags):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *flags, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    def test_an_empty_architecture_list_is_a_config_error(self, tmp_path, capsys):
        """An empty list is refused, not replaced by every variant."""
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--axis", "alpha", "--values", "0", "--architectures", ",", "--out", str(out)]
        assert main(argv) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "config" and "'architectures'" in error["message"]
        assert not out.exists()

    def test_complexity_sampler_from_config(self, tmp_path):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text("[complexity]\nsampler = degenerate\nsampler_gamma = 3.0\n")
        out = tmp_path / "cx.json"
        argv = ["complexity", "--config", str(cfg), "--pool-sizes", "1", "--offsets", "0", "--n-mc", "64"]
        code = main([*argv, "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        # degenerate sampler at gamma = 3: workload bounded by the single-MCS value
        assert rows[0]["pooled_per_station"] == pytest.approx(rows[0]["distributed_per_station"])

    @pytest.mark.parametrize(
        "text,category,words",
        [
            ("sampler = nearest_bs\nsampler_bogus = 1\n", "parameter", ["nearest_bs", "bogus"]),
            # a dB level past the float range is refused before any draw
            (
                "sampler = nearest_bs\nsampler_snr_median_db = 1e12\n",
                "parameter",
                ["snr_median_db", "past the float range"],
            ),
            # a finite exponent whose draws overflow to +inf
            ("sampler = nearest_bs\nsampler_pathloss_exp = 1e6\n", "sampler", ["non-finite"]),
        ],
    )
    def test_complexity_sampler_params_errors_are_typed(self, tmp_path, capsys, text, category, words):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text("[complexity]\n" + text)
        argv = ["complexity", "--pool-sizes", "1", "--offsets", "0", "--out", str(tmp_path / "cx.json")]
        assert main([*argv, "--config", str(cfg)]) == {"parameter": 3, "sampler": 6}[category]
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == category
        assert all(word in error["message"] for word in words)

    @pytest.mark.parametrize(
        "key,value", [("eps_comp", "1.5"), ("eps_comp", "0"), ("n-mc", "0"), ("n-mc", "2.5"), ("n-mc", "abc")]
    )
    def test_complexity_bad_eps_comp_or_n_mc_is_a_config_error(self, tmp_path, capsys, key, value):
        """eps_comp is a [complexity] key and --n-mc a flag; a value out of range is a config error naming it."""
        out, cfg = tmp_path / "cx.json", tmp_path / "scenario.ini"
        argv = ["complexity", "--pool-sizes", "1", "--offsets", "0", "--out", str(out)]
        if key == "n-mc":
            argv += ["--n-mc", value]
        else:
            cfg.write_text(f"[complexity]\n{key} = {value}\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "config" and f"'{key}'" in error["message"]
        assert not out.exists()

    def test_an_integral_n_mc_is_accepted(self, tmp_path):
        out = tmp_path / "cx.json"
        assert main(["complexity", "--pool-sizes", "1", "--offsets", "0", "--n-mc", "64.0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n_mc"] == 64

    def test_complexity_config_sampler_key_error_is_typed(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text("[complexity]\nsampler = degenerate\nsampler_bogus = 1\n")
        argv = ["complexity", "--config", str(cfg), "--pool-sizes", "1", "--offsets", "0"]
        assert main([*argv, "--out", str(tmp_path / "cx.json")]) == 3
        message = json.loads(capsys.readouterr().err)["message"]
        assert "degenerate" in message and "bogus" in message

    @pytest.mark.parametrize(
        "option,value",
        [
            ("--pool-sizes", ""),
            ("--pool-sizes", "1.7"),
            ("--pool-sizes", "0"),
            ("--pool-sizes", "1 -2"),
            ("--pool-sizes", "two"),
            ("--offsets", ""),
            ("--offsets", "0 x"),
            ("--offsets", "nan"),
        ],
    )
    def test_complexity_list_options_are_checked(self, tmp_path, capsys, option, value):
        argv = ["complexity", "--pool-sizes", "1", "--offsets", "0", "--format", "csv"]
        assert main([*argv, option, value, "--out", str(tmp_path / "cx.csv")]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "config"
        assert option[2:] in error["message"]

    @pytest.mark.parametrize("offsets", ["-1 0", "-0.2"])
    def test_complexity_offset_without_a_margin_is_a_parameter_error(self, tmp_path, capsys, offsets):
        """A total margin of 0 dB or less puts the admission thresholds at or below capacity."""
        out = tmp_path / "cx.csv"
        argv = ["complexity", "--pool-sizes", "1 5", "--offsets", offsets, "--format", "csv", "--out", str(out)]
        assert main(argv) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "parameter" and "gamma_offset_db" in error["message"]
        assert not out.exists()

    def test_simulate_and_dump_realization(self, tmp_path):
        out = tmp_path / "sim.json"
        dump = tmp_path / "nodes.csv"
        code = main(
            [
                "simulate",
                "--window",
                "4",
                "--reps",
                "4",
                "--seed",
                "3",
                "--out",
                str(out),
                "--dump-realization",
                str(dump),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["n_reps"] == 4
        assert (payload["seed"], payload["reps"], payload["tool_version"]) == (3, 4, TOOL_VERSION)
        assert (payload["user_fraction"], payload["station_fraction"]) == (0.25, 0.25)
        assert (payload["numpy_version"], payload["scipy_version"]) == (np.__version__, scipy.__version__)
        with open(dump) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["layer"] == "users"
        assert {r["layer"] for r in rows} == {"users", "base_stations", "backhaul", "data_centers"}
        # pins the export byte for byte: row order, coordinates, parents and subtree counts
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
            "fece5b5b618289564447b070918a9fd9192ef3b50fcd7574037475f1d11bb601"
        )

    def test_compare_smoke(self, tmp_path):
        out = tmp_path / "cmp.json"
        code = main(["compare", "--window", "6", "--reps", "30", "--seed", "5", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 10
        assert isinstance(payload["passed"], bool)
        assert (payload["seed"], payload["reps"], payload["tool_version"]) == (5, 30, TOOL_VERSION)
        assert (payload["user_fraction"], payload["station_fraction"]) == (0.25, 0.25)
        assert (payload["numpy_version"], payload["scipy_version"]) == (np.__version__, scipy.__version__)
        assert payload["window_km"] == [6.0, 6.0]

    def test_compare_reports_no_reps_to_1pct_where_the_closed_form_is_zero(self, tmp_path):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text("[costs]\na01 = 0\n")
        argv = ["compare", "--config", str(cfg), "--window", "3", "--reps", "2"]
        assert main([*argv, "--format", "csv", "--out", str(tmp_path / "cmp.csv")]) == 0
        with open(tmp_path / "cmp.csv") as fh:
            cells = {row["term"]: row["reps_to_1pct"] for row in csv.DictReader(fh)}
        assert cells["capacity_user_bs"] == "" and int(cells["infra_user_bs"]) >= 1
        assert main([*argv, "--out", str(tmp_path / "cmp.json")]) == 0
        rows = {row["term"]: row for row in json.loads((tmp_path / "cmp.json").read_text())["rows"]}
        assert rows["capacity_user_bs"]["reps_to_1pct"] is None

    def test_complexity_json_records_what_produced_it(self, tmp_path):
        out, cfg = tmp_path / "cx.json", tmp_path / "scenario.ini"
        cfg.write_text("[complexity]\neps_comp = 0.05\n")
        argv = ["complexity", "--pool-sizes", "1 5", "--offsets", "0", "--n-mc", "500", "--seed", "7"]
        argv += ["--config", str(cfg)]
        assert main([*argv, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert (payload["seed"], payload["n_mc"], payload["eps_comp"]) == (7, 500, 0.05)
        assert payload["tool_version"] == TOOL_VERSION
        assert (payload["numpy_version"], payload["scipy_version"]) == (np.__version__, scipy.__version__)
        assert [(row["gamma_offset_db"], row["n_cloud"]) for row in payload["rows"]] == [(0.0, 1), (0.0, 5)]
        csv_out = tmp_path / "cx.csv"
        assert main([*argv, "--format", "csv", "--out", str(csv_out)]) == 0
        # the CSV is the table alone
        assert sorted(csv_out.read_text().splitlines()[0].split(",")) == sorted(payload["rows"][0])

    def test_complexity_table(self, tmp_path):
        out = tmp_path / "cx.csv"
        code = main(
            [
                "complexity",
                "--pool-sizes",
                "1 5",
                "--offsets",
                "0",
                "--n-mc",
                "2000",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["distributed_per_station"]) >= float(rows[0]["pooled_per_station"]) - 1e-9

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_an_offset_with_no_preset_is_a_config_error(self, tmp_path, capsys, source):
        """An unsupported offset is exit 2 whether the flag or a config gives it."""
        out = tmp_path / "out.json"
        if source == "flag":
            argv = ["dimension", "--gamma-offset-db", "0.7"]
        else:
            cfg = tmp_path / "scenario.ini"
            cfg.write_text("[architecture]\ngamma_offset_db = 0.7\n")
            argv = ["evaluate", "--config", str(cfg)]
        assert main([*argv, "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "config"
        assert "gamma" in error["message"] and "[0.0, 0.4, 0.9]" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate"],
            ["sweep", "--axis", "alpha", "--values", "0", "--architectures", "dran"],
            ["dimension"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_json_payload_records_the_versions(self, tmp_path, argv):
        out = tmp_path / "out.json"
        assert main([*argv, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["tool_version"] == TOOL_VERSION
        assert (payload["numpy_version"], payload["scipy_version"]) == (np.__version__, scipy.__version__)

    def test_dimension_subcommand(self, tmp_path):
        out = tmp_path / "dim.json"
        code = main(["dimension", "--lambda0", "170", "--gamma-offset-db", "0", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["lambda1"] == pytest.approx(50.03, abs=0.5)

    def test_threads_come_from_the_flag_alone(self, tmp_path, monkeypatch):
        """--threads sets the worker count, 1 by default; the environment does not enter it."""
        from crancost import cli

        workers = []

        def recorded(*args, threads):
            workers.append(threads)
            return compare_to_closed_form(*args, threads=threads)

        monkeypatch.setattr(cli, "compare_to_closed_form", recorded)
        monkeypatch.setenv("CRANCOST_THREADS", "abc")
        argv = [*CONFIG_COMMANDS["compare"], "--out", str(tmp_path / "compare.json")]
        assert main(argv) == 0
        assert main([*argv, "--threads", "2"]) == 0
        assert workers == [1, 2]

    @pytest.mark.parametrize("raw", ["0", "-1", "abc"])
    def test_invalid_thread_count_is_a_config_error(self, tmp_path, capsys, raw):
        argv = [*CONFIG_COMMANDS["compare"], "--out", str(tmp_path / "out")]
        assert main([*argv, "--threads", raw]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "config" and "threads" in error["message"]

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("evaluate", "--seed", "1"),
            ("evaluate", "--reps", "3"),
            ("evaluate", "--threads", "2"),
            ("sweep", "--seed", "1"),
            ("sweep", "--threads", "2"),
            ("simulate", "--format", "csv"),
            ("evaluate", "--preset", "paper-default"),
            ("complexity", "--preset", "paper-default"),
            ("complexity", "--reps", "3"),
            ("complexity", "--threads", "2"),
            ("complexity", "--sampler", "degenerate"),
            ("complexity", "--sampler-params", "{}"),
            ("complexity", "--eps-comp", "0.1"),
            ("dimension", "--config", "scenario.ini"),
            ("dimension", "--format", "csv"),
            ("dimension", "--seed", "9"),
            ("dimension", "--target", "1.1"),
        ],
    )
    def test_unread_flag_is_a_usage_error(self, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value])
        assert exc.value.code == 2

    def test_readme_cli_names_only_flags_the_parser_has(self):
        """Every --flag between the README's CLI and Experiment scripts headings is an option of some subcommand."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        text = readme[readme.index("\n## CLI\n") : readme.index("\n## Experiment scripts\n")]
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        subcommands = subparsers.choices.values()
        options = {opt for sub in subcommands for action in sub._actions for opt in action.option_strings}
        assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", text)) - options == set()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_bounded_window_flag_is_a_usage_error(self, tmp_path, command):
        """The window is always a torus; --no-wrap is gone."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--no-wrap", "--window", "2", "--reps", "2", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    def test_readme_shared_options_table_matches_the_parser(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = re.search(r"\| subcommand \| shared options \|\n\|---\|---\|\n((?:\|.*\n)+)", readme).group(1)
        documented = {}
        for line in table.splitlines():
            command, options = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line).groups()
            documented[command] = set(re.findall(r"`(--[\w-]+)`", options))
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        shared = {f"--{name}" for name in _SHARED_OPTIONS}
        taken = {
            command: {opt for action in sub._actions for opt in action.option_strings if opt in shared}
            for command, sub in subparsers.choices.items()
        }
        assert documented == taken

    def test_readme_example_config_evaluates(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        cfg = tmp_path / "readme.ini"
        cfg.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert (payload["architecture"], payload["gamma_offset_db"]) == ("cloud_ran", 0.4)

    def test_readme_example_dump_config_is_a_fixed_point(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        cfg = tmp_path / "readme.ini"
        cfg.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
        first, second = tmp_path / "first.ini", tmp_path / "second.ini"
        for source, dumped in ((cfg, first), (first, second)):
            argv = ["evaluate", "--config", str(source), "--dump-config", str(dumped)]
            assert main([*argv, "--out", str(tmp_path / "e.json")]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_io_error_exit_code(self, tmp_path):
        code = main(["evaluate", "--out", str(tmp_path / "missing_dir" / "x.json")])
        assert code == 8

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "0.1.0" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Every value at the edges of the float range: an answer or a typed error

#: the values each scanned key or flag is set to, alone
EDGE_VALUES = ("0", "1e-300", "1e-12", "1e12", "1e300")

#: keys of the scanned sections left out of the scan, and why
UNSCANNED = {"sampler": "a name, not a number"}

SCENARIO_RUNS = {
    "evaluate": ["evaluate"],
    "sweep": ["sweep", "--axis", "lambda3", "--values", "1 3", "--format", "csv"],
}
COMPLEXITY_RUN = ["complexity", "--pool-sizes", "1 5", "--offsets", "0", "--n-mc", "200", "--format", "csv"]


def _scan_cases():
    """(id, argv, config text) for every scanned key, sampler parameter and flag at every edge value."""
    for row in _SCHEMA:
        if row.section not in ("geometry", "costs", "complexity") or row.key in UNSCANNED:
            continue
        runs = {"complexity": COMPLEXITY_RUN} if row.section == "complexity" else SCENARIO_RUNS
        for command, argv in runs.items():
            for value in EDGE_VALUES:
                yield f"{command}-{row.key}={value}", argv, f"[{row.section}]\n{row.key} = {value}\n"
    for name, sampler in _SAMPLERS.items():
        for key in inspect.signature(sampler).parameters:
            for value in EDGE_VALUES:
                text = f"[complexity]\nsampler = {name}\nsampler_{key} = {value}\n"
                yield f"{name}-{key}={value}", COMPLEXITY_RUN, text
    # a sampler without a parameter it has no default for
    yield "degenerate-no-parameters", COMPLEXITY_RUN, "[complexity]\nsampler = degenerate\n"
    # the Poisson contact moment with one factor past the float range
    for value in ("1e300", "1e-300"):
        for command, argv in SCENARIO_RUNS.items():
            text = f"[geometry]\nlambda2_mw = {value}\n[costs]\nbeta12_mw = 4\n"
            yield f"{command}-lambda2_mw={value}-beta12_mw=4", argv, text
    # the lognormal sampler multiplies a median of 0.0 by an overflowed spread
    text = "[complexity]\nsampler = lognormal\nsampler_median_db = -4000\nsampler_sigma_db = 3000\n"
    yield "lognormal-median_db=-4000-sigma_db=3000", COMPLEXITY_RUN, text
    for flag, argv in (("--lambda0", ["dimension"]), ("--offsets", COMPLEXITY_RUN)):
        for value in EDGE_VALUES:
            yield f"{argv[0]}{flag}={value}", [*argv, flag, value], None


SCAN_CASES = list(_scan_cases())


def _reject_constant(name):
    raise AssertionError(f"non-finite number {name} in the output")


@pytest.mark.parametrize("argv,text", [case[1:] for case in SCAN_CASES], ids=[case[0] for case in SCAN_CASES])
def test_every_value_gets_an_answer_or_a_typed_error(tmp_path, capsys, argv, text):
    """Exit 0 with every number finite (a sweep's all-nan error rows allowed), or a typed exit with one JSON line."""
    out = tmp_path / "out"
    if text is not None:
        (tmp_path / "scenario.ini").write_text(text)
        argv = [*argv, "--config", str(tmp_path / "scenario.ini")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    if code != 0:
        error = json.loads(err)
        assert err.count("\n") == 1 and _EXIT_CODES[error["error"]] == code and 2 <= code <= 7
        return
    assert err == ""
    if argv[0] in ("evaluate", "dimension"):
        json.loads(out.read_text(), parse_constant=_reject_constant)
        return
    for row in csv.DictReader(io.StringIO(out.read_text())):
        if argv[0] == "sweep" and all(row[column] == "nan" for column in CSV_COLUMNS[4:]):
            continue  # an error row
        numbers = [float(cell) for column, cell in row.items() if column not in ("axis", "architecture")]
        assert all(map(math.isfinite, numbers)), row
