"""Each experiment script's main() runs end to end at tiny sizes."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from crancost import simulate
from crancost.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(monkeypatch, name: str, *argv: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    return module.main()


def test_run_cost_sweeps(monkeypatch, tmp_path, capsys):
    _run(monkeypatch, "run_cost_sweeps", "--out-dir", str(tmp_path))
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(f"cost_vs_{axis}.csv" for axis in ("lambda3", "alpha", "lambda0", "p", "sigma2"))
    assert capsys.readouterr().out.count("wrote ") == 5


def test_run_oracle_check(monkeypatch, capsys):
    _run(monkeypatch, "run_oracle_check", "--reps", "4", "--window", "3")
    out = capsys.readouterr().out
    assert "== all-Poisson degenerate (4 replications" in out
    assert "== clustered default (4 replications" in out
    assert out.count("verdict: ") == 2


@pytest.mark.parametrize("failing", [(), (0,), (1,), (0, 1)])
def test_run_oracle_check_exits_1_when_a_case_fails(monkeypatch, capsys, failing):
    """A FAIL verdict in either case makes the exit status 1; two passes make it 0.

    The degenerate case runs at ``--seed`` and the clustered one at
    ``--seed + 1``; the stand-in report puts every z at 10 for a failing
    seed and at 0 otherwise.
    """
    real = simulate.compare_to_closed_form

    def compare(scenario, window, n_reps, seed):
        report = real(scenario, window, n_reps, seed)
        z = 10.0 if seed in failing else 0.0
        report.z_scores, report.overall_z = dict.fromkeys(report.z_scores, z), z
        return report

    monkeypatch.setattr(simulate, "compare_to_closed_form", compare)
    assert _run(monkeypatch, "run_oracle_check", "--reps", "4", "--window", "3", "--seed", "0") == int(bool(failing))
    verdicts = [line.split()[1] for line in capsys.readouterr().out.splitlines() if line.startswith("verdict: ")]
    assert verdicts == ["FAIL" if seed in failing else "PASS" for seed in (0, 1)]


@pytest.mark.parametrize(
    "name,argv,message",
    [
        ("run_pooling_table", ("--seed", "-1"), "seed"),
        ("run_pooling_table", ("--n-mc", "0"), "n_mc"),
        ("run_oracle_check", ("--reps", "1", "--window", "3"), "n_reps"),
        ("run_oracle_check", ("--seed", "-1", "--reps", "2", "--window", "3"), "seed"),
    ],
)
def test_a_typed_error_exits_as_through_the_cli(monkeypatch, capsys, name, argv, message):
    """A JSON error line on stderr and the category's exit code, not a traceback."""
    assert _run(monkeypatch, name, *argv) == 3
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "parameter" and message in error["message"]


def test_run_pooling_table(monkeypatch, capsys):
    _run(monkeypatch, "run_pooling_table", "--n-mc", "200", "--pool-sizes", "1", "2")
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 2 * 3  # pool sizes x the default offsets 0, 0.4, 0.9
    assert all(row.endswith("x") for row in rows)


def test_run_pooling_table_prints_the_complexity_table(monkeypatch, capsys):
    """At their defaults, the script's N = 1, 0 dB cell is the one `crancost complexity` computes."""
    assert main(["complexity", "--pool-sizes", "1", "--offsets", "0"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    _run(monkeypatch, "run_pooling_table", "--pool-sizes", "1", "--offsets", "0")
    printed = capsys.readouterr().out.splitlines()[1].split()
    want = (row["pooled_per_station"], row["distributed_per_station"], row["pooled_servers"])
    assert printed[2:5] == [f"{v:.3f}" for v in want]
