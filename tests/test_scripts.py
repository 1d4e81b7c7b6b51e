"""Each experiment script's main() runs end to end at tiny sizes."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(monkeypatch, name: str, *argv: str) -> None:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    module.main()


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


def test_run_pooling_table(monkeypatch, capsys):
    _run(monkeypatch, "run_pooling_table", "--n-mc", "200", "--pool-sizes", "1", "2")
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 2 * 3  # pool sizes x the default offsets 0, 0.4, 0.9
    assert all(row.endswith("x") for row in rows)
