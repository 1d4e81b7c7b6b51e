"""Every name the package exports or re-exports resolves.

Guards against stale ``__all__`` entries and ``crancost/__init__.py``
imports when a helper is deleted.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import crancost

MODULES = sorted(info.name for info in pkgutil.iter_modules(crancost.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"crancost.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(crancost.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not hasattr(importlib.import_module(f"crancost.{module}"), name)
    ]
    assert missing == []


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == crancost.__version__


@pytest.mark.parametrize("module", ["crancost", "crancost.cli"])
def test_importing_the_package_leaves_the_kd_tree_out(module):
    """Only ``geometry.nearest_assign`` imports ``scipy.spatial``, so commands that assign nothing skip its import."""
    env = {**os.environ, "PYTHONPATH": str(Path(crancost.__file__).parents[1])}
    code = f"import sys, {module}; print('scipy.spatial' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "False"
