"""Every name the package exports or re-exports resolves.

Guards against stale ``__all__`` entries and ``crancost/__init__.py``
imports when a helper is deleted.
"""

import ast
import importlib
import pkgutil
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
