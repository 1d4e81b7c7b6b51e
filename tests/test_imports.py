"""Every name a test or script module imports is used in that module.

``src/`` is left out: the package ``__init__`` re-exports names it never
uses, and ``simulate`` and ``sweeps`` import names only for the benchmark's
trace plan.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for folder in ("tests", "scripts") for path in (ROOT / folder).glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports that no other expression of it reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[f"{path.parent.name}/{path.name}" for path in MODULES])
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os, sys\nimport numpy as np\nfrom math import pi, tau\nprint(sys.argv, tau)\n"
    assert _unused_imports(source) == ["os", "np", "pi"]
