"""Every name a test, script or package module imports is used in that module.

The package ``__init__`` is left out: it re-exports names it never uses.
``TRACE_PLAN_ONLY`` lists the names a package module imports only so that
the benchmark's trace plan can wrap them where the module looks them up.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    [path for folder in ("tests", "scripts") for path in (ROOT / folder).glob("*.py")]
    + [path for path in (ROOT / "src" / "crancost").glob("*.py") if path.name != "__init__.py"]
)

#: (module file, name) imported only for the benchmark's trace plan
TRACE_PLAN_ONLY = {
    ("simulate.py", "assignment_distances"),
    ("sweeps.py", "derive_bs_intensity"),
    ("sweeps.py", "derive_processing_base"),
}


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


def _module_id(path: Path) -> str:
    return str(path.relative_to(ROOT))


@pytest.mark.parametrize("path", MODULES, ids=[_module_id(path) for path in MODULES])
def test_every_imported_name_is_used(path):
    """Only the listed trace-plan names may go unused, and each listed name must still be unused."""
    unused = _unused_imports(path.read_text(encoding="utf-8"))
    allowed = sorted(name for module, name in TRACE_PLAN_ONLY if path.parent.name == "crancost" and module == path.name)
    assert sorted(unused) == allowed


def test_the_trace_plan_wraps_every_listed_name():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    wrapped = {(owner.__name__, attr) for owner, attr, _, _ in workloads.common_trace_plan()}
    assert {(f"crancost.{module.removesuffix('.py')}", name) for module, name in TRACE_PLAN_ONLY} <= wrapped


def test_an_unused_import_is_found():
    source = "import os, sys\nimport numpy as np\nfrom math import pi, tau\nprint(sys.argv, tau)\n"
    assert _unused_imports(source) == ["os", "np", "pi"]
