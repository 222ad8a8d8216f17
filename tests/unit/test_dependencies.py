"""The import path of ``repro`` stays within its declared dependencies.

``import repro`` must load no third-party module but NumPy: SciPy is
imported by regression fitting when it runs, and every third-party module
imported at module scope under ``src/repro`` must be declared in
``pyproject.toml``.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE_DIR = Path(repro.__file__).resolve().parent
PYPROJECT = PACKAGE_DIR.parents[1] / "pyproject.toml"


def test_import_repro_loads_numpy_as_its_only_third_party_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")])
    )
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro, repro.cli\n"
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(result.stdout.split())
    assert "numpy" in loaded and "scipy" not in loaded
    stdlib = getattr(sys, "stdlib_module_names", None)
    if stdlib is not None:
        third_party = {
            name
            for name in loaded
            if name not in stdlib and not name.startswith("_") and name != "repro"
        }
        assert third_party == {"numpy"}


def _catches_import_error(node: ast.Try) -> bool:
    for handler in node.handlers:
        caught = handler.type
        names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
        if any(
            isinstance(name, ast.Name)
            and name.id in ("ImportError", "ModuleNotFoundError")
            for name in names
        ):
            return True
    return False


def _module_scope_imports(tree: ast.Module):
    """Top-level module names a file imports unconditionally at import time.

    Function bodies run later, and a ``try`` that catches ``ImportError``
    marks an optional import, so neither counts.
    """
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Try) and _catches_import_error(node):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module:
                yield node.module.split(".")[0]
        else:
            stack.extend(ast.iter_child_nodes(node))


def test_module_scope_imports_are_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    stdlib = getattr(sys, "stdlib_module_names", None)
    if stdlib is None:  # pragma: no cover - Python < 3.10
        pytest.skip("sys.stdlib_module_names needs Python >= 3.10")
    if not PYPROJECT.is_file():
        pytest.skip("pyproject.toml is not beside an installed package")
    with PYPROJECT.open("rb") as handle:
        declared = {
            re.split(r"[\s\[<>=!~;]", requirement, maxsplit=1)[0].lower()
            for requirement in tomllib.load(handle)["project"]["dependencies"]
        }
    undeclared = {}
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for module in _module_scope_imports(tree):
            if module in stdlib or module in ("repro", "__future__"):
                continue
            if module.lower() not in declared:
                undeclared.setdefault(module, []).append(
                    str(path.relative_to(PACKAGE_DIR))
                )
    assert undeclared == {}
