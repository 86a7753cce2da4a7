"""The package imports only the standard library and its declared dependencies."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _declared() -> set:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_") for d in deps}


def _imports(path: pathlib.Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_stdlib_and_declared_dependencies_imported():
    declared = _declared()
    allowed = set(sys.stdlib_module_names) | declared
    sources = sorted((ROOT / "src" / "zbounds").glob("*.py"))
    seen = set()
    for path in sources:
        imported = _imports(path)
        assert not imported - allowed, f"{path.name} imports undeclared {sorted(imported - allowed)}"
        seen |= imported
    # every declared dependency is used, so the walk above saw real imports
    assert declared <= seen
