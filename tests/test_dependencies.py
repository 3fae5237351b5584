"""Every third-party package that ``src/uavcell`` imports is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def imported_packages() -> set[str]:
    """The top-level names of the absolute imports anywhere in ``src/uavcell/*.py``."""
    names = set()
    for path in (ROOT / "src" / "uavcell").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec)[0].lower() for spec in project["dependencies"]}
    third_party = imported_packages() - set(sys.stdlib_module_names) - {"__future__", "uavcell"}
    assert third_party >= {"numpy", "scipy", "orjson"}  # the walk finds the imports it is meant to check
    assert third_party <= declared
