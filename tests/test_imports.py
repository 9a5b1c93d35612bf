"""Every import in the package and the tests is used.

A stdlib ``ast`` scan: a name bound by an import must be read somewhere in its
module.  An import statement whose first line carries ``# noqa: F401`` is kept on
purpose.
``__init__.py`` files are skipped (their imports are the package's public
surface), and so is the frozen acceptance suite.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {"__init__.py", "test_acceptance.py"}
FILES = sorted(
    p
    for p in [*ROOT.glob("src/cliptrack/*.py"), *ROOT.glob("tests/*.py")]
    if p.name not in SKIPPED
)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:  # as flake8: the statement's first line
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    unused = unused_imports(path.read_text())
    assert not unused, ", ".join(f"{path.name}:{line}: {name}" for line, name in unused)


def test_scan_finds_unused_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from math import (  # noqa: F401\n"
        "    pi,\n"
        "    tau,\n"
        ")\n"
        "def f(x):\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(2, "json")]
