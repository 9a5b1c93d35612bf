"""Every module-level private name in the package is used.

A stdlib ``ast`` scan: each function, class or constant whose name starts with
one underscore, defined at the top level of a module of ``src/cliptrack``,
must be referenced somewhere in ``src/`` outside its own definition.  Tests
do not count as a use: a helper only a test calls is dead code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(ROOT.glob("src/cliptrack/*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def unused_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each top-level private name no other top-level
    statement of any module reads."""
    defs = []  # (module, statement index, line, name)
    uses = []  # (module, statement index, names read)
    for module, source in sources.items():
        for k, stmt in enumerate(ast.parse(source).body):
            defs += [(module, k, stmt.lineno, n) for n in _defined(stmt) if _private(n)]
            uses.append((module, k, _referenced(stmt)))
    return sorted(
        (module, line, name)
        for module, k, line, name in defs
        if not any(name in names and (m, j) != (module, k) for m, j, names in uses)
    )


def test_no_unused_private_name():
    unused = unused_private_names({p.name: p.read_text() for p in MODULES})
    assert not unused, ", ".join(f"{m}:{line}: {name}" for m, line, name in unused)


def test_scan_finds_unused_helper():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_seen: set = set()\n"
            "def _helper(n):\n"
            "    return _helper(n - 1) if n else 0\n"
            "class _Box:\n"
            "    pass\n"
            "def public():\n"
            "    return _LIMIT\n"
        ),
        "b.py": "from .a import _Box\n",
    }
    assert unused_private_names(sources) == [("a.py", 2, "_seen"), ("a.py", 3, "_helper")]
