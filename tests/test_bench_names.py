"""Every library name the benchmark traces still exists.

``bench/harness.py``'s ``install_tracing`` wraps library functions by the
names their modules call them by, and its ``*_SPANS`` tuples name more of
them.  A renamed or moved function would otherwise surface only as an
``AttributeError`` in a traced bench run.  A stdlib ``ast`` read of the
harness; the bench is not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parent.parent / "bench" / "harness.py"
TREE = ast.parse(HARNESS.read_text())


def wrap_targets() -> list[str]:
    """``module.attr`` of each ``tracer.wrap(module, "attr", ...)`` in install_tracing."""
    install = next(
        n for n in TREE.body if isinstance(n, ast.FunctionDef) and n.name == "install_tracing"
    )
    targets = []
    for node in ast.walk(install):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "wrap" and isinstance(node.args[1], ast.Constant):
                targets.append(f"{ast.unparse(node.args[0])}.{node.args[1].value}")
    return targets


def span_names() -> list[str]:
    """The names in the harness's module-level ``*_SPANS`` tuples."""
    names = []
    for node in TREE.body:
        if isinstance(node, ast.Assign) and node.targets[0].id.endswith("_SPANS"):
            names.extend(ast.literal_eval(node.value))
    return names


def test_harness_wraps_by_name():
    assert "inter_clip.forward_summarize" in wrap_targets()
    assert "metrics.identity_bijection_overlap" in wrap_targets()
    assert "cli.parse_detections" in span_names()


@pytest.mark.parametrize("name", sorted(set(wrap_targets() + span_names())))
def test_traced_name_exists(name):
    module, *attrs = name.split(".")
    owner = importlib.import_module(f"cliptrack.{module}")
    for attr in attrs:
        assert hasattr(owner, attr), f"bench traces {name}, but {attr!r} is gone"
        owner = getattr(owner, attr)
