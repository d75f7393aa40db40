"""Every name a ctsbench module imports is used, or traced by perfbench."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "ctsbench").glob("*.py") if p.stem != "__init__")


def wrap_points() -> set[tuple[str, str]]:
    """The (module, name) pairs of perfbench/spans.py's WRAP_POINTS, read
    from its source: a name traced there stays importable from its module."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["WRAP_POINTS"]:
            return {(module, name) for module, name, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/spans.py assigns no WRAP_POINTS")


def unused_imports(source: str) -> list[str]:
    """The names an `import` or `from ... import` binds that the module
    never reads (imports from __future__ bind nothing)."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_wrap_points_are_read():
    points = wrap_points()
    assert ("bench", "build_residual_matrix") in points and ("conformal", "fit_auto_ar") in points


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, numpy as np\nfrom .x import a, b\nprint(np, a)\n"
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used_or_traced(path):
    traced = {name for module, name in wrap_points() if module == path.stem}
    assert [name for name in unused_imports(path.read_text()) if name not in traced] == []
