"""Every import in the package and the tests is used.

A stdlib ``ast`` scan stands in for a linter: a name bound by an import
must be read somewhere in the module.  Names listed in ``__all__`` are
re-exports and count as read; ``from __future__`` imports bind nothing.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "vfgrowth").glob("*.py")) + \
    sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, sys\nfrom math import pi as tau\n"
                     "__all__ = ['tau']\nprint(sys.argv)\n")
    assert _unused_imports(tree) == [(2, "os")]


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []
