"""Every import in the package and the tests is used, and the package
memoizes only where it says so.

A stdlib ``ast`` scan stands in for a linter: a name bound by an import
must be read somewhere in the module.  Names listed in ``__all__`` are
re-exports and count as read; ``from __future__`` imports bind nothing.
A second scan finds private helpers nothing reads: every top-level
function or class of the package whose name starts with ``_`` must be
read, or imported, somewhere in the package outside its own definition.
The same scan holds every public one to that, unless ``vfgrowth.__all__``
exports it.
A third lists every function under a memo decorator, so adding a cache is
a change to the inventory pinned here.  A fourth finds a ``cayley()`` call
whose result is dropped: a group's generators give its elements by
construction, so a walk called only to check them is a gate that guards
nothing.  A fifth pins the package to exact arithmetic: no float literal,
no name ``float`` and no function of ``math`` that returns a float.  A
sixth parses every source of the package, the tests and the benchmark as
the oldest Python that pyproject.toml's ``requires-python`` admits.  Last,
every entry point the benchmark's tracer wraps must resolve.
"""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

import vfgrowth
from vfgrowth import catalog, groups
from vfgrowth.groups import FiniteGroup

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


PACKAGE = sorted((ROOT / "src" / "vfgrowth").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unread(trees: dict, kept) -> list:
    """``module.name`` for every top-level function or class whose name
    ``kept`` accepts, in the modules ``trees`` maps to their syntax trees,
    that no code there reads outside its own definition; importing the
    name is a read."""
    readers = {}    # name -> {(module, top-level definition reading it)}
    for module, tree in trees.items():
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                readers.setdefault(name, set()).add((module, owner))
    return sorted(f"{module}.{stmt.name}"
                  for module, tree in trees.items() for stmt in tree.body
                  if isinstance(stmt, DEFINITIONS) and kept(stmt.name)
                  and not readers.get(stmt.name, set())
                  - {(module, stmt.name)})


def _unread_private(trees: dict) -> list:
    return _unread(trees, lambda name: name.startswith("_"))


def _unexported_public(trees: dict, exported) -> list:
    """Public top-level functions and classes nothing reads and
    ``exported`` does not list: code only its tests can reach."""
    return _unread(trees, lambda name: not name.startswith("_")
                   and name not in exported)


def test_the_scan_sees_an_unread_private_helper():
    trees = {
        "a": ast.parse("def _used(): pass\ndef _recursive(): _recursive()\n"
                       "class _Unread: pass\ndef _imported(): pass\n"
                       "def public(): return _used()\n"),
        "b": ast.parse("from .a import _imported\n"),
    }
    assert _unread_private(trees) == ["a._Unread", "a._recursive"]


def test_no_unread_private_helpers():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE}
    assert _unread_private(trees) == []


def test_the_scan_sees_an_unexported_public_name():
    trees = {
        "a": ast.parse("def used(): pass\ndef exported(): pass\n"
                       "class Unread: pass\ndef _private(): pass\n"
                       "def recursive(): recursive()\n"),
        "b": ast.parse("from .a import used\n"),
    }
    assert _unexported_public(trees, {"exported"}) == \
        ["a.Unread", "a.recursive"]


def test_every_public_name_is_read_or_exported():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE}
    assert _unexported_public(trees, set(vfgrowth.__all__)) == []


MEMO_DECORATORS = {"cache", "lru_cache", "cached_property"}


def _memoized(tree: ast.Module, module: str) -> list:
    """``module.function`` for every function under a memo decorator,
    written bare or through ``functools.``, called or not."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "id", getattr(target, "attr", None))
                if name in MEMO_DECORATORS:
                    out.append(f"{module}.{node.name}")
    return sorted(out)


def test_the_scan_sees_every_memo_spelling():
    tree = ast.parse("import functools\nfrom functools import cache\n"
                     "@functools.lru_cache(maxsize=None)\ndef a(): pass\n"
                     "@cache\ndef b(): pass\n"
                     "class C:\n    @functools.cached_property\n"
                     "    def c(self): pass\n"
                     "@staticmethod\ndef d(): pass\n")
    assert _memoized(tree, "m") == ["m.a", "m.b", "m.c"]


def test_the_memo_caches_are_the_pinned_two():
    found = []
    for path in PACKAGE:
        found += _memoized(ast.parse(path.read_text(encoding="utf-8")),
                           path.stem)
    assert sorted(found) == ["catalog.restriction_matrix",
                             "groups.subgroup_classes"]
    # the lattice has one store, subgroup_classes' cache, and the public
    # catalog name is that cache, not a second one around it
    assert "_subgroup_cache" not in FiniteGroup.__slots__
    assert catalog.build_catalog is groups.subgroup_classes


def _dropped_cayley_calls(tree: ast.Module) -> list:
    """Line numbers of the statements that are a bare ``….cayley()`` call,
    its walk dropped."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Call)
                  and isinstance(node.value.func, ast.Attribute)
                  and node.value.func.attr == "cayley")


def test_the_scan_sees_a_dropped_cayley_walk():
    tree = ast.parse("def f(g, h):\n    g.cayley()\n"
                     "    at, steps = h.cayley()\n"
                     "    for _, grp in g.vertices:\n"
                     "        grp.cayley()  # a gate\n"
                     "    return h.cayley()[0], cayley()\n")
    assert _dropped_cayley_calls(tree) == [2, 5]


def test_no_group_is_walked_only_to_be_checked():
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert _dropped_cayley_calls(tree) == [], path.name


# the functions of math that return an int (or a bool) on ints; every
# other one (sqrt, log, exp, pi, ...) is float-valued
EXACT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod",
              "ceil", "floor", "trunc"}


def _inexact(tree: ast.Module) -> list:
    """(line, what) for every float or complex literal, every name
    ``float`` and every float-valued function of math, whether imported
    from it or read as ``math.name``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) \
                and isinstance(node.value, (float, complex)):
            out.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id == "float":
            out.append((node.lineno, "float"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            out += [(node.lineno, f"math.{alias.name}")
                    for alias in node.names
                    if alias.name not in EXACT_MATH]
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "math" and node.attr not in EXACT_MATH:
            out.append((node.lineno, f"math.{node.attr}"))
    return sorted(out)


def test_the_scan_sees_inexact_arithmetic():
    tree = ast.parse("import math\nfrom math import isqrt, log, gcd\n"
                     "x = 0.5 + 1j\ny = float(x) if math.sqrt(2) else 2\n"
                     "z = isqrt(10) + math.lcm(2, 3) + 2 ** 10\n"
                     "s = 'float 0.5'\n")
    assert _inexact(tree) == [(2, "math.log"), (3, "0.5"), (3, "1j"),
                              (4, "float"), (4, "math.sqrt")]


def test_the_package_computes_in_ints_and_fractions_only():
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert _inexact(tree) == [], path.name


# the oldest Python the project declares it runs on
FLOOR = tuple(map(int, re.search(
    r'requires-python = ">=(\d+)\.(\d+)"',
    (ROOT / "pyproject.toml").read_text(encoding="utf-8")).groups()))
ALL_SOURCES = sorted(path for folder in ("src/vfgrowth", "tests", "mubench")
                     for path in (ROOT / folder).rglob("*.py"))


def test_the_floor_scan_refuses_newer_syntax():
    assert FLOOR == (3, 10)
    ast.parse("try:\n    pass\nexcept ValueError:\n    pass\n",
              feature_version=FLOOR)
    # except* came in 3.11
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=FLOOR)


@pytest.mark.parametrize("path", ALL_SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in ALL_SOURCES])
def test_every_source_parses_at_the_declared_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), feature_version=FLOOR)


def test_every_traced_entry_point_resolves():
    # mubench/tracing.py skips an entry point it cannot find without a
    # word and then reports 0 for its metrics
    spec = importlib.util.spec_from_file_location(
        "mubench_tracing", ROOT / "mubench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name, module, attr in tracing.SPANNED + tracing.CALL_COUNTED:
        assert callable(getattr(importlib.import_module(module), attr,
                                None)), name
    assert callable(getattr(FiniteGroup, "tables", None))
