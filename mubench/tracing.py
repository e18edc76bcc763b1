"""Spans and counts around vfgrowth's layer entry points, from outside.

`Tracer.install()` rebinds each entry point's name in every `vfgrowth.*`
module that holds it (so `growth.build_growth_program` and
`oracle.build_growth_program` are both wrapped), plus the
`FiniteGroup.tables` method; `uninstall()` puts the originals back.  A
missing entry point is skipped and its metrics read 0, so the benchmark
keeps running when a later version renames or removes a stage.

Spans are kept in memory as (name, start, end, parent index, op id) and
written out by the caller when the run ends.  A layer's self time is its
spans' duration minus the part covered by their child spans; time in an op
not covered by any layer span is reported as `unattributed`.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from time import perf_counter

# span name -> (module, attribute); the metric is "<span name>_s".
SPANNED = (
    ("gog.parse", "vfgrowth.gog", "parse_gog"),
    ("groups.classes", "vfgrowth.groups", "subgroup_classes"),
    ("catalog.restrict", "vfgrowth.catalog", "restriction_matrix"),
    ("growth.program", "vfgrowth.growth", "build_growth_program"),
    ("growth.mu_self", "vfgrowth.growth", "mu"),
    ("ratlp.solve", "vfgrowth.ratlp", "solve_max"),
    ("ratlp.enum", "vfgrowth.ratlp", "enumerate_vertices"),
    ("oracle.typesum", "vfgrowth.oracle", "hom_count_typesum"),
    ("oracle.enumerate", "vfgrowth.oracle", "hom_count_enumerate"),
)
TABLES = "groups.tables"  # FiniteGroup.tables, a method
LAYERS = (TABLES,) + tuple(name for name, _, _ in SPANNED)
UNATTRIBUTED = "unattributed"

# count name -> (module, attribute) of a function whose calls are counted.
CALL_COUNTED = (
    ("oracle.type_count_calls", "vfgrowth.oracle", "type_hom_count"),
    ("catalog.extend_hom_calls", "vfgrowth.catalog", "extend_hom"),
)
COUNTS = ("groups.table_products", "groups.subgroups", "groups.classes",
          "catalog.restrict_calls", "catalog.extend_hom_calls",
          "growth.program_calls", "ratlp.solve_calls", "ratlp.lp_vars",
          "ratlp.lp_rows", "ratlp.enum_bases", "oracle.type_count_calls",
          "trace.spans")


def _rank(lp) -> int:
    """Rank of [A | b] by exact elimination; the benchmark's own, so the
    computed basis count does not lean on the code it measures."""
    rows = [[Fraction(x) for x in row] + [Fraction(b)]
            for row, b in zip(lp.rows, lp.rhs)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def vfgrowth_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "vfgrowth" or name.startswith("vfgrowth.")]


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._op = None
        self._restore = []

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None,
                           self._stack[-1] if self._stack else -1, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id, name: str):
        """Root span of one op; layer spans inside it carry its id."""
        self._op = op_id
        idx = self._open(f"op:{name}")
        try:
            yield
        finally:
            self._close(idx)
            self._op = None

    def _spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args[0] if args else None, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- counts computed from argument and result sizes ----------------------

    def _tables(self, tables):
        spanned = self._spanned(TABLES, tables)
        counts = self.counts

        @functools.wraps(tables)
        def wrapper(group):
            if getattr(group, "_tables", None) is None:
                counts["groups.table_products"] += group.order ** 2
            return spanned(group)
        return wrapper

    def _classes(self, fn):
        """Counts subgroups and classes only when the call computed them
        (a cache miss), so a memo hit adds no work."""
        spanned = self._spanned("groups.classes", fn)
        info = getattr(fn, "cache_info", None)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = info().misses if info else None
            classes = spanned(*args, **kwargs)
            if info is None or info().misses != before:
                counts["groups.classes"] += len(classes)
                counts["groups.subgroups"] += sum(c.class_size
                                                  for c in classes)
            return classes
        return wrapper

    def _after_solve(self, lp, _):
        self.counts["ratlp.solve_calls"] += 1
        self.counts["ratlp.lp_vars"] += lp.num_vars
        self.counts["ratlp.lp_rows"] += lp.num_constraints

    def _after_enum(self, lp, _):
        self.counts["ratlp.enum_bases"] += comb(lp.num_vars, _rank(lp))

    def _calls(self, count):
        def after(*_):
            self.counts[count] += 1
        return after

    # -- installing ----------------------------------------------------------

    def _rebind(self, original, replacement):
        for mod in vfgrowth_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self):
        mods = {m.__name__: m for m in vfgrowth_modules()}
        hooks = {"catalog.restrict": self._calls("catalog.restrict_calls"),
                 "growth.program": self._calls("growth.program_calls"),
                 "ratlp.solve": self._after_solve,
                 "ratlp.enum": self._after_enum}
        for name, modname, attr in SPANNED:
            fn = getattr(mods.get(modname), attr, None)
            if fn is None:
                continue
            if name == "groups.classes":
                self._rebind(fn, self._classes(fn))
            else:
                self._rebind(fn, self._spanned(name, fn, hooks.get(name)))
        for name, modname, attr in CALL_COUNTED:
            fn = getattr(mods.get(modname), attr, None)
            if fn is not None:
                self._rebind(fn, self._counted(name, fn))
        cls = getattr(mods.get("vfgrowth.groups"), "FiniteGroup", None)
        tables = getattr(cls, "tables", None)
        if tables is not None:
            self._restore.append((cls, "tables", tables))
            setattr(cls, "tables", self._tables(tables))

    def uninstall(self):
        while self._restore:
            obj, attr, value = self._restore.pop()
            setattr(obj, attr, value)

    # -- reporting -----------------------------------------------------------

    def self_times(self, first: int, last: int) -> Counter:
        """Self time per layer over spans[first:last], a whole number of
        ops; op roots count as unattributed."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= first:
                child[parent - first] += t1 - t0
        out = Counter()
        for (name, t0, t1, _, _), covered in zip(spans, child):
            key = UNATTRIBUTED if name.startswith("op:") else name
            out[key] += (t1 - t0) - covered
        return out

    def op_times(self, first: int, last: int) -> dict:
        """Inclusive time per op name over spans[first:last]."""
        out = {}
        for name, t0, t1, _, _ in self.spans[first:last]:
            if name.startswith("op:"):
                out.setdefault(name[3:], []).append(t1 - t0)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{name}\t{t0!r}\t{t1!r}\t{parent}\t{op}\n")
