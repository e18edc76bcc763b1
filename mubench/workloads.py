"""The benchmark's four workloads, their exactness gate and set-up.

Load is one single-threaded client running one op at a time (closed loop).
A sweep runs a workload's fixed op list once; run.py repeats sweeps for the
requested seconds and reports medians over them.

  cold_catalog  one two-vertex amalgam per vertex group (orders 60..720),
                parsed from text and solved with every memo cache empty;
                stresses the group layer (tables, lattice, classes).
  warm_solve    mu() on 36 pre-parsed graphs whose catalogs set-up built;
                stresses LP build and the simplex, with no group work.
  count         typesum n = 1..10 and enumerate n = 1..5 on the oracle
                graphs and small random graphs; the counting leg.
  selftest      a cold selftest.run_all(), one op per criterion; the only
                workload that runs vertex enumeration.

Every op is checked exactly against goldens.py; an op that raises, hits a
cap or returns a wrong value counts as failed.
"""

from __future__ import annotations

import functools
import gc
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import goldens
import inputs
from tracing import vfgrowth_modules

# Entry points are looked up on their modules at call time, so that the
# tracer's rebinding of those names is seen.
from vfgrowth import gog, growth, oracle, selftest

TYPESUM_TOP = 10
ENUM_TOP = 5
CHILD_BURSTS = 5


@dataclass(frozen=True)
class OpResult:
    name: str
    start: float    # perf_counter() at the op's start and end
    end: float
    ok: bool
    error: str = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Op:
    name: str
    call: object    # () -> result
    check: object   # result -> bool


# -- cold-cache guard ------------------------------------------------------

def memo_caches() -> list:
    """Every object with cache_clear in the vfgrowth modules, looking through
    wrappers (__wrapped__) and into the classes those modules define."""
    found = {}
    for mod in vfgrowth_modules():
        for value in list(vars(mod).values()):
            candidates = [value]
            if isinstance(value, type) and value.__module__ == mod.__name__:
                candidates += [getattr(v, "__func__", v)
                               for v in vars(value).values()]
            for obj in candidates:
                while obj is not None:
                    if callable(getattr(obj, "cache_clear", None)):
                        found[id(obj)] = obj
                    obj = getattr(obj, "__wrapped__", None)
    return list(found.values())


def cold_guard():
    """Empty every memo cache and check that each is empty."""
    caches = memo_caches()
    for cache in caches:
        cache.cache_clear()
    for cache in caches:
        info = getattr(cache, "cache_info", None)
        if info is not None and info().currsize != 0:
            raise RuntimeError(f"cold-cache guard: {cache!r} still holds "
                               f"{info().currsize} entries after cache_clear")
    gc.collect()


# -- ops ---------------------------------------------------------------------

def run_op(op: Op, tracer, op_id: int, cold: bool) -> OpResult:
    try:
        if cold:
            cold_guard()
    except Exception as exc:  # the op cannot run cold: it fails
        now = perf_counter()
        return OpResult(op.name, now, now, False, repr(exc))
    t0 = perf_counter()
    try:
        if tracer is None:
            result = op.call()
        else:
            with tracer.op(op_id, op.name):
                result = op.call()
        ok = bool(op.check(result))
        error = "" if ok else f"wrong value {result!r}"[:200]
    except Exception as exc:  # a crash or a cap counts against the run
        ok, error = False, repr(exc)[:200]
    return OpResult(op.name, t0, perf_counter(), ok, error)


def mu_checker(name: str, spec):
    """mu equals the golden value and respects mu >= -chi."""
    golden = Fraction(goldens.MU[name])
    floor = -spec.chi()

    def check(report):
        return report.mu == golden and report.mu >= floor
    return check


def relabelled(specs: dict, seed: int) -> dict:
    rng = random.Random(f"{seed}:relabel")
    return {name: inputs.to_gog(spec, rng) for name, spec in specs.items()}


# -- workloads ---------------------------------------------------------------

class ColdCatalog:
    name = "cold_catalog"
    frontier = "cold:S6"   # the op with the largest vertex group
    cold = True

    def prepare(self, seed):
        texts = relabelled({f"cold-{k}": s for k, s in inputs.COLD.items()},
                           seed)
        ops = []
        for key, spec in inputs.COLD.items():
            text = texts[f"cold-{key}"]
            ops.append(Op(f"cold:{key}",
                          lambda t=text: growth.mu(gog.parse_gog(t)),
                          mu_checker(f"cold-{key}", spec)))
        return ops


class WarmSolve:
    name = "warm_solve"
    frontier = "mu:cold-S6"
    cold = False

    def prepare(self, seed):
        specs = inputs.warm_specs()
        ops = []
        for name, text in relabelled(specs, seed).items():
            g = gog.parse_gog(text)
            growth.build_growth_lp(g)   # builds every catalog and restriction
            ops.append(Op(f"mu:{name}", lambda g=g: growth.mu(g),
                          mu_checker(name, specs[name])))
        return ops


class Count:
    name = "count"
    frontier = f"typesum:klein:{TYPESUM_TOP}"
    cold = False

    def prepare(self, seed):
        ops = []
        for name, text in relabelled(inputs.count_specs(), seed).items():
            g = gog.parse_gog(text)
            growth.build_growth_lp(g)   # warms the small catalogs
            totals = goldens.HOM_TOTALS[name]
            for n in range(1, TYPESUM_TOP + 1):
                ops.append(Op(
                    f"typesum:{name}:{n}",
                    lambda g=g, n=n: oracle.hom_count_typesum(
                        g, n, max_n=TYPESUM_TOP),
                    lambda led, want=totals[:n]: tuple(led.totals) == want))
            for n in range(1, ENUM_TOP + 1):
                ops.append(Op(
                    f"enumerate:{name}:{n}",
                    lambda g=g, n=n: oracle.hom_count_enumerate(g, n),
                    lambda got, want=totals[n - 1]: got == want))
        return ops


class Selftest:
    """A cold selftest.run_all(); each criterion is one op, timed by
    wrapping selftest.CRITERIA for the duration of the call."""

    name = "selftest"
    frontier = "A2"        # vertex enumeration on the Klein LP

    def prepare(self, seed):
        return None        # run_all has no inputs; the seed is unused

    def sweep(self, state, rng, tracer, next_id) -> list:
        timings = []

        def timed(fn):
            name = fn.__name__.rsplit("_", 1)[-1].upper()

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    if tracer is None:
                        return fn(*args, **kwargs)
                    with tracer.op(next_id(), name):
                        return fn(*args, **kwargs)
                finally:
                    timings.append((t0, perf_counter()))
            return wrapper

        try:
            cold_guard()
        except Exception as exc:
            now = perf_counter()
            return [OpResult("guard", now, now, False, repr(exc))]
        original = selftest.CRITERIA
        selftest.CRITERIA = tuple(timed(fn) for fn in original)
        try:
            results = selftest.run_all()
        finally:
            selftest.CRITERIA = original
        if len(results) != len(timings):
            return [OpResult("run_all", timings[0][0] if timings else 0.0,
                             timings[-1][1] if timings else 0.0, False,
                             f"{len(results)} results, {len(timings)} timed")]
        return [OpResult(r.name, t0, t1, r.passed,
                         "" if r.passed else r.detail)
                for r, (t0, t1) in zip(results, timings)]


WORKLOADS = {w.name: w for w in (ColdCatalog(), WarmSolve(), Count(),
                                 Selftest())}


def sweep(workload, state, rng, tracer, next_id) -> list:
    """Run the workload's op list once, in an order drawn from rng."""
    if hasattr(workload, "sweep"):
        return workload.sweep(state, rng, tracer, next_id)
    order = list(state)
    rng.shuffle(order)
    gc.collect()
    return [run_op(op, tracer, next_id(), workload.cold) for op in order]


# -- set-up ------------------------------------------------------------------

def fresh_import(src: Path):
    """Import vfgrowth in a new interpreter, as every command-line use does."""
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", "import vfgrowth"],
                   env=dict(os.environ, PYTHONPATH=path), check=True,
                   stdout=subprocess.DEVNULL, timeout=120)


def timed_setup(workload, seed: int, src: Path, sampler, repeats: int,
                min_seconds: float, max_repeats: int):
    """Set up from cold caches, with `sampler` running: `repeats` times, and
    more, up to `max_repeats`, until `min_seconds` have passed.  Return the
    (start, end) of each set-up and the last state."""
    intervals = []
    state = None
    first = perf_counter()
    while len(intervals) < repeats or (
            len(intervals) < max_repeats
            and perf_counter() - first < min_seconds):
        state = None
        cold_guard()
        # No bursts run beside the child interpreter; bursts just before
        # and after it give the host's speed for its share of the set-up.
        with sampler.paused():
            sampler.sample(CHILD_BURSTS)
            t0 = perf_counter()
            fresh_import(src)
            sampler.sample(CHILD_BURSTS)
        state = workload.prepare(seed)
        intervals.append((t0, perf_counter()))
    return intervals, state
