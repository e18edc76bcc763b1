"""Tests of the benchmark itself: the exactness gate catches wrong values,
the cold-cache guard empties every cache, inputs are seeded and invariant,
the tracer puts back what it rebinds, and the host-speed sampler subtracts
and scales as it should and puts back the SIGALRM handler.

    python3 -m pytest mubench/test_mubench.py      (or python3 -m unittest)
"""

from __future__ import annotations

import random
import shutil
import signal
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import goldens  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from vfgrowth import (catalog, gog, groups, growth, oracle,  # noqa: E402
                      selftest)
from vfgrowth.selftest import CriterionResult  # noqa: E402


def next_id():
    return 0


class GateTest(unittest.TestCase):
    def mu_op(self, name):
        spec = inputs.FIXTURES[name]
        g = gog.parse_gog(inputs.to_gog(spec, random.Random(3)))
        return workloads.Op(f"mu:{name}", lambda: growth.mu(g),
                            workloads.mu_checker(name, spec))

    def test_golden_mu_passes(self):
        result = workloads.run_op(self.mu_op("modular"), None, 0, cold=False)
        self.assertTrue(result.ok, result.error)

    def test_perturbed_mu_golden_fails(self):
        with mock.patch.dict(goldens.MU, {"modular": "1/5"}):
            result = workloads.run_op(self.mu_op("modular"), None, 0, False)
        self.assertFalse(result.ok)
        self.assertIn("wrong value", result.error)

    def test_mu_below_minus_chi_fails(self):
        spec = inputs.FIXTURES["modular"]     # -chi = 1/6
        with mock.patch.dict(goldens.MU, {"modular": "1/7"}):
            check = workloads.mu_checker("modular", spec)
        report = mock.Mock(mu=Fraction(1, 7))
        self.assertFalse(check(report))

    def test_perturbed_cold_golden_fails(self):
        with mock.patch.dict(goldens.MU, {"cold-A5": "1/2"}):
            ops = workloads.ColdCatalog().prepare(seed=4)
        a5 = next(op for op in ops if op.name == "cold:A5")
        self.assertFalse(workloads.run_op(a5, None, 0, cold=True).ok)

    def test_perturbed_count_golden_fails(self):
        totals = list(goldens.HOM_TOTALS["modular"])
        totals[2] += 1
        with mock.patch.dict(goldens.HOM_TOTALS, {"modular": tuple(totals)}):
            ops = {op.name: op for op in workloads.Count().prepare(seed=5)}
        for name, ok in (("typesum:modular:2", True),
                         ("typesum:modular:3", False),
                         ("enumerate:modular:3", False),
                         ("enumerate:modular:4", True)):
            result = workloads.run_op(ops[name], None, 0, cold=False)
            self.assertEqual(result.ok, ok, name)

    def test_raising_op_fails(self):
        def boom():
            raise RuntimeError("cap")
        op = workloads.Op("boom", boom, lambda _: True)
        result = workloads.run_op(op, None, 0, cold=False)
        self.assertFalse(result.ok)
        self.assertIn("cap", result.error)

    def test_failing_criterion_fails_its_op(self):
        def criterion_z1(slow=False):
            """Always fails."""
            return CriterionResult("Z1", "fake", False, "forced")

        def criterion_z2(slow=False):
            """Always raises."""
            raise ValueError("forced")

        def criterion_z3(slow=False):
            """Always passes."""
            return CriterionResult("Z3", "fake", True, "fine")

        fakes = (criterion_z1, criterion_z2, criterion_z3)
        with mock.patch.object(selftest, "CRITERIA", fakes):
            ops = workloads.Selftest().sweep(None, None, None, next_id)
            self.assertIs(selftest.CRITERIA, fakes)
        self.assertEqual([(o.name, o.ok) for o in ops],
                         [("Z1", False), ("Z2", False), ("Z3", True)])


class ColdGuardTest(unittest.TestCase):
    def test_guard_empties_every_cache(self):
        g = groups.symmetric_group(3)
        catalog.build_catalog(g)
        caches = workloads.memo_caches()
        self.assertIn(catalog.build_catalog, caches)
        self.assertIn(groups.subgroup_classes, caches)
        self.assertGreater(catalog.build_catalog.cache_info().currsize, 0)
        workloads.cold_guard()
        for cache in caches:
            self.assertEqual(cache.cache_info().currsize, 0, cache)

    def test_guard_sees_caches_behind_tracer_wrappers(self):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(groups.subgroup_classes.__wrapped__, None)
            self.assertIn(groups.subgroup_classes.__wrapped__,
                          workloads.memo_caches())
        finally:
            tracer.uninstall()

    def test_cache_that_stays_full_fails_the_cold_op(self):
        stuck = mock.Mock()
        stuck.cache_info.return_value = mock.Mock(currsize=1)
        with mock.patch.object(oracle, "_stuck_cache", stuck, create=True):
            with self.assertRaises(RuntimeError):
                workloads.cold_guard()
            op = workloads.Op("x", lambda: None, lambda _: True)
            self.assertFalse(workloads.run_op(op, None, 0, cold=True).ok)


class InputsTest(unittest.TestCase):
    def test_same_seed_same_text(self):
        specs = inputs.warm_specs()
        self.assertEqual(workloads.relabelled(specs, 7),
                         workloads.relabelled(specs, 7))
        self.assertNotEqual(workloads.relabelled(specs, 7),
                            workloads.relabelled(specs, 8))

    def test_random_graphs_are_fixed_by_structure_seed(self):
        self.assertEqual(inputs.random_spec(3, inputs.WARM_POOL),
                         inputs.random_spec(3, inputs.WARM_POOL))
        self.assertNotEqual(inputs.random_spec(3, inputs.WARM_POOL),
                            inputs.random_spec(4, inputs.WARM_POOL))

    def test_relabelling_keeps_mu_and_counts(self):
        for seed in (11, 12):
            text = inputs.to_gog(inputs.FIXTURES["triangle"],
                                 random.Random(seed))
            g = gog.parse_gog(text)
            self.assertEqual(growth.mu(g).mu, Fraction(goldens.MU["triangle"]))
            led = oracle.hom_count_typesum(g, 4)
            self.assertEqual(led.totals, goldens.HOM_TOTALS["triangle"][:4])

    def test_shared_group_key_shares_the_relabelling(self):
        text = inputs.to_gog(inputs.COLD["A5"], random.Random(2))
        g = gog.parse_gog(text)
        self.assertEqual(g.vertex_group("a"), g.vertex_group("b"))

    def test_goldens_cover_every_roster(self):
        self.assertEqual(set(inputs.warm_specs()), set(goldens.MU))
        self.assertEqual(set(inputs.count_specs()), set(goldens.HOM_TOTALS))
        for totals in goldens.HOM_TOTALS.values():
            self.assertEqual(len(totals), workloads.TYPESUM_TOP)


class TracerTest(unittest.TestCase):
    def test_install_rebinds_every_importer_and_uninstall_restores(self):
        before = (growth.build_growth_program, oracle.build_growth_program,
                  groups.FiniteGroup.tables, selftest.mu)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIs(growth.build_growth_program,
                          oracle.build_growth_program)
            self.assertIsNot(growth.build_growth_program, before[0])
            self.assertIsNot(groups.FiniteGroup.tables, before[2])
            self.assertIsNot(selftest.mu, before[3])
        finally:
            tracer.uninstall()
        self.assertEqual(before, (growth.build_growth_program,
                                  oracle.build_growth_program,
                                  groups.FiniteGroup.tables, selftest.mu))

    def test_self_times_split_an_op_into_layers(self):
        workloads.cold_guard()
        text = inputs.to_gog(inputs.FIXTURES["klein"])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.op(0, "klein"):
                growth.mu(gog.parse_gog(text))
        finally:
            tracer.uninstall()
        spans = tracer.spans
        total = spans[0][2] - spans[0][1]
        self_s = tracer.self_times(0, len(spans))
        self.assertAlmostEqual(sum(self_s.values()), total, delta=1e-9)
        for layer in ("gog.parse", "groups.tables", "groups.classes",
                      "catalog.restrict", "growth.program", "ratlp.solve"):
            self.assertGreater(self_s[layer], 0, layer)
        self.assertEqual(tracer.counts["groups.table_products"],
                         24 ** 2 + 4 ** 2)
        self.assertEqual(tracer.counts["ratlp.solve_calls"], 1)
        self.assertEqual(tracer.counts["ratlp.lp_vars"], 22)
        self.assertTrue(all(op == 0 for *_, op in spans))


class HostSpeedTest(unittest.TestCase):
    def sampler(self):
        sampler = hostspeed.Sampler(period=0.02)
        sampler.starts = [0.00, 0.02, 0.04, 0.06, 0.08, 0.10]
        sampler.seconds = [0.001, 0.001, 0.002, 0.002, 0.002, 0.002]
        return sampler

    def test_bursts_inside_an_interval_are_not_its_time(self):
        sampler = self.sampler()
        self.assertAlmostEqual(sampler.busy(0.03, 0.07), 0.004)
        self.assertAlmostEqual(sampler.net(0.03, 0.07), 0.036)

    def test_a_slow_host_is_scaled_back_to_nominal(self):
        sampler = self.sampler()
        # Bursts at 0.04..0.10 average 2 ms: twice as slow as a 1 ms host.
        mean = sampler.mean_burst(0.085, 0.086)
        self.assertAlmostEqual(mean, 0.002)
        self.assertAlmostEqual(sampler.normalised(0.085, 0.086),
                               0.001 * hostspeed.NOMINAL_S / 0.002)

    def test_a_lone_interval_takes_the_nearest_bursts(self):
        sampler = self.sampler()
        self.assertAlmostEqual(sampler.mean_burst(5.0, 5.1), 0.002)
        with self.assertRaises(RuntimeError):
            hostspeed.Sampler().mean_burst(0.0, 1.0)

    def test_running_samples_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        sampler = hostspeed.Sampler(period=0.005)
        with sampler.running():
            end = perf_counter() + 0.1
            while perf_counter() < end:
                pass
            with sampler.paused():
                paused_at = len(sampler.starts)
                end = perf_counter() + 0.05
                while perf_counter() < end:
                    pass
                self.assertEqual(len(sampler.starts), paused_at)
        self.assertGreater(len(sampler.starts), 2)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class RunTest(unittest.TestCase):
    def test_refuses_to_run_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            out = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload",
                 "count", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
