"""Exact-mu benchmark for vfgrowth: one run of one workload.

    python3 mubench/run.py --workload cold_catalog --seed 1 --seconds 20 --trace 0

Run from the root of a vfgrowth checkout; the package is imported from
./src.  The run sets up (several times, reporting the median), then repeats
sweeps of the workload's op list for --seconds and prints, as its last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, in host-normalised seconds
(hostspeed.py); with --trace 1 untraced and traced sweeps alternate, and
the metrics are the per-layer ones, the spans going to mubench/out/.  See
mubench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import hostspeed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3         # at least; more while under SETUP_MIN_S
SETUP_MIN_S = 3.0
SETUP_MAX_REPEATS = 25
MIN_SWEEPS = 3            # medians need at least three samples
MIN_TRACED_SWEEPS = 4     # two untraced, two traced
HARD_LIMIT_S = 150        # set-up plus sweeps; a run must end within 180 s
SELFTEST_CRITERIA = ("A1", "A2", "A3", "A4", "A5", "A6", "O1", "O2", "O3",
                     "R1", "P6")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def metric(value, unit):
    return {"value": value, "unit": unit}


def op_latencies(ops) -> list:
    """Each distinct op's median latency over the run's sweeps, so that the
    percentiles below do not hinge on the extremes of one op's samples or
    on how many sweeps fitted in the run.  ops: (name, seconds) pairs."""
    by_name = {}
    for name, seconds in ops:
        by_name.setdefault(name, []).append(seconds)
    return [statistics.median(v) for v in by_name.values()]


def end_to_end(workload, sweeps, setups, sampler):
    """sweeps: the untraced sweeps' op lists; setups: the (start, end) of
    each set-up.  Every time is normalised to the nominal host speed
    (hostspeed.py)."""
    timed = [[(o.name, sampler.normalised(o.start, o.end)) for o in ops]
             for ops in sweeps]
    ops = [op for sweep_ops in timed for op in sweep_ops]
    latencies = op_latencies(ops)
    frontier = [s for name, s in ops if name == workload.frontier]
    p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[8]
           if len(latencies) > 1 else latencies[0])
    return {
        "batch_s": metric(statistics.median(sum(s for _, s in sweep_ops)
                                            for sweep_ops in timed), "s"),
        "op_p50_s": metric(statistics.median(latencies), "s"),
        "op_p90_s": metric(p90, "s"),
        "frontier_s": metric(statistics.median(frontier), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": metric(statistics.median(sampler.normalised(*interval)
                                            for interval in setups), "s"),
    }


def per_layer(tracer, traced, untraced_batches):
    """traced: one (batch seconds, span range, Counter of counts) per
    traced sweep."""
    n = len(traced)
    total = sum(b for b, _, _ in traced)
    self_s = Counter()
    op_s = Counter()
    for _, span_range, _ in traced:
        self_s.update(tracer.self_times(*span_range))
        for name, times in tracer.op_times(*span_range).items():
            op_s[name] += sum(times)
    out = {}
    for layer in tracing.LAYERS + (tracing.UNATTRIBUTED,):
        out[f"{layer}_s"] = metric(self_s[layer] / n, "s")
        out[f"{layer}_share"] = metric(self_s[layer] / total, "ratio")
    for name in tracing.COUNTS:
        out[name] = metric(statistics.median(c[name] for _, _, c in traced),
                           "count")
    for name in SELFTEST_CRITERIA:
        out[f"selftest.{name}_s"] = metric(op_s[name] / n, "s")
    traced_batch = statistics.median(b for b, _, _ in traced)
    untraced_batch = statistics.median(untraced_batches)
    out["trace.batch_s"] = metric(traced_batch, "s")
    out["trace.untraced_batch_s"] = metric(untraced_batch, "s")
    out["trace.overhead_s"] = metric(traced_batch - untraced_batch, "s")
    return out


def run(args) -> dict:
    import workloads

    start = perf_counter()
    workload = workloads.WORKLOADS[args.workload]
    sampler = hostspeed.Sampler()
    tracer = tracing.Tracer() if args.trace else None
    rng = random.Random(f"{args.seed}:order")
    next_id = itertools.count().__next__
    all_ops, untraced, traced = [], [], []
    min_sweeps = MIN_TRACED_SWEEPS if args.trace else MIN_SWEEPS
    with sampler.running():
        setups, state = workloads.timed_setup(
            workload, args.seed, SRC, sampler, SETUP_REPEATS, SETUP_MIN_S,
            SETUP_MAX_REPEATS)
        measure_start = perf_counter()
        for i in itertools.count():
            if args.trace and i % 2 == 1:
                first = len(tracer.spans)
                counts_before = tracer.counts.copy()
                with sampler.paused():   # spans hold no bursts
                    tracer.install()
                    try:
                        ops = workloads.sweep(workload, state, rng, tracer,
                                              next_id)
                    finally:
                        tracer.uninstall()
                counts = tracer.counts - counts_before
                counts["trace.spans"] = len(tracer.spans) - first
                traced.append((sum(o.seconds for o in ops),
                               (first, len(tracer.spans)), counts))
            else:
                ops = workloads.sweep(workload, state, rng, None, next_id)
                untraced.append(ops)
            all_ops += ops
            batch = sum(o.seconds for o in ops)
            now = perf_counter()
            sampled = bool(traced) or not args.trace  # one sweep of each kind
            if sampled and now - start + batch > HARD_LIMIT_S:
                break
            if (i + 1 >= min_sweeps
                    and now - measure_start + batch > args.seconds):
                break

    failed = [o for o in all_ops if not o.ok]
    print(f"{workload.name}: seed {args.seed}, {len(untraced)} untraced and "
          f"{len(traced)} traced sweeps, {len(all_ops)} ops, "
          f"fail_ratio {len(failed)}/{len(all_ops)}, mean host burst "
          f"{statistics.fmean(sampler.seconds) * 1e6:.1f} us", file=sys.stderr)
    for o in failed[:10]:
        print(f"  FAILED {o.name}: {o.error}", file=sys.stderr)
    if args.trace:
        untraced_batches = [sum(sampler.net(o.start, o.end) for o in ops)
                            for ops in untraced]
        metrics = per_layer(tracer, traced, untraced_batches)
        metrics["host.burst_us"] = metric(
            statistics.fmean(sampler.seconds) * 1e6, "us")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload.name}-seed{args.seed}.tsv")
    else:
        metrics = end_to_end(workload, untraced, setups, sampler)
    return {"correct": not failed, "attempted": len(all_ops),
            "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vfgrowth" / "__init__.py").is_file():
        print(f"error: no vfgrowth package under {SRC}; run from the root "
              f"of a vfgrowth checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
