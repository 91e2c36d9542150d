#!/usr/bin/env python3
"""Differential-execution oracle: reference vs optimized VM, bit-for-bit.

Runs every requested program twice per seed — once with every interpreter
hot-path optimization disabled (``reference``) and once as shipped — and
asserts the two executions are observably identical: same trace-event
stream (thread/step/address/size/value/call stack/variable), same fault
lists, same race-report sets and, with ``--counters``, same
``StageCounters.parity_dict()``, annotated report sets (records and
subsequent reads included; the optimized leg replays event tapes, the
reference leg re-executes) and verification outcomes from a full pipeline
run.  While doing so
it measures reference vs optimized interpreter throughput and writes the
comparison into the schema-4 ``diff_oracle`` metrics block.  On a PCT
spec such as ``linux_proc`` the optimized leg of ``--counters`` (and of the
report-set check) executes fused superinstructions, exactly as the
pipeline does, so it also holds fusion bit-identical to the reference VM.

Usage::

    PYTHONPATH=src python tools/diff_oracle.py                # all apps, 10 seeds
    PYTHONPATH=src python tools/diff_oracle.py \\
        --programs memcached apache_log linux_proc \\
        --seeds 10 --counters --metrics-out benchmarks/out

Exit status 0 when every program is divergence-free, 1 otherwise (the
first divergence per program is printed with both sides of the mismatch).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.apps.registry import all_specs, spec_by_name
from repro.runtime.diffcheck import diff_counters, diff_program, diff_reports
from repro.runtime.metrics import PipelineMetrics, RunStats


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="assert optimized VM execution is bit-identical to the "
                    "reference implementation, and measure the speedup")
    parser.add_argument(
        "--programs", nargs="*", default=None, metavar="NAME",
        help="spec names to check (default: all registered apps)")
    parser.add_argument(
        "--seeds", type=int, default=10, metavar="N",
        help="seeds per program for the event-stream sweep (default: 10)")
    parser.add_argument(
        "--counters", action="store_true",
        help="also run the full pipeline per mode and compare "
             "StageCounters.parity_dict(), the annotated report set and "
             "the verification outcomes (slower)")
    parser.add_argument(
        "--metrics-out", default=None, metavar="DIR",
        help="write metrics_diffcheck_<program>.json (schema 4, with the "
             "diff_oracle block) under DIR")
    parser.add_argument(
        "--stop-on-divergence", action="store_true",
        help="stop a program's seed sweep at its first divergence")
    return parser.parse_args(argv)


def check_program(spec, args):
    diff = diff_program(spec, seeds=range(args.seeds),
                        stop_on_divergence=args.stop_on_divergence)
    diff = diff_reports(spec, diff)
    if args.counters:
        diff = diff_counters(spec, diff)
    return diff


def save_metrics(diff, out_dir):
    metrics = PipelineMetrics(diff.program, jobs=1)
    with metrics.stage("reference_execute", unit="seeds") as stage:
        stage.items = len(diff.seeds)
        stage.absorb_run_stats([RunStats(
            seed=-1, reason="sweep", steps=diff.reference_steps,
            wall_seconds=diff.reference_seconds)])
    with metrics.stage("optimized_execute", unit="seeds") as stage:
        stage.items = len(diff.seeds)
        stage.absorb_run_stats([RunStats(
            seed=-1, reason="sweep", steps=diff.optimized_steps,
            wall_seconds=diff.optimized_seconds)])
    # the stage context manager measured its own (trivial) wall time; the
    # real timings come from the sweep itself
    metrics.stages[0].wall_seconds = diff.reference_seconds
    metrics.stages[1].wall_seconds = diff.optimized_seconds
    metrics.total_seconds = diff.reference_seconds + diff.optimized_seconds
    metrics.diff_oracle = diff.as_dict()
    path = os.path.join(out_dir, "metrics_diffcheck_%s.json" % diff.program)
    return metrics.save(path)


def main(argv=None):
    args = parse_args(argv if argv is not None else sys.argv[1:])
    if args.programs:
        specs = [spec_by_name(name) for name in args.programs]
    else:
        specs = all_specs()
    failures = 0
    for spec in specs:
        diff = check_program(spec, args)
        verdict = "identical" if diff.identical else "DIVERGED"
        print("%-14s seeds=%d  ref %10.0f steps/s  opt %10.0f steps/s  "
              "speedup %.2fx  %s" % (
                  diff.program, len(diff.seeds),
                  diff.reference_steps_per_second,
                  diff.optimized_steps_per_second,
                  diff.speedup, verdict))
        for divergence in diff.divergences:
            print("  " + divergence.describe().replace("\n", "\n  "))
        if not diff.identical:
            failures += 1
        if args.metrics_out:
            path = save_metrics(diff, args.metrics_out)
            print("  metrics -> %s" % path)
    if failures:
        print("FAIL: %d program(s) diverged" % failures)
        return 1
    print("OK: %d program(s), zero divergence" % len(specs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
