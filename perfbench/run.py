"""Time to verdict for the OWL pipeline, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload tsan-apps --seed 0 --seconds 20 --trace 0

``--trace 0`` repeats untraced passes of the workload for ``--seconds``
seconds and prints the end-to-end metrics; ``--trace 1`` alternates an
untraced pass with a traced one (:mod:`layers`) and prints the per-layer
metrics, the tracing overhead, and whether tracing left the observable
result unchanged.  Times are normalized to a reference host speed sampled
while each operation runs (:mod:`hostspeed`).  Every operation of every
pass is checked
(:func:`workloads.check_operation`).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up probes per run; setup_s is their median.
SETUP_PROBES = 5

#: Programs whose pipeline time gets its own per-layer metric.
PROGRAM_METRICS = ("apache", "chrome", "memcached", "mysql", "ssdb")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("detect_s", "s"),
    ("verify_s", "s"),
)

DETECT_STAGES = ("detect", "schedule_reduction")
VERIFY_STAGES = ("race_verification", "vulnerability_verification")


def per_layer_names():
    """Every per-layer metric, with its unit, in print order."""
    from layers import OUTSIDE, STAGES

    names = [
        ("interpreter.runs", "count"),
        ("interpreter.steps", "count"),
        ("interpreter.s", "s"),
        ("interpreter.self_s", "s"),
        ("interpreter.steps_per_s", "1/s"),
    ]
    for label in ("random", "pct", "round_robin", "other"):
        names += [("scheduler.%s.calls" % label, "count"),
                  ("scheduler.%s.s" % label, "s")]
    names += [
        ("memory.check_access.calls", "count"),
        ("memory.check_access.s", "s"),
        ("detector.on_access.calls", "count"),
        ("detector.on_access.s", "s"),
        ("detector.on_sync.calls", "count"),
        ("detector.on_sync.s", "s"),
        ("fuse.fused_step_share", "ratio"),
    ]
    for stage in DETECT_STAGES:
        names += [("integration.run_detector.%s.calls" % stage, "count"),
                  ("integration.run_detector.%s.s" % stage, "s")]
    names += [
        ("race_verifier.reports", "count"),
        ("race_verifier.attempts", "count"),
        ("race_verifier.vm_runs", "count"),
        ("race_verifier.steps", "count"),
        ("race_verifier.s", "s"),
        ("race_verifier.self_s", "s"),
        ("race_verifier.verified_per_run", "ratio"),
        ("debugger.check.calls", "count"),
        ("debugger.check.s", "s"),
        ("debugger.breakpoint_hits", "count"),
        ("vuln_verifier.calls", "count"),
        ("vuln_verifier.steps", "count"),
        ("vuln_verifier.s", "s"),
        ("vuln_verifier.realized_per_attempt", "ratio"),
        ("adhoc.calls", "count"),
        ("adhoc.s", "s"),
        ("vuln_analysis.calls", "count"),
        ("vuln_analysis.s", "s"),
        ("repair.gate_oracle_s", "s"),
        ("repair.gate_detector_s", "s"),
        ("repair.gate_schedulers_s", "s"),
        ("repair.emitted_per_candidate", "ratio"),
        ("predict.closure_s", "s"),
        ("patch.clone_s", "s"),
        ("cache.get_calls", "count"),
        ("cache.get_s", "s"),
        ("cache.put_calls", "count"),
        ("cache.put_s", "s"),
        ("cache.bytes_written", "bytes"),
        ("cache.hit_ratio", "ratio"),
        ("payload.encode_s", "s"),
        ("payload.decode_s", "s"),
    ]
    for stage in STAGES:
        names += [("stage.%s.wall_s" % stage, "s"),
                  ("stage.%s.vm_steps" % stage, "count")]
    names.append(("stage.%s.vm_steps" % OUTSIDE, "count"))
    names += [("program_s.%s" % program, "s")
              for program in PROGRAM_METRICS]
    names += [
        ("repair_s", "s"),
        ("rerun_s", "s"),
        ("host.speed_factor", "ratio"),
        ("trace.untraced_wall_s", "s"),
        ("trace.traced_wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return names


# ---------------------------------------------------------------------------
# helpers


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def describe_timing(name: str, values) -> str:
    """Median, and the highest percentile with at least ten samples
    beyond it, with the sample count."""
    ordered = sorted(values)
    count = len(ordered)
    text = "%-32s median %.4f" % (name, statistics.median(ordered))
    if count > 10:
        beyond = 10
        percentile = 100.0 * (count - beyond) / count
        text += "  p%.0f %.4f" % (percentile, ordered[count - beyond - 1])
    else:
        text += "  (no percentile has 10 samples beyond it)"
    return text + "  n=%d  [%s]" % (
        count, " ".join("%.4f" % value for value in values))


def measure_setup(workload: str, offset: int) -> list:
    """(seconds for imports plus ``spec.build()``, host-speed factor),
    once per fresh process."""
    samples = []
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             workload, "--offset", str(offset)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        samples.append(tuple(
            float(field)
            for field in completed.stdout.strip().splitlines()[-1].split()))
    return samples


def setup_probe(workload: str, offset: int) -> None:
    from hostspeed import HostSpeed

    with HostSpeed() as speed:
        started = time.perf_counter()
        sys.path.insert(0, SRC)
        import repro.owl.pipeline  # noqa: F401
        from workloads import PROGRAMS, shifted_spec

        if workload == "fix-cached":
            import repro.owl.cache  # noqa: F401
            import repro.owl.repair  # noqa: F401
        for name in PROGRAMS[workload]:
            shifted_spec(name, offset)
        elapsed = time.perf_counter() - started
    print(repr(elapsed), repr(speed.factor(0)))


class Checker:
    """Counts attempted and failed operations across a run's passes."""

    def __init__(self, offset: int, reference):
        self.offset = offset
        self.reference = reference if offset == 0 else None
        self.first = {}
        self.specs = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, run) -> None:
        from workloads import check_operation, shifted_spec

        for operation in run.operations:
            key = (operation.program, operation.kind)
            spec = self.specs.get(operation.program)
            if spec is None:
                spec = self.specs[operation.program] = shifted_spec(
                    operation.program, self.offset)
            problems = check_operation(spec, operation, self.first.get(key),
                                       self.reference)
            self.first.setdefault(key, operation)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += ["%s: %s" % (operation.label, problem)
                                  for problem in problems]


def _one_pass(workload: str, offset: int, work_dir: str):
    from workloads import run_pass

    gc.collect()
    return run_pass(workload, offset, work_dir)


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(workload, offset, seconds, work_dir, checker):
    setup = measure_setup(workload, offset)
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        run = _one_pass(workload, offset, work_dir)
        checker.check(run)
        if not passes:
            # A one-pass session's peak, as a user running one analysis
            # sees it; later passes would only add the benchmark's own
            # bookkeeping.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes.append(run)
    series = {
        "wall_s": [run.wall_s for run in passes],
        "setup_s": [raw * factor for raw, factor in setup],
        "detect_s": [run.stage_seconds(DETECT_STAGES) for run in passes],
        "verify_s": [run.stage_seconds(VERIFY_STAGES) for run in passes],
    }
    for operation in passes[0].operations:
        series["op:" + operation.label] = [
            op.normalized for run in passes for op in run.operations
            if op.label == operation.label]
    if workload == "fix-cached":
        series["rerun_s"] = [run.rerun_s for run in passes]
    series["raw:wall_s"] = [run.raw_wall_s for run in passes]
    series["raw:setup_s"] = [raw for raw, _ in setup]
    series["host_speed"] = [op.speed for run in passes
                            for op in run.operations]
    for name, values in series.items():
        print(describe_timing(name, values))
    metrics = {name: statistics.median(series[name])
               for name in ("wall_s", "setup_s", "detect_s", "verify_s")}
    metrics["peak_rss_mb"] = peak_rss_mb
    print("%-32s %.1f" % ("peak_rss_mb", peak_rss_mb))
    return {name: (metrics[name], unit) for name, unit in END_TO_END}


def layer_metrics(tracer, traced, untraced):
    """Per-layer values of one traced pass (and its untraced twin)."""
    from layers import OUTSIDE, STAGES

    t = tracer
    counts = t.counts
    values = {
        "interpreter.runs": t.calls("interpreter.run"),
        "interpreter.steps": counts.get("interpreter.steps", 0),
        "interpreter.s": t.total("interpreter.run"),
        "interpreter.self_s": t.self_time("interpreter.run"),
    }
    values["interpreter.steps_per_s"] = _ratio(values["interpreter.steps"],
                                               values["interpreter.s"])
    for label in ("random", "pct", "round_robin", "other"):
        values["scheduler.%s.calls" % label] = t.calls("scheduler." + label)
        values["scheduler.%s.s" % label] = t.total("scheduler." + label)
    for key in ("memory.check_access", "detector.on_access",
                "detector.on_sync", "debugger.check"):
        values[key + ".calls"] = t.calls(key)
        values[key + ".s"] = t.total(key)
    values["fuse.fused_step_share"] = traced.fused_step_share
    for stage in DETECT_STAGES:
        key = "integration.run_detector." + stage
        values[key + ".calls"] = t.calls(key)
        values[key + ".s"] = t.total(key)
    values.update({
        "race_verifier.reports": t.calls("race_verifier"),
        "race_verifier.attempts": counts.get("race_verifier.attempts", 0),
        "race_verifier.vm_runs": counts.get("race_verifier.vm_runs", 0),
        "race_verifier.steps": counts.get("race_verifier.steps", 0),
        "race_verifier.s": t.total("race_verifier"),
        "race_verifier.self_s": t.self_time("race_verifier"),
        "race_verifier.verified_per_run": _ratio(
            counts.get("race_verifier.verified", 0),
            counts.get("race_verifier.attempts", 0)),
        "debugger.breakpoint_hits": counts.get("debugger.breakpoint_hits", 0),
        "vuln_verifier.calls": t.calls("vuln_verifier"),
        "vuln_verifier.steps": counts.get("vuln_verifier.steps", 0),
        "vuln_verifier.s": t.total("vuln_verifier"),
        "vuln_verifier.realized_per_attempt": _ratio(
            counts.get("vuln_verifier.realized", 0),
            counts.get("vuln_verifier.attempts", 0)),
        "adhoc.calls": t.calls("adhoc"),
        "adhoc.s": t.total("adhoc"),
        "vuln_analysis.calls": t.calls("vuln_analysis"),
        "vuln_analysis.s": t.total("vuln_analysis"),
        "repair.gate_oracle_s": t.total("repair.gate_oracle"),
        "repair.gate_detector_s": t.total("repair.gate_detector"),
        "repair.gate_schedulers_s": t.total("repair.gate_schedulers"),
        "repair.emitted_per_candidate": _ratio(
            counts.get("repair.emitted", 0),
            counts.get("repair.candidates", 0)),
        "predict.closure_s": t.total("predict.closure"),
        "patch.clone_s": t.total("patch.clone"),
        "cache.get_calls": t.calls("cache.get"),
        "cache.get_s": t.total("cache.get"),
        "cache.put_calls": t.calls("cache.put"),
        "cache.put_s": t.total("cache.put"),
        "cache.bytes_written": counts.get("cache.bytes_written", 0),
        "cache.hit_ratio": _ratio(
            counts.get("cache.hits", 0),
            counts.get("cache.hits", 0) + counts.get("cache.misses", 0)),
        "payload.encode_s": t.prefix_self_time("payload.encode."),
        "payload.decode_s": t.prefix_self_time("payload.decode."),
    })
    for stage in STAGES:
        values["stage.%s.wall_s" % stage] = t.total("stage." + stage)
    for stage in STAGES + (OUTSIDE,):
        values["stage.%s.vm_steps" % stage] = t.stage_steps.get(stage, 0)
    for program in PROGRAM_METRICS:
        values["program_s." + program] = sum(
            op.normalized for op in untraced.operations
            if op.kind == "pipeline" and op.program == program and op.timed)
    values["repair_s"] = sum(op.normalized for op in untraced.operations
                             if op.kind == "repair" and op.timed)
    values["rerun_s"] = untraced.rerun_s
    values["host.speed_factor"] = statistics.median(
        op.speed for op in untraced.operations + traced.operations)
    values["trace.untraced_wall_s"] = untraced.raw_wall_s
    values["trace.traced_wall_s"] = traced.raw_wall_s
    values["trace.overhead_s"] = traced.raw_wall_s - untraced.raw_wall_s
    problems = []
    attributed = sum(t.stage_steps.values())
    executed = t.vm_steps_executed
    if attributed != executed:
        problems.append("per-stage VM steps sum to %d, VMs executed %d"
                        % (attributed, executed))
    for stage in DETECT_STAGES:
        reported = sum(
            entry["vm_steps"] for op in traced.operations
            if op.kind == "pipeline" and op.timed
            for entry in op.observation["metrics"]["stages"]
            if entry["name"] == stage)
        if reported != t.stage_steps.get(stage, 0):
            problems.append("stage %s: pipeline reports %d VM steps, "
                            "trace counted %d"
                            % (stage, reported, t.stage_steps.get(stage, 0)))
    return values, problems


def traced_run(workload, offset, seconds, work_dir, checker):
    from layers import LayerTracer
    from workloads import run_pass

    samples = []
    problems = []
    started = time.perf_counter()
    while not samples or time.perf_counter() - started < seconds:
        untraced = _one_pass(workload, offset, work_dir)
        gc.collect()
        with LayerTracer() as tracer:
            traced = run_pass(workload, offset, work_dir)
        checker.check(untraced)
        checker.check(traced)
        for plain, wrapped in zip(untraced.operations, traced.operations):
            if plain.observation != wrapped.observation:
                problems.append("%s: traced result differs from untraced"
                                % wrapped.label)
        values, step_problems = layer_metrics(tracer, traced, untraced)
        problems += step_problems
        samples.append(values)
    metrics = {}
    for name, unit in per_layer_names():
        value = statistics.median(sample[name] for sample in samples)
        metrics[name] = (value, unit)
        print("%-40s %.6g %s" % (name, value, unit))
    return metrics, problems


# ---------------------------------------------------------------------------


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--offset", type=int, default=0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    args = parse_args(argv)
    if args.setup_probe is not None:
        setup_probe(args.setup_probe, args.offset)
        return 0
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no OWL sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import load_reference, offset_for_seed

    offset = offset_for_seed(args.seed)
    print("workload %s, seed %d -> window offset %d, %g s, trace %d"
          % (args.workload, args.seed, offset, args.seconds, args.trace))
    checker = Checker(offset, load_reference(ROOT))
    work_parent = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_parent, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=work_parent)
    trace_problems = []
    try:
        if args.trace:
            metrics, trace_problems = traced_run(
                args.workload, offset, args.seconds, work_dir, checker)
        else:
            metrics = end_to_end(args.workload, offset, args.seconds,
                                 work_dir, checker)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_parent)
        except OSError:
            pass
    for problem in checker.problems + trace_problems:
        print("FAILED " + problem)
    print("operations: %d attempted, %d failed"
          % (checker.attempted, checker.failed))
    print(json.dumps({
        "correct": checker.failed == 0 and not trace_problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
