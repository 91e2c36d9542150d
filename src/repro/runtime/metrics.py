"""Per-stage observability for the OWL pipeline.

The ROADMAP's north star is a system that "runs as fast as the hardware
allows"; that only means something if throughput is measured.  This module
records, for every pipeline stage, the wall time, the VM work performed
(interpreter steps, shared-memory accesses observed by the detector) and the
item throughput (reports verified per second, seeds explored per second,
...), and exports the lot as JSON next to the benchmark tables under
``benchmarks/out/``.

Schema of the exported JSON (one file per program run)::

    {
      "schema": 9,                  # bump on incompatible layout changes
      "program": "apache",          # ProgramSpec name
      "jobs": 4,                    # worker processes (1 = serial)
      "total_seconds": 12.3,
      "stages": [
        {
          "name": "detect",
          "wall_seconds": 8.1,
          "items": 715,             # stage-specific unit, see "unit"
          "unit": "reports",
          "runs": 12,               # executions (or replayed seeds) observed
          "vm_steps": 2400000,      # interpreter steps the stage executed
          "accesses": 310000,       # shared accesses the detector shadowed
          "steps_per_second": 296296.3,
          "items_per_second": 88.3,
          "cache_hits": 12,         # cache-enabled runs only
          "cache_misses": 0
        },
        ...
      ],
      # present when the run used a ResultCache / BatchPolicy:
      "cache": {
        "root": "benchmarks/out/cache",
        "code_version": "2f7a...",  # digest of the repro package source
        "hits": 34, "misses": 2, "stores": 2,
        "stages": {"detect": {"hits": 12, "misses": 0, "stores": 0}, ...}
      },
      "batch": {
        "timeout_seconds": null,    # per-item result-wait budget
        "retry_budget": 2,
        "backoff_seconds": 0.1,
        "timeouts": 0,              # items that exceeded the budget
        "retries": 0,               # items re-submitted to the pool
        "worker_failures": 0,       # exceptions / dead worker processes
        "serial_fallbacks": 0       # items re-run in-process after retries
      },
      # present when the run came from the differential-execution oracle
      # (tools/diff_oracle.py; see repro.runtime.diffcheck):
      "diff_oracle": {
        "seeds": 10,                # seeds swept per program
        "divergences": 0,           # first-divergence records (0 = identical)
        "reference_steps_per_second": 120000.0,
        "optimized_steps_per_second": 260000.0,
        "speedup": 2.167,           # optimized / reference steps/s
        "report_sets_identical": true,
        "counters_identical": true,
        "annotated_reports_identical": true,  # records + subsequent reads
        "verifications_identical": true  # race + vuln verdicts, per report
      },
      # present when the run used coverage-guided exploration (the detect
      # stage's saturation curve; see repro.owl.explore):
      "explore": {
        "detector": "tsan",
        "policy": {"max_seeds": 20, "wave_size": 4, "saturation_k": 2,
                   "escalate": true},
        "seeds_executed": 12,       # seeds actually run
        "seeds_skipped": 8,         # budget the early stop never spent
        "saturated": true,
        "saturation_wave": 2,       # wave that sealed saturation (or null)
        "total_pairs": 23,          # racy access pairs covered
        "distinct_schedules": 12,   # context-switch signatures seen
        "waves": [
          {"index": 0, "seeds": [0, 1, 2, 3], "scheduler": "random",
           "depth": 3, "new_pairs": 21, "new_signatures": 4,
           "total_pairs": 21, "dry": false, "escalated": false},
          ...
        ]
      },
      # present when the detector stages replayed recorded schedule logs
      # instead of executing live (repro.owl.replay):
      "replay": {
        "logs": 20,                 # recorded logs in the sweep
        "decisions": 61234,         # schedule decisions across those logs
        "record_dir": "benchmarks/out/records/apache",
        "replays": 40,              # log re-executions (detect + annotated)
        "schedule_divergences": 0,  # any non-zero means unfaithful replay
        "sync_divergences": 0,
        "thread_divergences": 0,
        "unfaithful_replays": 0
      },
      # present when exploration ran a predict wave
      # (repro.detectors.predict): the wave-0 closure/witness counters
      # and the per-pair evidence status:
      "predict": {
        "detector": "predict",
        "program": "memcached",
        "seed": 0,
        "mode": "sync-preserving",  # or "optimistic" (sync-reversal)
        "policy": {"optimistic": false, "witness": true,
                   "max_pairs_per_static": 4, "max_closures": 20000},
        "counters": {"events": 5120, "accesses": 4010,
                     "candidate_pairs": 30, "closures": 30,
                     "predicted": 16, "rejected": 14, "observed": 15,
                     "witnessed": 1, "unwitnessed": 0, ...},
        "pairs": [[[411, 873], "observed"], ...]
      },
      # only when the run fused hot blocks into superinstructions
      # (repro.runtime.fuse): jobs=1 sweeps under a PCT schedule (the SKI
      # kernel), without cache, exploration or replay.  Observational,
      # like steps/s:
      "fuse": {
        "compiled_blocks": 305, "fused_runs": 13793,
        "fused_steps": 183937, "fused_step_share": 0.6551,
        "bailouts": 0, "invalidations": 0
      },
      # always present on pipeline runs: the deterministic telemetry
      # snapshot (repro.runtime.telemetry) plus the optional profiler
      # summary (repro.runtime.profiler):
      "telemetry": {
        "counters": {"cache.detect.hits": 30, "vm.steps": 123456, ...},
        "gauges": {"spans.records": 412, ...},
        "histograms": {"vm.steps_per_seed": {"bounds": [...],
                       "counts": [...], "sum": 123456, "count": 10}},
        "profile": {                # only when --profile was on
          "interval": 251, "samples": 480, "observer_samples": 210,
          "top_functions": [["main", 140], ...],
          "top_opcodes": [["Load", 180], ...]
        }
      }
    }

An ``owl fix`` run adds a ``repair`` block
(:meth:`repro.owl.repair.RepairResult.metrics_block`).  The loader reads
schema 9 only.

Counters (:class:`repro.owl.pipeline.StageCounters`) stay byte-identical
between serial and parallel runs; metrics are *observations* and naturally
vary with the machine and worker count, so they live in a separate object.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

#: Version of the metrics JSON layout.  ``benchmarks/out/metrics_*.json``
#: files are compared across PRs; the loader refuses files whose schema it
#: does not understand rather than silently mis-reading them.
SCHEMA_VERSION = 9

#: Versions :func:`load_metrics` reads.
SUPPORTED_SCHEMAS = (SCHEMA_VERSION,)


class MetricsSchemaError(ValueError):
    """A metrics file declares a schema this code cannot interpret."""


class RunStats:
    """Lightweight, picklable summary of one VM execution.

    The parallel batch engine cannot ship :class:`ExecutionResult` objects
    across process boundaries (they reference interpreter state and IR
    instructions); workers return these instead.

    A detector sweep asked for them also hangs the seed's
    :class:`repro.runtime.coverage.SeedCoverage` (``coverage``),
    :class:`repro.runtime.profiler.SeedProfile` (``profile``) and sealed
    :class:`repro.runtime.tape.EventTape` (``tape``) here; each is None
    otherwise, and :meth:`as_dict` leaves them out.  ``steps`` counts the
    VM steps executed: a seed replayed from a tape has 0.
    """

    __slots__ = ("seed", "reason", "steps", "accesses", "reports",
                 "wall_seconds", "coverage", "profile", "tape")

    def __init__(self, seed: int, reason: str, steps: int, accesses: int = 0,
                 reports: int = 0, wall_seconds: float = 0.0,
                 coverage=None, profile=None, tape=None):
        self.seed = seed
        self.reason = reason
        self.steps = steps
        self.accesses = accesses
        self.reports = reports
        self.wall_seconds = wall_seconds
        self.coverage = coverage
        self.profile = profile
        self.tape = tape

    def as_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "reason": self.reason,
            "steps": self.steps,
            "accesses": self.accesses,
            "reports": self.reports,
            "wall_seconds": self.wall_seconds,
        }

    def __repr__(self) -> str:
        return "<RunStats seed=%d %s steps=%d accesses=%d>" % (
            self.seed, self.reason, self.steps, self.accesses,
        )


class StageMetrics:
    """Wall time and work counters for one pipeline stage."""

    def __init__(self, name: str, unit: str = "items"):
        self.name = name
        self.unit = unit
        self.wall_seconds = 0.0
        self.items = 0
        self.runs = 0
        self.vm_steps = 0
        self.accesses = 0
        self.extra: Dict[str, float] = {}

    # ------------------------------------------------------------------

    def absorb_run_stats(self, stats: Iterable[RunStats]) -> None:
        """Fold per-execution stats (serial or from workers) into the stage."""
        for stat in stats:
            self.runs += 1
            self.vm_steps += stat.steps
            self.accesses += stat.accesses

    @property
    def steps_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.vm_steps / self.wall_seconds

    @property
    def items_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.items / self.wall_seconds

    def as_dict(self) -> Dict:
        data = {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "items": self.items,
            "unit": self.unit,
            "runs": self.runs,
            "vm_steps": self.vm_steps,
            "accesses": self.accesses,
            "steps_per_second": round(self.steps_per_second, 1),
            "items_per_second": round(self.items_per_second, 1),
        }
        data.update(self.extra)
        return data

    def __repr__(self) -> str:
        return "<StageMetrics %s %.3fs %d %s>" % (
            self.name, self.wall_seconds, self.items, self.unit,
        )


class PipelineMetrics:
    """All stages of one pipeline run, exportable as JSON."""

    def __init__(self, program: str, jobs: int = 1):
        self.program = program
        self.jobs = jobs
        self.stages: List[StageMetrics] = []
        self.total_seconds = 0.0
        #: ``ResultCache.counters()`` of a cache-enabled run.
        self.cache: Optional[Dict] = None
        #: ``BatchPolicy.counters()`` of a fault-tolerant run.
        self.batch: Optional[Dict] = None
        #: ``ExplorationResult.metrics_block()`` of a coverage-guided run:
        #: the detect stage's per-wave saturation curve.
        self.explore: Optional[Dict] = None
        #: ``ProgramDiff.as_dict()`` of a differential-oracle run:
        #: reference vs optimized steps/s and the divergence count.
        self.diff_oracle: Optional[Dict] = None
        #: ``ReplaySource.metrics_block()`` of a replayed run:
        #: log/decision counts and every divergence counter.
        self.replay: Optional[Dict] = None
        #: ``MetricsRegistry.snapshot()`` of the run, with an optional
        #: ``profile`` summary — deterministic content only, so jobs=1 and
        #: jobs=N emit bit-identical blocks.
        self.telemetry: Optional[Dict] = None
        #: ``PredictionResult.metrics_block()`` of a predicting run: the
        #: wave-0 trace/closure/witness counters and the per-pair evidence
        #: status — deterministic given the recorded log, so jobs=1 and
        #: jobs=N emit bit-identical blocks.
        self.predict: Optional[Dict] = None
        #: ``OwlPipeline._fuse_block()`` of a superinstruction-fused run:
        #: compiled blocks, fused-step share and bailouts of the
        #: pipeline's engine, present only when a VM attached it.
        self.fuse: Optional[Dict] = None
        #: ``RepairResult.metrics_block()`` of an ``owl fix`` run:
        #: per-target candidate/gate outcomes, emitted patch digests and
        #: the ground-truth comparison — deterministic given the spec
        #: (repair runs serially, targets in static-key order), so jobs=1
        #: and jobs=N emit bit-identical blocks.
        self.repair: Optional[Dict] = None

    # ------------------------------------------------------------------

    @contextmanager
    def stage(self, name: str, unit: str = "items"):
        """Time a stage; the yielded :class:`StageMetrics` collects counters."""
        metrics = StageMetrics(name, unit=unit)
        started = time.perf_counter()
        try:
            yield metrics
        finally:
            metrics.wall_seconds = time.perf_counter() - started
            self.stages.append(metrics)

    def stage_by_name(self, name: str) -> Optional[StageMetrics]:
        for stage in self.stages:
            if stage.name == name:
                return stage
        return None

    @property
    def vm_steps(self) -> int:
        return sum(stage.vm_steps for stage in self.stages)

    @property
    def accesses(self) -> int:
        return sum(stage.accesses for stage in self.stages)

    def as_dict(self) -> Dict:
        data = {
            "schema": SCHEMA_VERSION,
            "program": self.program,
            "jobs": self.jobs,
            "total_seconds": self.total_seconds,
            "vm_steps": self.vm_steps,
            "accesses": self.accesses,
            "stages": [stage.as_dict() for stage in self.stages],
        }
        if self.cache is not None:
            data["cache"] = self.cache
        if self.batch is not None:
            data["batch"] = self.batch
        if self.explore is not None:
            data["explore"] = self.explore
        if self.diff_oracle is not None:
            data["diff_oracle"] = self.diff_oracle
        if self.replay is not None:
            data["replay"] = self.replay
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry
        if self.predict is not None:
            data["predict"] = self.predict
        if self.fuse is not None:
            data["fuse"] = self.fuse
        if self.repair is not None:
            data["repair"] = self.repair
        return data

    def save(self, path: str) -> str:
        """Write the metrics JSON; returns the path written."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=False)
            handle.write("\n")
        return path

    def describe(self) -> str:
        lines = [
            "pipeline metrics: %s (jobs=%d, %.3fs total)" % (
                self.program, self.jobs, self.total_seconds,
            )
        ]
        for stage in self.stages:
            lines.append(
                "  %-22s %8.3fs  %6d %-8s %9d steps  %12.1f steps/s" % (
                    stage.name, stage.wall_seconds, stage.items, stage.unit,
                    stage.vm_steps, stage.steps_per_second,
                )
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "<PipelineMetrics %s jobs=%d stages=%d %.3fs>" % (
            self.program, self.jobs, len(self.stages), self.total_seconds,
        )


def metrics_path(out_dir: str, program: str) -> str:
    """Canonical location of a program's metrics file under ``out_dir``."""
    return os.path.join(out_dir, "metrics_%s.json" % program)


def load_metrics(path: str) -> Dict:
    """Load a metrics JSON file, rejecting unknown schema versions.

    Raises :class:`MetricsSchemaError` when the file declares no ``schema``
    field (pre-versioning files cannot be compared safely) or a version this
    code does not know how to read.
    """
    with open(path) as handle:
        data = json.load(handle)
    version = data.get("schema")
    if version not in SUPPORTED_SCHEMAS:
        raise MetricsSchemaError(
            "metrics file %s declares unsupported schema version %r "
            "(supported: %s)"
            % (path, version,
               ", ".join(str(v) for v in SUPPORTED_SCHEMAS))
        )
    return data
