"""Parallel batch execution for the OWL pipeline.

The paper's deployment story (Table 1: 28,209 reports; Table 3: 31,870 raw
detector reports) makes detector throughput the limiting factor, and every
stage of Figure 3 is embarrassingly parallel at some granularity:

- **detection** — each ``(program × seed)`` detector run is an independent
  VM execution,
- **race verification** — each report is re-executed on its own,
- **vulnerability verification** — each vulnerable-input hint likewise.

This module fans those units out over a ``concurrent.futures`` process pool
and merges results *deterministically*, so pipeline counters are
bit-identical to the serial run: per-seed report sets are merged in seed
order (static dedup keeps the first occurrence and appends later watch data,
exactly like a shared report set would), and per-item verification outcomes
are reassembled by index.

Worker processes cannot receive VMs, modules or IR instructions (they are
not picklable, and identity matters to the debugger's breakpoints), so the
boundary works in *payloads*: plain tuples/dicts keyed by instruction uid.
Module builds are deterministic — the same factory assigns the same uids —
so a worker rebuilds the module from the spec registry (or a module-level
factory function) and rehydrates reports against its own copy; the parent
rehydrates results against the original module.  Each worker process caches
the built spec/module, amortizing the rebuild across all its tasks.

Parallel execution therefore requires the :class:`ProgramSpec` to be
resolvable by name through :mod:`repro.apps.registry` (or an explicit
picklable ``module_source``); anything else silently falls back to the
serial path with identical results.

**Determinism and parity invariants** (the contract every function here
keeps, and the tests in ``tests/owl/test_batch.py`` enforce):

1. *Order independence* — results are reassembled by seed / report /
   vulnerability index, never by completion order, so
   :meth:`StageCounters.parity_dict` is bit-identical at any job count.
2. *Identity through payloads* — instruction identity crosses the process
   boundary as the module uid; rehydrating against the parent's module
   restores object identity, so breakpoints and tag lookups behave as in
   a serial run.
3. *Worker equivalence* — running a worker function in-process (the serial
   fallback, or a cache miss at ``jobs=1``) produces the same payload the
   pooled worker would, so fault-tolerant degradation never changes
   results, only wall-clock.
4. *Cache transparency* — a cache hit returns the exact payload the worker
   originally produced (minus spans), so cached and uncached runs emit
   bit-identical counters and provenance dispositions (see
   :mod:`repro.owl.cache`).

**Fault tolerance** (:class:`BatchPolicy`, :func:`run_tasks`): each item
gets a per-item result-wait budget; transient failures — a crashed worker
process, a broken pool, a timeout — are retried with exponential backoff,
and items still failing after the retry budget are re-run serially
in-process, so one bad worker degrades throughput rather than failing the
batch.  Workers always terminate on their own eventually (every VM runs
under a ``max_steps`` budget), so "hung" here means slow, and pool
shutdown is bounded.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    as_completed,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.detectors.annotations import AdhocSyncAnnotation, AnnotationSet
from repro.detectors.report import AccessRecord, RaceReport, ReportSet
from repro.detectors.tsan import run_seed
from repro.ir.module import Module
from repro.owl.race_verifier import (
    DynamicRaceVerifier,
    RaceVerification,
    SecurityHints,
)
from repro.owl.vuln_verifier import DynamicVulnerabilityVerifier, VulnVerification
from repro.runtime.errors import FaultKind
from repro.runtime.metrics import RunStats
from repro.runtime.spans import SpanTracer
from repro.spec import AttackGroundTruth, ProgramSpec

# ---------------------------------------------------------------------------
# payload (de)hydration — instruction identity travels as the module uid


def access_to_payload(record: AccessRecord) -> Tuple:
    return (
        record.instruction.uid or 0, record.thread_id, record.is_write,
        record.value, tuple(record.call_stack), record.address, record.step,
        record.size,
    )


def access_from_payload(module: Module, payload: Tuple) -> AccessRecord:
    uid, thread_id, is_write, value, call_stack, address, step, size = payload
    # Frames arrive as tuples from pickled payloads but as lists from
    # JSON-round-tripped cache entries; normalize so both rehydrate to the
    # same CallStack shape.
    return AccessRecord(
        module.instruction_by_uid(uid), thread_id, is_write, value,
        tuple(tuple(frame) for frame in call_stack), address,
        step=step, size=size,
    )


def report_to_payload(report: RaceReport) -> Dict:
    return {
        "first": access_to_payload(report.first),
        "second": access_to_payload(report.second),
        "variable": report.variable,
        "detector": report.detector,
        "subsequent": [access_to_payload(a) for a in report.subsequent_reads],
    }


def report_from_payload(module: Module, payload: Dict) -> RaceReport:
    report = RaceReport(
        access_from_payload(module, payload["first"]),
        access_from_payload(module, payload["second"]),
        variable=payload["variable"],
        detector=payload["detector"],
    )
    report.subsequent_reads.extend(
        access_from_payload(module, a) for a in payload["subsequent"]
    )
    return report


def reports_to_payloads(reports: Iterable[RaceReport]) -> List[Dict]:
    return [report_to_payload(report) for report in reports]


def reports_from_payloads(module: Module, payloads: List[Dict]) -> ReportSet:
    reports = ReportSet()
    for payload in payloads:
        reports.add(report_from_payload(module, payload))
    return reports


def annotations_to_payload(annotations: Optional[AnnotationSet]) -> Optional[List]:
    if annotations is None:
        return None
    return [
        (a.read_instruction.uid or 0, a.write_instruction.uid or 0, a.variable)
        for a in annotations
    ]


def annotations_from_payload(module: Module,
                             payload: Optional[List]) -> Optional[AnnotationSet]:
    if payload is None:
        return None
    return AnnotationSet(
        AdhocSyncAnnotation(
            module.instruction_by_uid(read_uid),
            module.instruction_by_uid(write_uid),
            variable,
        )
        for read_uid, write_uid, variable in payload
    )


def vuln_to_payload(vulnerability) -> Dict:
    return {
        "site": vulnerability.site.uid or 0,
        "site_type": vulnerability.site_type.value,
        "kind": vulnerability.kind.value,
        "branches": [branch.uid or 0 for branch in vulnerability.branches],
        "start": vulnerability.start.uid or 0,
        "call_stack": tuple(vulnerability.call_stack),
        "source": (
            report_to_payload(vulnerability.source)
            if vulnerability.source is not None else None
        ),
    }


def vuln_from_payload(module: Module, payload: Dict):
    from repro.owl.vuln_analysis import DependenceKind, VulnerabilityReport
    from repro.owl.vuln_sites import VulnSiteType

    return VulnerabilityReport(
        site=module.instruction_by_uid(payload["site"]),
        site_type=VulnSiteType(payload["site_type"]),
        kind=DependenceKind(payload["kind"]),
        branches=[module.instruction_by_uid(uid) for uid in payload["branches"]],
        start=module.instruction_by_uid(payload["start"]),
        call_stack=tuple(payload["call_stack"]),
        source=(
            report_from_payload(module, payload["source"])
            if payload["source"] is not None else None
        ),
    )


# ---------------------------------------------------------------------------
# per-worker caches: specs and modules rebuilt once per process, not per task

_SPEC_CACHE: Dict[str, ProgramSpec] = {}
_MODULE_CACHE: Dict[object, Module] = {}


def _cached_spec(name: str) -> ProgramSpec:
    spec = _SPEC_CACHE.get(name)
    if spec is None:
        from repro.apps.registry import spec_by_name

        spec = spec_by_name(name)
        _SPEC_CACHE[name] = spec
    return spec


def _resolve_module(source) -> Module:
    """A module from a registry spec name or a picklable factory function."""
    module = _MODULE_CACHE.get(source)
    if module is None:
        if isinstance(source, str):
            module = _cached_spec(source).build()
        else:
            module = source()
        _MODULE_CACHE[source] = module
    return module


def can_parallelize(spec: ProgramSpec) -> bool:
    """Whether worker processes can rebuild this spec from its name."""
    from repro.apps.registry import has_spec

    return has_spec(spec.name)


@contextmanager
def _pool(jobs: int, executor: Optional[ProcessPoolExecutor]):
    """Use the caller's executor, or run a private one for this call."""
    if executor is not None:
        yield executor
        return
    own = ProcessPoolExecutor(max_workers=max(1, jobs))
    try:
        yield own
    finally:
        own.shutdown()


def make_executor(jobs: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=max(1, jobs))


# ---------------------------------------------------------------------------
# fault-tolerant task execution

#: Sentinel distinguishing "no result yet" from any legitimate worker output.
_UNSET = object()


class BatchPolicy:
    """Fault-tolerance budgets for batched worker tasks.

    - ``timeout`` — per-item result-wait budget in seconds (None = wait
      forever; workers always terminate on their own because every VM runs
      under ``max_steps``).
    - ``retries`` — how many extra parallel waves a failed item gets.
    - ``backoff`` — sleep before the first retry wave, doubling each wave
      (exponential backoff for transient failures).
    - ``serial_fallback`` — whether items that exhaust the retry budget are
      re-run in-process; when False they raise instead.

    The instance also *accumulates* counters across every batch it
    supervises (one policy serves a whole pipeline run); they live in a
    :class:`repro.runtime.telemetry.MetricsRegistry` (``batch.*`` names,
    an injected pipeline-wide registry or a private one) and surface in
    the metrics JSON as the ``"batch"`` block (schema 2).
    """

    def __init__(self, timeout: Optional[float] = None, retries: int = 2,
                 backoff: float = 0.1, serial_fallback: bool = True,
                 registry=None):
        from repro.runtime.telemetry import MetricsRegistry

        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = max(0.0, float(backoff))
        self.serial_fallback = serial_fallback
        self.registry = registry if registry is not None else MetricsRegistry()
        self._timeouts = self.registry.counter("batch.timeouts")
        self._retried = self.registry.counter("batch.retries")
        self._worker_failures = self.registry.counter("batch.worker_failures")
        self._serial_fallbacks = self.registry.counter(
            "batch.serial_fallbacks")

    @property
    def timeouts(self) -> int:
        return self._timeouts.value

    @property
    def retried(self) -> int:
        return self._retried.value

    @property
    def worker_failures(self) -> int:
        return self._worker_failures.value

    @property
    def serial_fallbacks(self) -> int:
        return self._serial_fallbacks.value

    def counters(self) -> Dict:
        """The metrics-JSON ``"batch"`` block (schema 2)."""
        return {
            "timeout_seconds": self.timeout,
            "retry_budget": self.retries,
            "backoff_seconds": self.backoff,
            "timeouts": self.timeouts,
            "retries": self.retried,
            "worker_failures": self.worker_failures,
            "serial_fallbacks": self.serial_fallbacks,
        }

    def __repr__(self) -> str:
        return ("<BatchPolicy timeout=%s retries=%d timeouts=%d "
                "failures=%d fallbacks=%d>") % (
            self.timeout, self.retries, self.timeouts,
            self.worker_failures, self.serial_fallbacks,
        )


def run_tasks(worker: Callable[[Dict], Dict], payloads: Sequence[Dict],
              pool: Optional[ProcessPoolExecutor],
              policy: Optional[BatchPolicy] = None) -> List[Dict]:
    """Run ``worker`` over ``payloads`` on ``pool``; results in payload order.

    Transient failures — a worker process dying (``BrokenExecutor``), an
    exception escaping the worker, or an item exceeding the policy's
    per-item timeout — are retried in waves with exponential backoff.
    Items that exhaust the retry budget (or face a broken/absent pool) are
    re-run serially in-process, so a flaky pool degrades to serial
    execution with identical results instead of failing the batch.
    Deterministic worker errors therefore surface exactly once, from the
    in-process run, with a real traceback.
    """
    policy = policy if policy is not None else BatchPolicy()
    results: List = [_UNSET] * len(payloads)
    pending = list(range(len(payloads)))
    broken = pool is None
    wave = 0
    while pending and not broken and wave <= policy.retries:
        if wave:
            policy._retried.inc(len(pending))
            time.sleep(policy.backoff * (2 ** (wave - 1)))
        futures = {}
        try:
            for index in pending:
                futures[pool.submit(worker, payloads[index])] = index
        except Exception:
            broken = True  # pool refused work (shut down or broken)
        for future, index in futures.items():
            try:
                results[index] = future.result(timeout=policy.timeout)
            except FuturesTimeoutError:
                policy._timeouts.inc()
                future.cancel()
            except BrokenExecutor:
                policy._worker_failures.inc()
                broken = True
            except Exception:
                policy._worker_failures.inc()
        pending = [index for index in pending if results[index] is _UNSET]
        wave += 1
    if pending:
        if not policy.serial_fallback:
            raise RuntimeError(
                "%d/%d batch items failed after %d retries"
                % (len(pending), len(payloads), policy.retries))
        for index in pending:
            policy._serial_fallbacks.inc()
            results[index] = worker(payloads[index])
    return results


def _cacheable(output: Dict) -> Dict:
    """What of a worker output goes into the result cache.

    Spans are observations of one particular execution (timings, worker
    ids), not results — replaying them from a warm cache would be lying
    about where time went, so they are stripped; cache hits get a single
    ``cached=True`` marker span instead.  A detector seed's event tape is
    stripped too: it is bulky, and a sweep whose seeds lack tapes simply
    re-runs its annotated pass.
    """
    return {key: value for key, value in output.items()
            if key not in ("spans", "tape")}


def run_cached_tasks(
    worker: Callable[[Dict], Dict],
    payloads: Sequence[Dict],
    cache=None,
    stage: str = "",
    keys: Optional[Sequence[str]] = None,
    jobs: int = 1,
    executor: Optional[ProcessPoolExecutor] = None,
    policy: Optional[BatchPolicy] = None,
) -> List[Dict]:
    """Cache-aware, fault-tolerant fan-out of one stage's items.

    Items whose key is already in ``cache`` are answered from disk (their
    output gains ``"cached": True`` and carries no spans); the rest run
    via :func:`run_tasks` on a pool when ``jobs > 1`` or an ``executor``
    is supplied, in-process otherwise, and their stripped outputs are
    stored.  Outputs always come back in payload order, so the merge the
    caller performs is identical no matter which items were cached, pooled
    or re-run serially.
    """
    results: List[Optional[Dict]] = [None] * len(payloads)
    missing: List[int] = []
    if cache is not None and keys is not None:
        for index in range(len(payloads)):
            value = cache.get(stage, keys[index])
            if value is not None:
                output = dict(value)
                output["cached"] = True
                results[index] = output
            else:
                missing.append(index)
    else:
        missing = list(range(len(payloads)))
    if missing:
        miss_payloads = [payloads[index] for index in missing]
        if jobs > 1 or executor is not None:
            with _pool(jobs, executor) as pool:
                outputs = run_tasks(worker, miss_payloads, pool,
                                    policy=policy)
        else:
            outputs = [worker(payload) for payload in miss_payloads]
        for index, output in zip(missing, outputs):
            results[index] = output
            if cache is not None and keys is not None:
                cache.put(stage, keys[index], _cacheable(output))
    return results


# ---------------------------------------------------------------------------
# stage 1/2: detector fan-out across seeds


def _detect_worker(payload: Dict) -> Dict:
    """Run one detector seed; return reports, stats and spans as payloads.

    Every run also reports its interleaving coverage
    (:class:`repro.runtime.coverage.SeedCoverage` payload) — the signal
    the exploration driver budgets on; collecting it never perturbs the
    schedule.  ``payload["scheduler"]`` optionally overrides the front
    end's schedule family at ``payload["depth"]`` (the explore driver's
    escalation); ``payload["tape"]`` asks for the seed's sealed
    :class:`repro.runtime.tape.EventTape`.
    """
    module = _resolve_module(payload["source"])
    tracer = SpanTracer()
    run = run_seed(
        module, payload["seed"], kind=payload["kind"],
        entry=payload["entry"], inputs=payload["inputs"],
        annotations=annotations_from_payload(module, payload["annotations"]),
        max_steps=payload["max_steps"], scheduler=payload["scheduler"],
        depth=payload["depth"], entry_args=payload["entry_args"],
        tracer=tracer, coverage=True, profile=payload.get("profile"),
        tape=payload.get("tape", False),
    )
    output = {
        "seed": run.seed,
        "reports": reports_to_payloads(run.reports),
        "stats": (run.seed, run.result.reason, run.result.steps,
                  run.accesses, len(run.reports), run.wall_seconds),
        "coverage": run.coverage.to_payload(),
        "spans": tracer.export_payload(),
    }
    if run.profile is not None:
        output["profile"] = run.profile.to_payload()
    if run.tape is not None:
        output["tape"] = run.tape
    return output


def _detect_payload(kind: str, source, seed: int, entry: str, inputs,
                    annotations_payload, max_steps: int, depth: int,
                    entry_args: Sequence[int],
                    scheduler: Optional[str] = None,
                    profile: Optional[int] = None,
                    tape: bool = False) -> Dict:
    payload = {
        "kind": kind,
        "source": source,
        "seed": seed,
        "entry": entry,
        "inputs": inputs,
        "annotations": annotations_payload,
        "max_steps": max_steps,
        "depth": depth,
        "entry_args": tuple(entry_args),
        "scheduler": scheduler,
    }
    if profile:
        # Part of the cache key on purpose: a profiled run's output
        # carries the sample aggregate, so it must not be answered from
        # (or overwrite) an unprofiled seed's entry.
        payload["profile"] = int(profile)
    if tape:
        payload["tape"] = True
    return payload


def _item_key(cache, module: Module, payload: Dict) -> str:
    """Cache key of one seed's ``detect`` entry.

    Every payload field but the module source (the module digest already
    keys the build) and the tape request (tapes are never cached) keys it.
    """
    parts = {key: value for key, value in payload.items()
             if key not in ("source", "tape")}
    return cache.key("detect", module=module, **parts)


def run_seeds_parallel(
    kind: str,
    module: Module,
    module_source,
    entry: str = "main",
    inputs: Optional[Dict] = None,
    seeds: Sequence[int] = range(10),
    annotations: Optional[AnnotationSet] = None,
    max_steps: int = 200_000,
    entry_args: Sequence[int] = (),
    depth: int = 3,
    jobs: int = 2,
    executor: Optional[ProcessPoolExecutor] = None,
    tracer: Optional[SpanTracer] = None,
    cache=None,
    policy: Optional[BatchPolicy] = None,
    scheduler: Optional[str] = None,
    coverage: bool = False,
    profile: Optional[int] = None,
    feed=None,
    tape: bool = False,
) -> Tuple[ReportSet, List[RunStats]]:
    """Fan one program's seeds out over worker processes.

    ``module_source`` is either a registry spec name (str) or a picklable
    zero-argument module factory; ``module`` is the parent's copy, against
    which the merged reports are rehydrated.  The merge happens in seed
    order regardless of completion order, so the returned reports and
    per-seed :class:`RunStats` are identical to the serial sweep's
    (:func:`repro.detectors.tsan.run_seeds`) — and so is the span tree
    adopted into ``tracer``.

    With a ``cache`` (:class:`repro.owl.cache.ResultCache`), seeds whose
    results are already on disk are not re-executed — including at
    ``jobs=1``, where misses run in-process; ``policy`` adds per-item
    timeout/retry fault tolerance to the pooled path.

    ``scheduler`` overrides the front end's schedule family per seed (part
    of every cache key, so escalated re-runs of a seed never collide with
    its base-family entry).  Every worker output carries the seed's
    coverage; ``coverage=True`` decodes it into each ``RunStats`` as a
    :class:`repro.runtime.coverage.SeedCoverage` — the deterministic,
    seed-ordered merge input the exploration driver's budgeting (and its
    jobs=1 vs jobs=2 parity) relies on.

    ``profile``, a sampling stride, puts a
    :class:`repro.runtime.profiler.SeedProfile` on each ``RunStats``;
    profiles are part of the worker output and the cache entry, so warm
    profiled runs return the same samples the cold run took.  ``feed``,
    when given an :class:`repro.owl.stream.EventFeed`, receives one
    ``seed_done`` event per seed at merge time — in seed order, with the
    cache disposition.  ``tape`` has every executed seed return its event
    tape on its ``RunStats``; cache hits have none.
    """
    seeds = list(seeds)
    annotations_payload = annotations_to_payload(annotations)
    payloads = [
        _detect_payload(kind, module_source, seed, entry, inputs,
                        annotations_payload, max_steps, depth, entry_args,
                        scheduler=scheduler, profile=profile, tape=tape)
        for seed in seeds
    ]
    keys = (
        [_item_key(cache, module, payload) for payload in payloads]
        if cache is not None else None
    )
    outputs = run_cached_tasks(
        _detect_worker, payloads, cache=cache, stage="detect", keys=keys,
        jobs=jobs, executor=executor, policy=policy,
    )
    merged = ReportSet()
    stats: List[RunStats] = []
    for seed, output in zip(seeds, outputs):  # seed order, always
        merged.merge(reports_from_payloads(module, output["reports"]))
        stat = RunStats(*output["stats"])
        if coverage:
            from repro.runtime.coverage import SeedCoverage

            stat.coverage = SeedCoverage.from_payload(output["coverage"])
        if profile:
            from repro.runtime.profiler import SeedProfile

            stat.profile = SeedProfile.from_payload(output["profile"])
        stat.tape = output.get("tape")
        stats.append(stat)
        if feed is not None:
            feed.seed_done(stage="detect", seed=seed, detector=kind,
                           steps=output["stats"][2],
                           reports=output["stats"][4],
                           cached=bool(output.get("cached")))
        if tracer is not None:
            if output.get("cached"):
                with tracer.span("detect_seed", seed=seed, detector=kind,
                                 cached=True, reports=output["stats"][4]):
                    pass
            else:
                tracer.adopt(output["spans"])
    return merged, stats


def run_detector_batch(
    spec: ProgramSpec,
    annotations: Optional[AnnotationSet] = None,
    jobs: int = 1,
    executor: Optional[ProcessPoolExecutor] = None,
    tracer: Optional[SpanTracer] = None,
    cache=None,
    policy: Optional[BatchPolicy] = None,
    coverage: bool = False,
    profile: Optional[int] = None,
    feed=None,
    tape: bool = False,
) -> Tuple[ReportSet, List[RunStats]]:
    """The spec's front-end detector over its seeds, via the worker path.

    Workers rebuild the module by spec name, so the spec must be
    resolvable through the registry (:func:`can_parallelize`);
    :func:`repro.owl.integration.run_detector` routes anything else to the
    serial sweep.
    """
    return run_seeds_parallel(
        spec.detector, spec.build(), spec.name, entry=spec.entry,
        inputs=spec.workload_inputs, seeds=spec.detect_seeds,
        annotations=annotations, max_steps=spec.max_steps, jobs=jobs,
        executor=executor, tracer=tracer, cache=cache, policy=policy,
        coverage=coverage, profile=profile, feed=feed, tape=tape,
    )


# ---------------------------------------------------------------------------
# stage 3: per-report race verification


def _race_verify_worker(payload: Dict) -> Dict:
    spec = _cached_spec(payload["spec"])
    module = spec.build()
    report = report_from_payload(module, payload["report"])
    inputs = payload["inputs"]
    max_steps = payload["max_steps"]
    tracer = SpanTracer()
    verifier = DynamicRaceVerifier(
        module, entry=payload["entry"], inputs=inputs,
        seeds=payload["seeds"], max_steps=max_steps,
        vm_factory=lambda seed: spec.make_vm(
            seed, inputs=inputs, max_steps=max_steps,
        ),
        tracer=tracer,
    )
    verification = verifier.verify(report)
    hints = verification.hints
    return {
        "index": payload["index"],
        "verified": verification.verified,
        "runs_used": verification.runs_used,
        "livelocks_resolved": verification.livelocks_resolved,
        "steps": verification.steps,
        "spans": tracer.export_payload(),
        "hints": None if hints is None else {
            "variable": hints.variable,
            "value_type": hints.value_type,
            "read_value": hints.read_value,
            "write_value": hints.write_value,
            "null_write": hints.null_write,
            "address": hints.address,
        },
    }


def verify_races_batch(
    spec: ProgramSpec,
    reports: Sequence[RaceReport],
    jobs: int = 1,
    executor: Optional[ProcessPoolExecutor] = None,
    tracer: Optional[SpanTracer] = None,
    cache=None,
    policy: Optional[BatchPolicy] = None,
    feed=None,
) -> List[RaceVerification]:
    """Verify each report in its own worker; results keep report order.

    ``feed``, when given an :class:`repro.owl.stream.EventFeed`, receives
    one ``item_done`` event per report in report order (batch path only).
    """
    reports = list(reports)
    if not reports:
        return []
    if not can_parallelize(spec):
        cache = None
    if ((jobs <= 1 and executor is None) and cache is None) \
            or not can_parallelize(spec):
        verifier = DynamicRaceVerifier(
            spec.build(), entry=spec.entry, inputs=spec.workload_inputs,
            seeds=spec.verify_seeds, max_steps=spec.max_steps,
            vm_factory=lambda seed: spec.make_vm(seed),
            tracer=tracer,
        )
        return verifier.verify_all(reports)
    payloads = [
        {
            "spec": spec.name,
            "entry": spec.entry,
            "inputs": spec.workload_inputs,
            "seeds": list(spec.verify_seeds),
            "max_steps": spec.max_steps,
            "index": index,
            "report": report_to_payload(report),
        }
        for index, report in enumerate(reports)
    ]
    keys = None
    if cache is not None:
        module = spec.build()
        keys = [
            cache.key("race_verify", module=module, **{
                key: value for key, value in payload.items()
                if key != "index"
            })
            for payload in payloads
        ]
    outputs = run_cached_tasks(
        _race_verify_worker, payloads, cache=cache, stage="race_verify",
        keys=keys, jobs=jobs, executor=executor, policy=policy,
    )
    outcomes: List[RaceVerification] = []
    for index, output in enumerate(outputs):  # report order, always
        report = reports[index]
        hints = (
            SecurityHints(**output["hints"])
            if output["hints"] is not None else None
        )
        if output["verified"]:
            report.tags[DynamicRaceVerifier.TAG] = hints
        outcomes.append(RaceVerification(
            report, output["verified"], hints, output["runs_used"],
            output["livelocks_resolved"],
            0 if output.get("cached") else output["steps"],
        ))
        if feed is not None:
            feed.item_done(stage="race_verification", index=index,
                           item=report.uid, verified=output["verified"],
                           cached=bool(output.get("cached")))
        if tracer is not None:
            if output.get("cached"):
                with tracer.span("verify_report", report=report.uid,
                                 cached=True, verified=output["verified"]):
                    pass
            elif output["spans"]:
                tracer.adopt(output["spans"])
    return outcomes


# ---------------------------------------------------------------------------
# stage 5: per-vulnerability verification


def _vuln_verify_worker(payload: Dict) -> Dict:
    spec = _cached_spec(payload["spec"])
    module = spec.build()
    vulnerability = vuln_from_payload(module, payload["vuln"])
    ground_truth = spec.attack_for_site(vulnerability.site.location)
    inputs = (
        ground_truth.subtle_inputs if ground_truth is not None
        else payload["inputs"]
    )
    tracer = SpanTracer()
    verifier = DynamicVulnerabilityVerifier(
        module, entry=payload["entry"], inputs=inputs,
        seeds=payload["seeds"], max_steps=payload["max_steps"],
        vm_factory=lambda seed, _inputs=inputs: spec.make_vm(
            seed, inputs=_inputs,
        ),
        attack_predicate=(
            ground_truth.predicate if ground_truth is not None else None
        ),
        racing_order=(
            (ground_truth.racing_order, "") if ground_truth is not None
            else None
        ),
        tracer=tracer,
    )
    verification = verifier.verify(vulnerability)
    return {
        "index": payload["index"],
        "site_reached": verification.site_reached,
        "attack_realized": verification.attack_realized,
        "diverged": [branch.uid or 0 for branch in verification.diverged_branches],
        "faults": [kind.value for kind in verification.fault_kinds],
        "runs_used": verification.runs_used,
        "steps": verification.steps,
        "spans": tracer.export_payload(),
    }


def verify_vulns_batch(
    spec: ProgramSpec,
    vulnerabilities: Sequence,
    jobs: int = 1,
    executor: Optional[ProcessPoolExecutor] = None,
    tracer: Optional[SpanTracer] = None,
    cache=None,
    policy: Optional[BatchPolicy] = None,
    feed=None,
) -> List[Tuple[VulnVerification, Optional[AttackGroundTruth]]]:
    """Verify each vulnerability in its own worker; results keep input order.

    Ground truth is matched *inside* the worker (by site location against
    the registry spec's attacks — deterministic), so subtle inputs, racing
    order and attack predicates never cross the process boundary; the
    parent re-matches against its own spec for the returned pairing.
    """
    vulnerabilities = list(vulnerabilities)
    if not vulnerabilities:
        return []
    if not can_parallelize(spec):
        cache = None
    if ((jobs <= 1 and executor is None) and cache is None) \
            or not can_parallelize(spec):
        return [
            _verify_vuln_serial(spec, vulnerability, tracer=tracer)
            for vulnerability in vulnerabilities
        ]
    module = spec.build()
    payloads = [
        {
            "spec": spec.name,
            "entry": spec.entry,
            "inputs": spec.workload_inputs,
            "seeds": list(spec.verify_seeds),
            "max_steps": spec.max_steps,
            "index": index,
            "vuln": vuln_to_payload(vulnerability),
        }
        for index, vulnerability in enumerate(vulnerabilities)
    ]
    keys = None
    if cache is not None:
        keys = [
            cache.key("vuln_verify", module=module, **{
                key: value for key, value in payload.items()
                if key != "index"
            })
            for payload in payloads
        ]
    outputs = run_cached_tasks(
        _vuln_verify_worker, payloads, cache=cache, stage="vuln_verify",
        keys=keys, jobs=jobs, executor=executor, policy=policy,
    )
    outcomes: List[Tuple[VulnVerification, Optional[AttackGroundTruth]]] = []
    for index, output in enumerate(outputs):  # vulnerability order, always
        vulnerability = vulnerabilities[index]
        ground_truth = spec.attack_for_site(vulnerability.site.location)
        verification = VulnVerification(
            vulnerability,
            output["site_reached"],
            output["attack_realized"],
            [module.instruction_by_uid(uid) for uid in output["diverged"]],
            [FaultKind(value) for value in output["faults"]],
            output["runs_used"],
            0 if output.get("cached") else output["steps"],
        )
        outcomes.append((verification, ground_truth))
        if feed is not None:
            feed.item_done(stage="vulnerability_verification", index=index,
                           item=str(vulnerability.site.location),
                           realized=output["attack_realized"],
                           cached=bool(output.get("cached")))
        if tracer is not None:
            if output.get("cached"):
                with tracer.span(
                    "verify_vulnerability",
                    site=str(vulnerability.site.location),
                    cached=True, realized=output["attack_realized"],
                ):
                    pass
            elif output["spans"]:
                tracer.adopt(output["spans"])
    return outcomes


def _verify_vuln_serial(
    spec: ProgramSpec, vulnerability, tracer: Optional[SpanTracer] = None,
) -> Tuple[VulnVerification, Optional[AttackGroundTruth]]:
    """One vulnerability through the serial path (mirrors the worker)."""
    ground_truth = spec.attack_for_site(vulnerability.site.location)
    inputs = (
        ground_truth.subtle_inputs if ground_truth is not None
        else spec.workload_inputs
    )
    verifier = DynamicVulnerabilityVerifier(
        spec.build(), entry=spec.entry, inputs=inputs,
        seeds=spec.verify_seeds, max_steps=spec.max_steps,
        vm_factory=lambda seed, _inputs=inputs: spec.make_vm(
            seed, inputs=_inputs,
        ),
        attack_predicate=(
            ground_truth.predicate if ground_truth is not None else None
        ),
        racing_order=(
            (ground_truth.racing_order, "") if ground_truth is not None
            else None
        ),
        tracer=tracer,
    )
    return verifier.verify(vulnerability), ground_truth
