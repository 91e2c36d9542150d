"""The differential-execution oracle guarding the VM hot path.

The interpreter's hot path is optimized (per-class dispatch table, memoized
call-stack snapshots, lazy memoized access descriptions, repeated-address
block lookup caching — see :mod:`repro.runtime.interpreter`), and a perf
rewrite is only safe if execution semantics are provably unchanged.  This
module provides the proof obligation: it executes the same program twice —
once with every optimization disabled (``reference``) and once as shipped
(``optimized``) — and asserts that the two executions are *bit-identical*
in everything the rest of OWL can observe:

- the full trace-event stream (access events with thread/step/address/size/
  value/atomicity/call stack/variable description, sync, thread lifecycle,
  alloc/free and external-call events),
- the fault list (including :attr:`Memory.recorded_faults`),
- the execution result (reason, step count, exit code),
- the race-report sets a detector derives from the trace,
- the pipeline's Table-3 counters (``StageCounters.parity_dict()``),
- the pipeline's annotated report set in full — both racing records and
  every subsequent read — which the optimized leg derives by replaying
  the detect sweep's event tapes and the reference leg by executing the
  program again (:mod:`repro.runtime.tape`), and
- the per-report outcomes of both debugger-driven verification stages.

The report-set and counter checks run the spec's own detector sweep, so on
a PCT spec (the SKI kernel) the optimized leg executes fused
superinstructions (:mod:`repro.runtime.fuse`) while the reference leg
never does.

Both configurations share seeds and schedulers, so any semantic drift in an
optimization shows up as a first-divergence record rather than a silently
different race report three stages later.  ``tools/diff_oracle.py`` drives
this over all registered apps and a seed sweep, and records the reference
vs optimized steps/s in the metrics JSON (schema 4's ``diff_oracle`` block).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.events import (
    AccessEvent,
    AllocEvent,
    ExternalCallEvent,
    FreeEvent,
    SyncEvent,
    ThreadLifecycleEvent,
    TraceObserver,
)
from repro.runtime.interpreter import VM, reference_execution
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.tape import FullEventTape


class _Normalizer(TraceObserver):
    """Turns replayed trace events into comparable tuples."""

    def __init__(self):
        self.records: List[Tuple] = []

    def on_access(self, event: AccessEvent) -> None:
        self.records.append((
            "access", event.thread_id, event.step, event.address, event.size,
            bool(event.is_write), event.value, bool(event.is_atomic),
            event.call_stack, event.variable,
        ))

    def on_sync(self, event: SyncEvent) -> None:
        self.records.append((
            "sync", event.thread_id, event.step, event.kind, event.address,
        ))

    def on_thread(self, event: ThreadLifecycleEvent) -> None:
        self.records.append((
            "thread", event.thread_id, event.step, event.kind,
            event.other_thread_id,
        ))

    def on_alloc(self, event: AllocEvent) -> None:
        self.records.append((
            "alloc", event.thread_id, event.step, event.address, event.size,
        ))

    def on_free(self, event: FreeEvent) -> None:
        self.records.append((
            "free", event.thread_id, event.step, event.address,
        ))

    def on_external_call(self, event: ExternalCallEvent) -> None:
        self.records.append((
            "external", event.thread_id, event.step, event.name,
            event.arguments, event.call_stack,
        ))


class TraceRecorder(FullEventTape):
    """Records every trace event on a tape; :attr:`records` decodes it.

    The records are normalized tuples carrying only plain values (ints,
    strings, nested tuples), so two recorders can be compared field by
    field regardless of which VM, module instance or memory produced them.
    """

    @property
    def records(self) -> List[Tuple]:
        normalizer = _Normalizer()
        self.replay(normalizer)
        return normalizer.records


def _normalize_fault(fault) -> Tuple:
    return (
        fault.kind.value, fault.thread_id, fault.address, fault.step,
        fault.message, tuple(fault.call_stack),
    )


class ExecutionFingerprint:
    """Everything observable about one execution, in comparable form."""

    #: field comparison order; the first differing field is reported
    FIELDS = ("events", "faults", "recorded_faults", "reason", "exit_code",
              "steps")

    def __init__(self, program: str, seed: int, mode: str,
                 events: List[Tuple], faults: List[Tuple],
                 recorded_faults: List[Tuple], reason: str, steps: int,
                 exit_code: Optional[int], wall_seconds: float):
        self.program = program
        self.seed = seed
        self.mode = mode
        self.events = events
        self.faults = faults
        self.recorded_faults = recorded_faults
        self.reason = reason
        self.steps = steps
        self.exit_code = exit_code
        self.wall_seconds = wall_seconds

    def __repr__(self) -> str:
        return "<ExecutionFingerprint %s seed=%d %s %d events %d steps>" % (
            self.program, self.seed, self.mode, len(self.events), self.steps,
        )


class Divergence:
    """The first observable difference between two executions."""

    def __init__(self, program: str, seed: Optional[int], field: str,
                 index: Optional[int], reference, optimized):
        self.program = program
        self.seed = seed
        self.field = field
        self.index = index
        self.reference = reference
        self.optimized = optimized

    def describe(self) -> str:
        where = self.field if self.index is None else \
            "%s[%d]" % (self.field, self.index)
        return "%s seed=%s diverged at %s:\n  reference: %r\n  optimized: %r" % (
            self.program, self.seed, where, self.reference, self.optimized,
        )

    def __repr__(self) -> str:
        return "<Divergence %s seed=%s %s>" % (
            self.program, self.seed, self.field,
        )


def _first_list_divergence(program, seed, field, ref: List, opt: List
                           ) -> Optional[Divergence]:
    for index, (a, b) in enumerate(zip(ref, opt)):
        if a != b:
            return Divergence(program, seed, field, index, a, b)
    if len(ref) != len(opt):
        index = min(len(ref), len(opt))
        longer = ref if len(ref) > len(opt) else opt
        missing = "<absent: %d vs %d records>" % (len(ref), len(opt))
        if longer is ref:
            return Divergence(program, seed, field, index, longer[index], missing)
        return Divergence(program, seed, field, index, missing, longer[index])
    return None


def compare_fingerprints(reference: ExecutionFingerprint,
                         optimized: ExecutionFingerprint
                         ) -> Optional[Divergence]:
    """First divergence between a reference and an optimized execution."""
    program, seed = reference.program, reference.seed
    for field in ExecutionFingerprint.FIELDS:
        ref_value = getattr(reference, field)
        opt_value = getattr(optimized, field)
        if isinstance(ref_value, list):
            divergence = _first_list_divergence(
                program, seed, field, ref_value, opt_value)
            if divergence is not None:
                return divergence
        elif ref_value != opt_value:
            return Divergence(program, seed, field, None, ref_value, opt_value)
    return None


def fingerprint_run(spec, seed: int, reference: bool,
                    max_steps: Optional[int] = None) -> ExecutionFingerprint:
    """Execute ``spec`` once under ``RandomScheduler(seed)`` and record it."""
    vm = VM(
        spec.build(),
        scheduler=RandomScheduler(seed),
        world=spec.initial_world() if spec.initial_world is not None else None,
        inputs=spec.workload_inputs,
        max_steps=max_steps or spec.max_steps,
        seed=seed,
        reference=reference,
    )
    recorder = TraceRecorder()
    vm.add_observer(recorder)
    started = time.perf_counter()
    vm.start(spec.entry)
    result = vm.run()
    wall = time.perf_counter() - started
    return ExecutionFingerprint(
        program=spec.name,
        seed=seed,
        mode="reference" if reference else "optimized",
        events=recorder.records,
        faults=[_normalize_fault(fault) for fault in vm.faults],
        recorded_faults=[_normalize_fault(fault)
                         for fault in vm.memory.recorded_faults],
        reason=result.reason,
        steps=result.steps,
        exit_code=result.exit_code,
        wall_seconds=wall,
    )


def diff_seed(spec, seed: int,
              max_steps: Optional[int] = None
              ) -> Tuple[Optional[Divergence], ExecutionFingerprint,
                         ExecutionFingerprint]:
    """Compare one seed's reference and optimized executions."""
    reference = fingerprint_run(spec, seed, reference=True,
                                max_steps=max_steps)
    optimized = fingerprint_run(spec, seed, reference=False,
                                max_steps=max_steps)
    return compare_fingerprints(reference, optimized), reference, optimized


class ProgramDiff:
    """Oracle outcome for one program over a seed sweep."""

    def __init__(self, program: str, seeds: Sequence[int]):
        self.program = program
        self.seeds = list(seeds)
        self.divergences: List[Divergence] = []
        self.reference_steps = 0
        self.reference_seconds = 0.0
        self.optimized_steps = 0
        self.optimized_seconds = 0.0
        #: sorted race-report static keys per mode (diff_reports)
        self.reference_report_keys: Optional[List[Tuple[int, int]]] = None
        self.optimized_report_keys: Optional[List[Tuple[int, int]]] = None
        #: StageCounters.parity_dict() per mode (diff_counters)
        self.reference_counters: Optional[Dict] = None
        self.optimized_counters: Optional[Dict] = None
        #: verification_outcomes() per mode (diff_counters)
        self.reference_verifications: Optional[Dict] = None
        self.optimized_verifications: Optional[Dict] = None
        #: report_fingerprints() of the annotated reports (diff_counters)
        self.reference_annotated: Optional[List[Tuple]] = None
        self.optimized_annotated: Optional[List[Tuple]] = None

    @property
    def identical(self) -> bool:
        return (
            not self.divergences
            and self.reference_report_keys == self.optimized_report_keys
            and self.reference_counters == self.optimized_counters
            and self.reference_verifications == self.optimized_verifications
            and self.reference_annotated == self.optimized_annotated
        )

    @property
    def reference_steps_per_second(self) -> float:
        if self.reference_seconds <= 0.0:
            return 0.0
        return self.reference_steps / self.reference_seconds

    @property
    def optimized_steps_per_second(self) -> float:
        if self.optimized_seconds <= 0.0:
            return 0.0
        return self.optimized_steps / self.optimized_seconds

    @property
    def speedup(self) -> float:
        if self.reference_steps_per_second <= 0.0:
            return 0.0
        return self.optimized_steps_per_second / self.reference_steps_per_second

    def as_dict(self) -> Dict:
        return {
            "program": self.program,
            "seeds": len(self.seeds),
            "divergences": len(self.divergences),
            "reference_steps_per_second":
                round(self.reference_steps_per_second, 1),
            "optimized_steps_per_second":
                round(self.optimized_steps_per_second, 1),
            "speedup": round(self.speedup, 3),
            "report_sets_identical":
                self.reference_report_keys == self.optimized_report_keys,
            "counters_identical":
                self.reference_counters == self.optimized_counters,
            "verifications_identical":
                self.reference_verifications == self.optimized_verifications,
            "annotated_reports_identical":
                self.reference_annotated == self.optimized_annotated,
        }

    def __repr__(self) -> str:
        return "<ProgramDiff %s seeds=%d divergences=%d speedup=%.2fx>" % (
            self.program, len(self.seeds), len(self.divergences), self.speedup,
        )


def diff_program(spec, seeds: Sequence[int] = range(10),
                 max_steps: Optional[int] = None,
                 stop_on_divergence: bool = False) -> ProgramDiff:
    """Run the event-stream oracle for one program over a seed sweep."""
    diff = ProgramDiff(spec.name, seeds)
    for seed in diff.seeds:
        divergence, reference, optimized = diff_seed(
            spec, seed, max_steps=max_steps)
        diff.reference_steps += reference.steps
        diff.reference_seconds += reference.wall_seconds
        diff.optimized_steps += optimized.steps
        diff.optimized_seconds += optimized.wall_seconds
        if divergence is not None:
            diff.divergences.append(divergence)
            if stop_on_divergence:
                break
    return diff


def _report_keys(reports) -> List[Tuple[int, int]]:
    return sorted(report.static_key for report in reports)


def diff_reports(spec, diff: Optional[ProgramDiff] = None) -> ProgramDiff:
    """Compare the race-report sets the spec's detector derives per mode."""
    from repro.owl.integration import run_detector

    if diff is None:
        diff = ProgramDiff(spec.name, spec.detect_seeds)
    with reference_execution():
        reference_reports, _ = run_detector(spec)
    optimized_reports, _ = run_detector(spec)
    diff.reference_report_keys = _report_keys(reference_reports)
    diff.optimized_report_keys = _report_keys(optimized_reports)
    if diff.reference_report_keys != diff.optimized_report_keys:
        diff.divergences.append(Divergence(
            spec.name, None, "report_set", None,
            diff.reference_report_keys, diff.optimized_report_keys,
        ))
    return diff


def report_fingerprints(reports) -> List[Tuple]:
    """A report set in full, comparable form: per report (static-key
    order) its key, variable, detector, both racing records and every
    subsequent read the watch list captured."""
    from repro.owl.batch import access_to_payload

    return sorted(
        (report.static_key, report.variable, report.detector,
         access_to_payload(report.first), access_to_payload(report.second),
         tuple(access_to_payload(read) for read in report.subsequent_reads))
        for report in reports
    )


def verification_outcomes(result) -> Dict[str, List[Tuple]]:
    """Per-report verdicts of a pipeline run's two verification stages.

    ``race``: one ``(uid, verified, runs_used, livelocks_resolved, hints)``
    per race report; ``vulnerability``: one ``(site, site_reached,
    attack_realized, runs_used, fault kinds)`` per vulnerability.  Both
    stages drive the VM through the debugger, so these pin the breakpoint,
    halt and resume path that the report sets and counters only summarize.
    """
    return {
        "race": [
            (verification.report.uid, verification.verified,
             verification.runs_used, verification.livelocks_resolved,
             verification.hints.describe()
             if verification.hints is not None else None)
            for verification in result.verifications
        ],
        "vulnerability": [
            (str(attack.vulnerability.site.location),
             attack.verification.site_reached,
             attack.verification.attack_realized,
             attack.verification.runs_used,
             tuple(kind.value for kind in attack.verification.fault_kinds))
            for attack in result.attacks
        ],
    }


def diff_counters(spec, diff: Optional[ProgramDiff] = None) -> ProgramDiff:
    """Compare ``StageCounters.parity_dict()``, the annotated report set
    (:func:`report_fingerprints`) and the verification outcomes
    (:func:`verification_outcomes`) of a full pipeline run."""
    from repro.owl.pipeline import OwlPipeline

    if diff is None:
        diff = ProgramDiff(spec.name, spec.detect_seeds)
    with reference_execution():
        reference_result = OwlPipeline(spec).run()
    optimized_result = OwlPipeline(spec).run()
    diff.reference_counters = reference_result.counters.parity_dict()
    diff.optimized_counters = optimized_result.counters.parity_dict()
    if diff.reference_counters != diff.optimized_counters:
        diff.divergences.append(Divergence(
            spec.name, None, "stage_counters", None,
            diff.reference_counters, diff.optimized_counters,
        ))
    diff.reference_annotated = report_fingerprints(
        reference_result.annotated_reports)
    diff.optimized_annotated = report_fingerprints(
        optimized_result.annotated_reports)
    divergence = _first_list_divergence(
        spec.name, None, "annotated_reports", diff.reference_annotated,
        diff.optimized_annotated)
    if divergence is not None:
        diff.divergences.append(divergence)
    diff.reference_verifications = verification_outcomes(reference_result)
    diff.optimized_verifications = verification_outcomes(optimized_result)
    for stage in ("race", "vulnerability"):
        divergence = _first_list_divergence(
            spec.name, None, "%s_verifications" % stage,
            diff.reference_verifications[stage],
            diff.optimized_verifications[stage])
        if divergence is not None:
            diff.divergences.append(divergence)
    return diff
