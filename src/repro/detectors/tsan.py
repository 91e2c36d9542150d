"""A happens-before data race detector in the spirit of ThreadSanitizer.

The detector attaches to the VM as a trace observer and maintains FastTrack-
style shadow state: per-thread vector clocks, per-sync-object clocks, and per
byte of shared memory the last-write epoch plus the read epochs since.  Two
accesses race when they touch the same byte, at least one writes, and neither
happens-before the other.

Reports carry both call stacks.  A corrupted-address *watch list* implements
the paper's section 6.3 detector modification: once a race is found on an
address, every subsequent read of it is recorded (with its call stack) into
the report, and a write "sanitizes" the address.  This gives Algorithm 1 a
racy *load* to start from even for write-write races.

OWL's adhoc-sync annotations (section 5.1) are honoured exactly like TSan
markups: an annotated flag write acts as a release, the annotated read as an
acquire, and the annotated pair itself is not reported.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.detectors.annotations import AnnotationSet
from repro.detectors.report import AccessRecord, RaceReport, ReportSet
from repro.detectors.vectorclock import VectorClock
from repro.ir.module import Module
from repro.runtime.events import (
    AccessEvent,
    SyncEvent,
    ThreadLifecycleEvent,
    TraceObserver,
)
from repro.runtime.interpreter import VM, ExecutionResult
from repro.runtime.metrics import RunStats
from repro.runtime.scheduler import PCTScheduler, RandomScheduler, Scheduler


class _ByteShadow:
    """Shadow state for one byte of shared memory."""

    __slots__ = ("last_write", "reads")

    def __init__(self):
        # (thread_id, clock, AccessRecord) of the most recent write.
        self.last_write: Optional[Tuple[int, int, AccessRecord]] = None
        # (thread_id, instruction uid) -> (clock, AccessRecord) for reads
        # since the last write.  Keyed per instruction, not just per thread,
        # so one write racing with several distinct racy loads yields one
        # report per static pair (the Figure 6 store races with both the
        # line-359 check and the line-346 use).
        self.reads: Dict[Tuple[int, int], Tuple[int, AccessRecord]] = {}


class TSanDetector(TraceObserver):
    """The happens-before engine; one instance per VM execution."""

    name = "tsan"

    def __init__(self, annotations: Optional[AnnotationSet] = None,
                 reports: Optional[ReportSet] = None):
        self.annotations = annotations or AnnotationSet()
        self.reports = reports if reports is not None else ReportSet()
        self._thread_clocks: Dict[int, VectorClock] = {}
        self._sync_clocks: Dict[int, VectorClock] = {}
        self._final_clocks: Dict[int, VectorClock] = {}
        self._shadow: Dict[int, _ByteShadow] = {}
        #: watched corrupted byte spans [lo, hi) -> reports collecting stacks
        self._watches: Dict[Tuple[int, int], List[RaceReport]] = {}
        #: unordered annotated (read, write) instruction-uid pairs, computed
        #: once so the per-byte race check is a set probe rather than a scan
        #: over every annotation
        self._annotated_pairs: Set[Tuple[int, int]] = {
            self._pair_key(annotation.read_instruction.uid or 0,
                           annotation.write_instruction.uid or 0)
            for annotation in self.annotations
        }
        self.access_count = 0

    @staticmethod
    def _pair_key(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    # ------------------------------------------------------------------
    # clock helpers

    def _clock_of(self, thread_id: int) -> VectorClock:
        clock = self._thread_clocks.get(thread_id)
        if clock is None:
            clock = VectorClock({thread_id: 1})
            self._thread_clocks[thread_id] = clock
        return clock

    # ------------------------------------------------------------------
    # observer hooks

    def on_thread(self, event: ThreadLifecycleEvent) -> None:
        if event.kind == ThreadLifecycleEvent.CREATE:
            parent = self._clock_of(event.thread_id)
            child = self._clock_of(event.other_thread_id)
            child.join(parent)
            parent.tick(event.thread_id)
        elif event.kind == ThreadLifecycleEvent.EXIT:
            self._final_clocks[event.thread_id] = self._clock_of(event.thread_id).copy()
        elif event.kind == ThreadLifecycleEvent.JOIN:
            final = self._final_clocks.get(event.other_thread_id)
            if final is not None:
                self._clock_of(event.thread_id).join(final)

    def on_sync(self, event: SyncEvent) -> None:
        clock = self._clock_of(event.thread_id)
        if event.kind == SyncEvent.ACQUIRE:
            published = self._sync_clocks.get(event.address)
            if published is not None:
                clock.join(published)
        else:  # release
            clock.tick(event.thread_id)
            self._sync_clocks[event.address] = clock.copy()

    def on_access(self, event: AccessEvent) -> None:
        self.access_count += 1
        annotated_release = event.is_write and self.annotations.is_release(
            event.instruction
        )
        annotated_acquire = (not event.is_write) and self.annotations.is_acquire(
            event.instruction
        )
        if annotated_acquire:
            # Acquire the clock published by the annotated flag write.
            self.on_sync(SyncEvent(
                event.thread_id, event.step, SyncEvent.ACQUIRE, event.address,
            ))
        if event.is_atomic:
            kind = SyncEvent.RELEASE if event.is_write else SyncEvent.ACQUIRE
            self.on_sync(SyncEvent(event.thread_id, event.step, kind, event.address))
            return
        clock = self._clock_of(event.thread_id)
        record = AccessRecord(
            event.instruction, event.thread_id, event.is_write, event.value,
            event.call_stack, event.address, step=event.step, size=event.size,
        )
        own_clock = clock.get(event.thread_id)
        # Service watches before race checking: a racy write that *creates* a
        # watch (below) must not immediately sanitize it, and the racy read
        # that constitutes a report is not also a "subsequent" read.
        self._service_watches(event, record)
        variable = event.variable
        for offset in range(event.size):
            self._check_byte(event.address + offset, record, clock, own_clock,
                             variable)
        if annotated_release:
            # Publish this thread's clock on the flag address (TSan markup).
            self.on_sync(SyncEvent(
                event.thread_id, event.step, SyncEvent.RELEASE, event.address,
            ))

    # ------------------------------------------------------------------
    # race checking

    def _annotated_pair(self, a: AccessRecord, b: AccessRecord) -> bool:
        """Whether both sides belong to the same annotated adhoc sync."""
        if not self._annotated_pairs:
            return False
        return self._pair_key(a.instruction.uid or 0,
                              b.instruction.uid or 0) in self._annotated_pairs

    def _check_byte(self, address: int, record: AccessRecord, clock: VectorClock,
                    own_clock: int, variable: Optional[str]) -> None:
        shadow = self._shadow.get(address)
        if shadow is None:
            shadow = _ByteShadow()
            self._shadow[address] = shadow
        write = shadow.last_write
        if (
            write is not None
            and write[0] != record.thread_id
            and not clock.ordered_with(write[0], write[1])
            and not self._annotated_pair(write[2], record)
        ):
            self._report(write[2], record, variable)
        if record.is_write:
            for (thread_id, _uid), (read_clock, read_record) in shadow.reads.items():
                if (
                    thread_id != record.thread_id
                    and not clock.ordered_with(thread_id, read_clock)
                    and not self._annotated_pair(read_record, record)
                ):
                    self._report(read_record, record, variable)
            shadow.last_write = (record.thread_id, own_clock, record)
            shadow.reads = {}
        else:
            key = (record.thread_id, record.instruction.uid or 0)
            shadow.reads[key] = (own_clock, record)

    def _report(self, prior: AccessRecord, current: AccessRecord,
                variable: Optional[str]) -> None:
        report = RaceReport(prior, current, variable=variable, detector=self.name)
        if self.reports.add(report):
            self._watch(report)
        else:
            # Already known statically: still feed the watch list.
            known = self.reports.get(report.static_key)
            if known is not None:
                self._watch(known)

    # ------------------------------------------------------------------
    # corrupted-address watch list (paper section 6.3)

    def _watch(self, report: RaceReport) -> None:
        first_lo, first_hi = report.first.byte_range
        second_lo, second_hi = report.second.byte_range
        span = (min(first_lo, second_lo), max(first_hi, second_hi))
        watchers = self._watches.setdefault(span, [])
        if report not in watchers:
            watchers.append(report)

    def _service_watches(self, event: AccessEvent, record: AccessRecord) -> None:
        if not self._watches:
            return
        lo = event.address
        hi = event.address + max(1, event.size)
        # Match on byte overlap, not base-address equality: a wide read (or
        # sanitizing write) that covers the watched span at a different base
        # address still touches the corrupted bytes.
        touched = [span for span in self._watches if span[0] < hi and lo < span[1]]
        if not touched:
            return
        if event.is_write:
            # A write sanitizes the corrupted value; stop watching.
            for span in touched:
                del self._watches[span]
            return
        for span in touched:
            for report in self._watches[span]:
                if record.instruction is not report.first.instruction and \
                        record.instruction is not report.second.instruction:
                    report.subsequent_reads.append(record)


def front_end(kind: str):
    """The detector class and default scheduler family of a front end.

    TSan (applications) and SKI (kernels) share one happens-before engine;
    they differ only in the report label and in exploring schedules
    uniformly at random or with PCT.
    """
    if kind == "ski":
        from repro.detectors.ski import SkiDetector

        return SkiDetector, "pct"
    return TSanDetector, "random"


def make_scheduler(family: str, seed: int, depth: int = 3) -> Scheduler:
    """A fresh ``"random"`` or ``"pct"`` (at ``depth``) scheduler."""
    if family == "pct":
        return PCTScheduler(seed=seed, depth=depth)
    return RandomScheduler(seed)


class SeedRun:
    """What one detector execution produced (see :func:`run_seed`).

    ``coverage``, ``log``, ``profile`` and ``tape`` are None unless
    requested.
    """

    __slots__ = ("seed", "reports", "result", "accesses", "wall_seconds",
                 "coverage", "log", "profile", "tape")

    def __init__(self, seed: int, reports: ReportSet, result: ExecutionResult,
                 accesses: int, wall_seconds: float):
        self.seed = seed
        self.reports = reports
        self.result = result
        self.accesses = accesses
        self.wall_seconds = wall_seconds
        self.coverage = None
        self.log = None
        self.profile = None
        self.tape = None

    def stats(self) -> RunStats:
        return RunStats(
            seed=self.seed, reason=self.result.reason,
            steps=self.result.steps, accesses=self.accesses,
            reports=len(self.reports), wall_seconds=self.wall_seconds,
            coverage=self.coverage, profile=self.profile, tape=self.tape,
        )


def run_seed(
    module: Module,
    seed: int,
    kind: str = "tsan",
    entry: str = "main",
    inputs: Optional[Dict] = None,
    annotations: Optional[AnnotationSet] = None,
    max_steps: int = 200_000,
    scheduler: Optional[str] = None,
    depth: int = 3,
    entry_args: Sequence[int] = (),
    tracer=None,
    coverage: bool = False,
    record: bool = False,
    profile: Optional[int] = None,
    fuse=None,
    tape: bool = False,
) -> SeedRun:
    """One program execution under one schedule, into a fresh report set.

    The unit of work of every detector sweep — serial, pooled, cached,
    explored: per-seed report sets merged in seed order are bit-identical
    to one report set shared across all seeds (dedup keeps the first
    static occurrence and appends later watch data either way).  ``kind``
    picks the front end (:func:`front_end`); ``scheduler`` overrides its
    default family (``"random"`` or ``"pct"`` at ``depth``).  ``tracer``
    (a :class:`repro.runtime.spans.SpanTracer`) records the execution as a
    ``detect_seed`` span.

    ``coverage`` attaches a :class:`repro.runtime.coverage.SeedCoverage`
    (racy pair set plus context-switch signature), ``record`` a
    :class:`repro.runtime.record.ScheduleLog`, and ``profile`` a
    :class:`repro.runtime.profiler.SeedProfile` sampled every ``profile``
    scheduler decisions.  Each is a pure-delegation scheduler wrapper,
    installed only when asked for, so the schedule and the reports never
    change.  ``tape`` records the detector's events on a sealed
    :class:`repro.runtime.tape.EventTape` (:func:`replay_tapes` feeds it
    to another detector later); a reference-mode VM records none, since
    the tape is a hot-path shortcut the reference configuration forgoes.
    ``fuse`` (a :class:`repro.runtime.fuse.FuseEngine`, shared
    across a sweep to amortize compiles) is attached when the schedule can
    grant no-preempt windows (PCT without a wrapper); detectors observe
    bit-identical events either way.
    """
    from repro.runtime.spans import maybe_span

    started = time.perf_counter()
    detector_cls, default_family = front_end(kind)
    chosen = make_scheduler(scheduler or default_family, seed, depth)
    recorder = tracker = profiler = None
    if record:
        from repro.runtime.record import ScheduleRecorder

        chosen = recorder = ScheduleRecorder(chosen)
    if coverage:
        from repro.runtime.coverage import SwitchTracker

        chosen = tracker = SwitchTracker(chosen)
    if profile:
        from repro.runtime.profiler import SamplingProfiler

        chosen = profiler = SamplingProfiler(chosen, interval=profile,
                                             observed=True)
    vm = VM(module, scheduler=chosen, inputs=inputs, max_steps=max_steps,
            seed=seed, fuse=fuse)
    detector = detector_cls(annotations=annotations, reports=ReportSet())
    vm.add_observer(detector)
    if recorder is not None:
        vm.add_observer(recorder)
    events = None
    if tape and not vm.reference:
        from repro.runtime.tape import EventTape

        events = EventTape()
        vm.add_observer(events)
    with maybe_span(tracer, "detect_seed", seed=seed,
                    detector=detector_cls.name) as span:
        vm.start(entry, entry_args)
        result = vm.run()
        if span is not None:
            span.attrs.update(steps=result.steps, reason=result.reason,
                              reports=len(detector.reports))
    run = SeedRun(seed, detector.reports, result, detector.access_count,
                  time.perf_counter() - started)
    if tracker is not None:
        from repro.runtime.coverage import SeedCoverage

        run.coverage = SeedCoverage.from_run(seed, detector.reports, tracker)
    if recorder is not None:
        run.log = recorder.to_log(
            module, seed, entry=entry, entry_args=entry_args,
            max_steps=max_steps, result=result,
        )
    if profiler is not None:
        run.profile = profiler.data
    if events is not None:
        run.tape = events.seal()
    return run


def run_seeds(
    kind: str,
    module: Module,
    seeds: Sequence[int],
    entry: str = "main",
    inputs: Optional[Dict] = None,
    annotations: Optional[AnnotationSet] = None,
    max_steps: int = 200_000,
    scheduler: Optional[str] = None,
    depth: int = 3,
    entry_args: Sequence[int] = (),
    tracer=None,
    coverage: bool = False,
    profile: Optional[int] = None,
    feed=None,
    fuse=None,
    tape: bool = False,
) -> Tuple[ReportSet, List[RunStats]]:
    """The serial sweep: :func:`run_seed` per seed, merged in seed order.

    Returns the merged reports and one
    :class:`repro.runtime.metrics.RunStats` per seed — the same contract
    as the pooled :func:`repro.owl.batch.run_seeds_parallel`.
    ``coverage`` and ``profile`` (a sampling stride) are passed to every
    :func:`run_seed`, and each seed's coverage/profile rides on its
    ``RunStats``, and so does each seed's event tape when ``tape`` asks
    for one; ``feed`` (an :class:`repro.owl.stream.EventFeed`)
    receives one ``seed_done`` event per seed.  Every seed shares one
    :class:`repro.runtime.fuse.FuseEngine` (``fuse``, or a fresh one):
    the seeds run the same module, so compiled superinstructions
    amortize.
    """
    if fuse is None:
        from repro.runtime.fuse import FuseEngine

        fuse = FuseEngine()
    reports = ReportSet()
    stats: List[RunStats] = []
    for seed in seeds:
        run = run_seed(
            module, seed, kind=kind, entry=entry, inputs=inputs,
            annotations=annotations, max_steps=max_steps,
            scheduler=scheduler, depth=depth, entry_args=entry_args,
            tracer=tracer, coverage=coverage, profile=profile, fuse=fuse,
            tape=tape,
        )
        reports.merge(run.reports)
        stats.append(run.stats())
        if feed is not None:
            feed.seed_done(stage="detect", seed=seed, detector=kind,
                           steps=run.result.steps, reports=len(run.reports),
                           cached=False)
    return reports, stats


def replay_tapes(
    kind: str,
    module: Module,
    stats: Sequence[RunStats],
    annotations: Optional[AnnotationSet] = None,
    tracer=None,
    feed=None,
) -> Tuple[ReportSet, List[RunStats]]:
    """A detector sweep over recorded seeds, without executing the program.

    Replays each seed's event tape (``stats[i].tape``, recorded by
    :func:`run_seed`) into a fresh ``kind`` detector honouring
    ``annotations`` and merges the reports in seed order — the reports a
    live sweep of the same seeds would produce, since annotations change
    what the detector reports, never the schedule.  Each returned
    ``RunStats`` keeps its seed's outcome and access count with 0 VM
    steps; ``tracer`` gets one ``detect_seed`` span (``replayed=True``)
    and ``feed`` one ``seed_done`` event per seed, as a live sweep emits.
    """
    from repro.runtime.spans import maybe_span

    detector_cls, _ = front_end(kind)
    reports = ReportSet()
    replayed: List[RunStats] = []
    for stat in stats:
        started = time.perf_counter()
        detector = detector_cls(annotations=annotations, reports=ReportSet())
        with maybe_span(tracer, "detect_seed", seed=stat.seed,
                        detector=detector_cls.name, replayed=True) as span:
            stat.tape.replay(detector, module)
            if span is not None:
                span.attrs.update(steps=0, reason=stat.reason,
                                  reports=len(detector.reports))
        reports.merge(detector.reports)
        replayed.append(RunStats(
            seed=stat.seed, reason=stat.reason, steps=0,
            accesses=detector.access_count, reports=len(detector.reports),
            wall_seconds=time.perf_counter() - started,
        ))
        if feed is not None:
            feed.seed_done(stage="detect", seed=stat.seed, detector=kind,
                           steps=0, reports=len(detector.reports),
                           cached=False)
    return reports, replayed


def run_tsan(
    module: Module,
    entry: str = "main",
    inputs: Optional[Dict] = None,
    seeds: Sequence[int] = range(10),
    annotations: Optional[AnnotationSet] = None,
    max_steps: int = 200_000,
) -> Tuple[ReportSet, List[RunStats]]:
    """Run the detector over several random schedules and merge the reports.

    Each seed is one program execution under a random schedule — the
    equivalent of repeatedly running a TSan-instrumented binary on the same
    testing workload.  Returns the merged reports and per-seed
    :class:`repro.runtime.metrics.RunStats`.
    """
    return run_seeds("tsan", module, seeds, entry=entry, inputs=inputs,
                     annotations=annotations, max_steps=max_steps)
