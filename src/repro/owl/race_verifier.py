"""The dynamic race verifier (paper section 5.2).

For each (reduced) race report, the verifier re-runs the program under the
debugger with *thread-specific breakpoints* on the two racing instructions.
A race is verified when two different threads are simultaneously halted at
the racing instructions with the same pending address — caught "in the
racing moment".  On verification it emits *security hints*: the racing
instructions, the values they are about to read/write, and the type of the
variable — enough to show "whether a NULL pointer difference can be
triggered or an uninitialized data can be read because of the race".

Livelock (all remaining progress requires a halted thread) is resolved by
temporarily releasing one of the triggered breakpoints, exactly as the paper
describes.  Races that never co-halt across the retry budget are eliminated
(the R.V.E. column of Table 3); as the paper notes, this can miss races that
"can't be reliably reproduced with 100% success rate".
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.detectors.report import RaceReport
from repro.ir.module import Module
from repro.runtime.debugger import Debugger, PendingAccess
from repro.runtime.interpreter import VM, ExecutionResult
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.spans import SpanTracer, maybe_span


class SecurityHints:
    """The dynamic information printed for a verified race."""

    def __init__(
        self,
        variable: Optional[str],
        value_type: str,
        read_value: Optional[int],
        write_value: Optional[int],
        null_write: bool,
        address: int,
    ):
        self.variable = variable
        self.value_type = value_type
        self.read_value = read_value
        self.write_value = write_value
        #: the write is about to store NULL/0 — a NULL-deref setup (Figure 2/6)
        self.null_write = null_write
        self.address = address

    def describe(self) -> str:
        parts = [
            "racing on %s (%s)" % (self.variable or hex(self.address), self.value_type),
        ]
        if self.read_value is not None:
            parts.append("value about to be read: %d" % self.read_value)
        if self.write_value is not None:
            parts.append("value about to be written: %d" % self.write_value)
        if self.null_write:
            parts.append("NULL/0 write: a NULL dereference may follow")
        return "; ".join(parts)

    def __repr__(self) -> str:
        return "<SecurityHints %s>" % self.describe()


class RaceVerification:
    """Outcome of verifying one race report.

    ``steps`` is the VM steps its attempts executed (0 when the outcome
    came from the result cache).
    """

    def __init__(self, report: RaceReport, verified: bool,
                 hints: Optional[SecurityHints] = None, runs_used: int = 0,
                 livelocks_resolved: int = 0, steps: int = 0):
        self.report = report
        self.verified = verified
        self.hints = hints
        self.runs_used = runs_used
        self.livelocks_resolved = livelocks_resolved
        self.steps = steps

    def __repr__(self) -> str:
        return "<RaceVerification %s runs=%d>" % (
            "VERIFIED" if self.verified else "eliminated", self.runs_used,
        )


class DynamicRaceVerifier:
    """Verifies race reports by catching them in the racing moment."""

    TAG = "verified"

    def __init__(
        self,
        module: Module,
        entry: str = "main",
        inputs: Optional[Dict] = None,
        seeds: Sequence[int] = range(6),
        max_steps: int = 200_000,
        vm_factory: Optional[Callable[[int], VM]] = None,
        tracer: Optional[SpanTracer] = None,
    ):
        self.module = module
        self.entry = entry
        self.inputs = inputs
        self.seeds = list(seeds)
        self.max_steps = max_steps
        self.vm_factory = vm_factory
        self.tracer = tracer

    # ------------------------------------------------------------------

    def verify(self, report: RaceReport) -> RaceVerification:
        """One race per run, possibly several runs (seeds)."""
        with maybe_span(self.tracer, "verify_report",
                        report=report.uid, variable=report.variable) as span:
            verification = self._verify(report)
            if span is not None:
                span.attrs.update(
                    verified=verification.verified,
                    runs_used=verification.runs_used,
                    livelocks_resolved=verification.livelocks_resolved,
                )
        return verification

    def _verify(self, report: RaceReport) -> RaceVerification:
        livelocks = steps = 0
        for attempt, seed in enumerate(self.seeds, start=1):
            vm = self._make_vm(seed)
            debugger = Debugger(vm)
            first = debugger.add_breakpoint(report.first.instruction)
            second = debugger.add_breakpoint(report.second.instruction)
            with maybe_span(self.tracer, "verify_attempt",
                            seed=seed, attempt=attempt) as span:
                vm.start(self.entry)
                hints = self._drive(vm, debugger, report)
                if span is not None:
                    span.attrs["caught"] = isinstance(hints, SecurityHints)
            steps += vm.step
            if isinstance(hints, SecurityHints):
                report.tags[self.TAG] = hints
                return RaceVerification(report, True, hints, attempt,
                                        livelocks, steps)
            livelocks += hints  # int: livelocks resolved this run
        return RaceVerification(report, False, None, len(self.seeds),
                                livelocks, steps)

    def verify_all(self, reports) -> List[RaceVerification]:
        return [self.verify(report) for report in reports]

    # ------------------------------------------------------------------

    def _make_vm(self, seed: int) -> VM:
        if self.vm_factory is not None:
            return self.vm_factory(seed)
        return VM(self.module, scheduler=RandomScheduler(seed), inputs=self.inputs,
                  max_steps=self.max_steps, seed=seed)

    def _drive(self, vm: VM, debugger: Debugger, report: RaceReport):
        """Run one execution; SecurityHints when caught, else livelock count."""
        livelocks_resolved = 0
        race_instructions = {report.first.instruction, report.second.instruction}
        while True:
            result = vm.run()
            if result.reason != ExecutionResult.BREAKPOINT:
                return livelocks_resolved
            halted = debugger.halted_threads()
            caught = self._racing_moment(vm, debugger, halted, race_instructions)
            if caught is not None:
                self._resume_all(debugger, halted)
                return caught
            if not vm.runnable_threads():
                released = debugger.release_one()
                if released is None:
                    return livelocks_resolved
                livelocks_resolved += 1
                if self.tracer is not None:
                    self.tracer.instant("livelock_release",
                                        release=livelocks_resolved)

    def _racing_moment(self, vm: VM, debugger: Debugger, halted,
                       race_instructions) -> Optional[SecurityHints]:
        """Two distinct threads at the racing instructions, same address?"""
        threads = [
            thread for thread in halted
            if thread.current_instruction() in race_instructions
        ]
        if len(threads) < 2:
            return None
        accesses: List[Tuple[object, PendingAccess]] = []
        for thread in threads:
            pending = debugger.pending_access(thread)
            if pending is not None and pending.address is not None:
                accesses.append((thread, pending))
        for i in range(len(accesses)):
            for j in range(i + 1, len(accesses)):
                thread_a, access_a = accesses[i]
                thread_b, access_b = accesses[j]
                if thread_a is thread_b:
                    continue
                if access_a.address != access_b.address:
                    continue
                if not (access_a.is_write or access_b.is_write):
                    continue
                return self._build_hints(vm, access_a, access_b)
        return None

    def _build_hints(self, vm: VM, access_a: PendingAccess,
                     access_b: PendingAccess) -> SecurityHints:
        write = access_a if access_a.is_write else access_b
        read = access_b if write is access_a else access_a
        return SecurityHints(
            variable=vm.memory.describe(write.address),
            value_type=write.value_type,
            read_value=(
                None if read.is_write
                else vm.debugger.peek_memory(read.address, 8)
            ),
            write_value=write.value,
            null_write=bool(write.is_write and write.value == 0),
            address=write.address,
        )

    @staticmethod
    def _resume_all(debugger: Debugger, halted) -> None:
        for thread in halted:
            debugger.resume(thread, step_past=True)
