"""Schedule identity of the event-driven run loop, and lazy fault stacks.

The optimized loop (``VM._run_fast_loop``) re-polls blocked threads and
rebuilds the runnable list only at the transitions that can change them.
Every case below runs one program twice under the same
``RandomScheduler`` seed — once through the reference loop, once through
the optimized one — with a debugger attached, and asserts the same
``(step, thread, runnable set)`` decision sequence, the same unblock
sequence, the same halt/resume/release sequence and the same trace.  Each
case also asserts that the transition it names really happened, so a
program change cannot quietly stop exercising it.
"""

import pytest

from repro.ir import IRBuilder, Module, verify_module
from repro.ir.types import ArrayType, I32, I64, I8, ptr
from repro.runtime.debugger import Debugger
from repro.runtime.diffcheck import TraceRecorder, _normalize_fault
from repro.runtime.errors import FaultKind
from repro.runtime.fuse import FuseEngine
from repro.runtime.interpreter import VM, ExecutionResult
from repro.runtime.memory import Memory, MemoryBlock
from repro.runtime.scheduler import PCTScheduler, RandomScheduler, Scheduler
from tests.helpers import build_counter_race

SEEDS = range(10)


class DecisionLog(Scheduler):
    """Delegates to ``inner``; logs ``(step, chosen, runnable ids)``."""

    def __init__(self, inner: Scheduler):
        self.inner = inner
        self.decisions = []

    def choose(self, runnable, step):
        chosen = self.inner.choose(runnable, step)
        self.decisions.append(
            (step, chosen.thread_id, tuple(t.thread_id for t in runnable)))
        return chosen

    def on_thread_created(self, thread):
        self.inner.on_thread_created(thread)


def drive(vm: VM, debugger: Debugger, rounds: int = 500):
    """Run to the end the way ``DynamicRaceVerifier._drive`` steers a run.

    Two or more halted threads are all resumed past their breakpoints
    (the verifier's "caught" case, without stopping); a lone halted
    thread with nothing else runnable is released (livelock resolution).
    Returns the final result and the halt/resume/release log.
    """
    log = []
    for _ in range(rounds):
        result = vm.run()
        if result.reason != ExecutionResult.BREAKPOINT:
            return result, log
        halted = debugger.halted_threads()
        log.append(("halt", vm.step, tuple(
            (t.thread_id, t.current_instruction().uid) for t in halted)))
        if len(halted) >= 2:
            for thread in halted:
                debugger.resume(thread, step_past=True)
            log.append(("resume", tuple(t.thread_id for t in halted)))
        elif not vm.runnable_threads():
            released = debugger.release_one()
            log.append(("release",
                        released.thread_id if released is not None else None))
    raise AssertionError("run did not finish in %d debugger rounds" % rounds)


def execute(module: Module, seed: int, reference: bool, breakpoints=(),
            max_steps: int = 50_000):
    """One debugger-driven run; everything the two loops must agree on."""
    scheduler = DecisionLog(RandomScheduler(seed))
    vm = VM(module, scheduler=scheduler, max_steps=max_steps, seed=seed,
            reference=reference)
    unblocks = []
    unblock = vm.unblock

    def logged_unblock(thread_id):
        thread = vm.threads.get(thread_id)
        if thread is not None and thread.blocked_on is not None:
            unblocks.append((vm.step, thread_id, thread.blocked_on,
                             thread.wake_step))
        unblock(thread_id)

    vm.unblock = logged_unblock
    recorder = TraceRecorder()
    vm.add_observer(recorder)
    debugger = Debugger(vm)
    for instruction, thread_filter in breakpoints:
        debugger.add_breakpoint(instruction, thread_filter)
    vm.start("main")
    result, halts = drive(vm, debugger)
    return {
        "decisions": scheduler.decisions,
        # The reference loop unblocks same-step waiters in creation order,
        # the optimized one in blocking order; only the set per step (and
        # so the runnable list) is observable.
        "unblocks": sorted(unblocks),
        "halts": halts,
        "events": recorder.records,
        "faults": [_normalize_fault(fault) for fault in vm.faults],
        "reason": result.reason,
        "steps": result.steps,
    }


def assert_identical(module: Module, seeds=SEEDS, breakpoints=()):
    """Both loops agree on every seed; returns the optimized runs."""
    runs = []
    for seed in seeds:
        reference = execute(module, seed, True, breakpoints)
        optimized = execute(module, seed, False, breakpoints)
        for field in reference:
            assert optimized[field] == reference[field], (seed, field)
        runs.append(optimized)
    return runs


def unblock_reasons(runs):
    return [entry for run in runs for entry in run["unblocks"]]


# ----------------------------------------------------------------------
# programs

def build_condvar(broadcast: bool, consumers: int = 2) -> Module:
    """Consumers ``cond_wait`` on a flag; a producer signals/broadcasts."""
    b = IRBuilder(Module("cv"))
    mutex = b.global_var("mutex", I64, 0)
    cond = b.global_var("cond", I64, 0)
    ready = b.global_var("ready", I64, 0)
    wake = "cond_broadcast" if broadcast else "cond_signal"

    b.begin_function("producer", I32, [("arg", ptr(I8))], source_file="cv.c")
    m = b.cast("bitcast", mutex, ptr(I8), line=1)
    c = b.cast("bitcast", cond, ptr(I8), line=1)
    b.call("usleep", [15], line=2)
    for _ in range(consumers):
        b.call("mutex_lock", [m], line=3)
        b.store(b.add(b.load(ready, line=4), 1, line=4), ready, line=4)
        b.call(wake, [c], line=5)
        b.call("mutex_unlock", [m], line=6)
    b.ret(b.i32(0), line=7)
    b.end_function()

    b.begin_function("consumer", I32, [("arg", ptr(I8))], source_file="cv.c")
    m = b.cast("bitcast", mutex, ptr(I8), line=10)
    c = b.cast("bitcast", cond, ptr(I8), line=10)
    b.call("mutex_lock", [m], line=11)
    b.br("check", line=11)
    b.at("check")
    flag = b.load(ready, line=12)
    b.cond_br(b.icmp("ne", flag, 0, line=12), "take", "wait", line=12)
    b.at("wait")
    b.call("cond_wait", [c, m], line=13)
    b.br("check", line=13)
    b.at("take")
    b.store(b.sub(b.load(ready, line=14), 1, line=14), ready, line=14)
    b.call("mutex_unlock", [m], line=15)
    b.ret(b.i32(0), line=16)
    b.end_function()

    b.begin_function("main", I32, [], source_file="cv.c")
    tids = [b.call("thread_create", [b.module.get_function("consumer"),
                                     b.null()], line=20)
            for _ in range(consumers)]
    tids.append(b.call("thread_create", [b.module.get_function("producer"),
                                         b.null()], line=21))
    for tid in tids:
        b.call("thread_join", [tid], line=22)
    b.ret(b.i32(0), line=23)
    b.end_function()
    verify_module(b.module)
    return b.module


def build_sleepers(delay: int, spin: int) -> Module:
    """A sleeper and a spinner; main joins both.

    With ``spin`` long enough the spinner is running when the sleeper's
    wake-up falls due, so the loop's scan must wake it at exactly that
    step; with ``spin=0`` every thread is waiting and the loop fast-forwards
    the clock to the wake-up (``_handle_idle``).
    """
    b = IRBuilder(Module("sleep"))
    counter = b.global_var("counter", I64, 0)
    b.begin_function("sleeper", I32, [("arg", ptr(I8))], source_file="s.c")
    b.call("usleep", [delay], line=1)
    b.store(1, counter, line=2)
    b.ret(b.i32(0), line=3)
    b.end_function()

    b.begin_function("spinner", I32, [("arg", ptr(I8))], source_file="s.c")
    i = b.local(I64, "i", 0, line=10)
    b.br("cond", line=10)
    b.at("cond")
    iv = b.load(i, line=11)
    b.cond_br(b.icmp("slt", iv, spin, line=11), "body", "done", line=11)
    b.at("body")
    b.store(b.add(iv, 1, line=12), i, line=12)
    b.br("cond", line=12)
    b.at("done")
    b.ret(b.i32(0), line=13)
    b.end_function()

    b.begin_function("main", I32, [], source_file="s.c")
    t1 = b.call("thread_create", [b.module.get_function("sleeper"),
                                  b.null()], line=20)
    t2 = b.call("thread_create", [b.module.get_function("spinner"),
                                  b.null()], line=21)
    b.call("thread_join", [t1], line=22)
    b.call("thread_join", [t2], line=23)
    b.ret(b.i32(0), line=24)
    b.end_function()
    verify_module(b.module)
    return b.module


def build_nested_spawn() -> Module:
    """main spawns a parent mid-run; the parent spawns a child mid-run."""
    b = IRBuilder(Module("nest"))
    counter = b.global_var("counter", I64, 0)
    b.begin_function("child", I32, [("arg", ptr(I8))], source_file="n.c")
    b.store(b.add(b.load(counter, line=1), 1, line=1), counter, line=1)
    b.ret(b.i32(0), line=2)
    b.end_function()

    b.begin_function("parent", I32, [("arg", ptr(I8))], source_file="n.c")
    b.store(b.add(b.load(counter, line=10), 1, line=10), counter, line=10)
    tid = b.call("thread_create", [b.module.get_function("child"), b.null()],
                 line=11)
    b.store(b.add(b.load(counter, line=12), 1, line=12), counter, line=12)
    b.call("thread_join", [tid], line=13)
    b.ret(b.i32(0), line=14)
    b.end_function()

    b.begin_function("main", I32, [], source_file="n.c")
    b.store(b.add(b.load(counter, line=20), 1, line=20), counter, line=20)
    tid = b.call("thread_create", [b.module.get_function("parent"),
                                   b.null()], line=21)
    b.store(b.add(b.load(counter, line=22), 1, line=22), counter, line=22)
    b.call("thread_join", [tid], line=23)
    b.ret(b.i32(0), line=24)
    b.end_function()
    verify_module(b.module)
    return b.module


def counter_breakpoints(module: Module):
    load = module.find_instructions(filename="counter.c", line=13,
                                    opcode="load")[0]
    store = module.find_instructions(filename="counter.c", line=13,
                                     opcode="store")[0]
    return [(load, None), (store, None)]


# ----------------------------------------------------------------------
# schedule identity, one transition kind per case

class TestScheduleIdentity:
    def test_mutex_unlock_wakes_waiter(self):
        runs = assert_identical(build_counter_race(iterations=4,
                                                   with_lock=True))
        assert any(reason.startswith("mutex ")
                   for _, _, reason, _ in unblock_reasons(runs))

    @pytest.mark.parametrize("broadcast", [False, True],
                             ids=["signal", "broadcast"])
    def test_cond_wait_releases_mutex_then_wakes(self, broadcast):
        runs = assert_identical(build_condvar(broadcast))
        reasons = [reason for _, _, reason, _ in unblock_reasons(runs)]
        assert any(reason.startswith("cond ") for reason in reasons)
        # A woken consumer re-acquiring the mutex the producer still holds
        # waits on it, and is re-polled off the producer's unlock.
        assert any(reason.startswith("mutex ") for reason in reasons)
        assert all(run["reason"] == ExecutionResult.FINISHED for run in runs)
        if broadcast:
            # one broadcast woke both consumers at the same step
            woken = [(step, reason) for run in runs
                     for step, _, reason, _ in run["unblocks"]
                     if reason.startswith("cond ")]
            steps = [step for step, _ in woken]
            assert any(steps.count(step) >= 2 for step in steps)

    def test_join_target_finishes(self):
        runs = assert_identical(build_counter_race(iterations=3))
        assert any(reason.startswith("join t")
                   for _, _, reason, _ in unblock_reasons(runs))

    def test_sleeper_due_exactly_at_wake_step(self):
        runs = assert_identical(build_sleepers(delay=6, spin=40))
        sleeps = [(step, wake) for step, _, reason, wake
                  in unblock_reasons(runs) if reason == "usleep"]
        assert sleeps and all(step == wake for step, wake in sleeps)

    def test_idle_fast_forward_to_wake_step(self):
        runs = assert_identical(build_sleepers(delay=60, spin=0))
        for run in runs:
            steps = [step for step, _, _ in run["decisions"]]
            gaps = [b - a for a, b in zip(steps, steps[1:])]
            assert max(gaps) > 1  # the clock jumped while all waited
            (step, _, reason, wake), = [
                entry for entry in run["unblocks"] if entry[2] == "usleep"]
            assert step == wake

    def test_spawn_mid_run(self):
        runs = assert_identical(build_nested_spawn())
        for run in runs:
            first_seen = {}
            for step, _, runnable in run["decisions"]:
                for thread_id in runnable:
                    first_seen.setdefault(thread_id, step)
            assert sorted(first_seen) == [1, 2, 3]
            assert first_seen[3] > first_seen[2] > 0

    def test_debugger_halt_and_resume(self):
        module = build_counter_race(iterations=3)
        runs = assert_identical(module,
                                breakpoints=counter_breakpoints(module))
        kinds = {entry[0] for run in runs for entry in run["halts"]}
        assert kinds == {"halt", "resume"}

    def test_debugger_release_one(self):
        # Only thread 2 halts: once thread 3 is done and main waits in
        # join, all progress needs the halted thread (the livelock).
        module = build_counter_race(iterations=3)
        (load, _), (store, _) = counter_breakpoints(module)
        runs = assert_identical(module, breakpoints=[(load, 2), (store, 2)])
        kinds = {entry[0] for run in runs for entry in run["halts"]}
        assert kinds == {"halt", "release"}


# ----------------------------------------------------------------------
# lazy fault call stacks

def _faulting_module(kind: str) -> Module:
    """main (line 50) calls ``access`` (s.c), whose access faults.

    ``load``/``store`` walk a 4-slot global array past its end in a
    straight-line loop (fusible under PCT); ``atomic`` is an atomicrmw on
    NULL; ``memcpy``/``strcpy``/``write`` fault inside the external.
    """
    b = IRBuilder(Module("fault_" + kind))
    array = b.global_var("array", ArrayType(I64, 4), None)
    index = b.global_var("index", I64, 0)
    text = b.global_string("text", "longer than four bytes")
    b.begin_function("access", I32, [], source_file="s.c")
    if kind in ("load", "store"):
        base = b.cast("bitcast", array, ptr(I64), line=5)
        b.br("loop", line=5)
        b.at("loop")
        i = b.load(index, line=6)
        slot = b.index(base, i, line=7)
        if kind == "load":
            b.load(slot, line=8)
        else:
            b.store(i, slot, line=8)
        b.store(b.add(i, 1, line=9), index, line=9)
        b.br("loop", line=10)
    else:
        if kind == "atomic":
            b.atomicrmw("add", b.null(I64), 1, line=8)
        elif kind == "memcpy":
            b.call("memcpy", [b.call("malloc", [b.i64(8)], line=7),
                              b.null(), b.i64(8)], line=8)
        elif kind == "strcpy":
            text_ptr = b.cast("bitcast", text, ptr(I8), line=6)
            b.call("strcpy", [b.call("malloc", [b.i64(4)], line=7),
                              text_ptr], line=8)
        else:  # write
            b.call("write", [b.i32(1), b.null(), b.i64(4)], line=8)
        b.ret(b.i32(0), line=9)
    b.end_function()
    b.begin_function("main", I32, [], source_file="m.c")
    b.call("access", [], line=50)
    b.ret(b.i32(0), line=51)
    b.end_function()
    verify_module(b.module)
    return b.module


#: The fault each access kind raises, with the stack it must carry:
#: main's call site, then the faulting instruction.
FAULT_CASES = {
    "load": FaultKind.WILD_ACCESS,
    "store": FaultKind.WILD_ACCESS,
    "atomic": FaultKind.NULL_DEREF,
    "memcpy": FaultKind.NULL_DEREF,
    "strcpy": FaultKind.BUFFER_OVERFLOW,
    "write": FaultKind.NULL_DEREF,
}
EXPECTED_STACK = (("main", "m.c", 50), ("access", "s.c", 8))


class TestLazyFaultStacks:
    @pytest.mark.parametrize("kind", sorted(FAULT_CASES))
    @pytest.mark.parametrize("reference", [False, True],
                             ids=["optimized", "reference"])
    def test_stepwise_fault_stack(self, kind, reference):
        vm = VM(_faulting_module(kind), scheduler=RandomScheduler(0),
                max_steps=5_000, reference=reference)
        vm.start("main")
        assert vm.run().reason == ExecutionResult.FAULT
        fault = vm.faults[-1]
        assert fault.kind is FAULT_CASES[kind]
        assert fault.call_stack == EXPECTED_STACK
        assert fault.step == vm.step

    @pytest.mark.parametrize("kind", ["load", "store"])
    def test_fused_fault_stack(self, kind):
        engine = FuseEngine()
        vm = VM(_faulting_module(kind), scheduler=PCTScheduler(),
                max_steps=5_000, fuse=engine)
        vm.start("main")
        assert vm.run().reason == ExecutionResult.FAULT
        assert engine.bailouts == 1  # the fault hit inside a fused run
        fault = vm.faults[-1]
        assert fault.kind is FaultKind.WILD_ACCESS
        assert fault.call_stack == EXPECTED_STACK

    def test_fault_free_access_never_snapshots_the_stack(self):
        memory = Memory()
        block = memory.allocate(8, MemoryBlock.HEAP)

        def no_stack():
            raise AssertionError("stack built for a valid access")

        assert memory.check_access(block.base, 8, True, 1, 0,
                                   no_stack) == (block, None)
        _, fault = memory.check_access(0, 8, False, 1, 0,
                                       lambda: (("f", "x.c", 3),))
        assert fault.call_stack == (("f", "x.c", 3),)
