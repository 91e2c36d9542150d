"""Fusion soundness: run_length contracts, fused/stepwise parity, fixes.

Four layers:

- unit tests for the two VM bugfixes (``_handle_idle`` clamping the sleeper
  fast-forward to the step budget; ``step_thread`` resetting ``blocked_arg``
  together with ``blocked_kind``),
- unit tests for the ``run_length`` no-preempt contract (PCT grants the
  distance to its next change point; every other scheduler keeps the base
  length of 1, so a VM handed an engine never attaches it there),
- unit tests for :class:`repro.runtime.fuse.FuseEngine` (hotness, plan
  caching, invalidation, attach signature validation, counters), and
- hypothesis differential tests pinning ``_run_fast_loop`` ≡
  ``_run_reference_loop`` ≡ fused execution across blocked/sleeper/halted
  transitions and fused-block boundaries (fault bailout mid-run, memo
  invalidation between runs, ``run_length`` shrinking at change points).
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import IRBuilder, Module, verify_module
from repro.ir.types import I32, I64, I8, ptr
from repro.runtime.diffcheck import TraceRecorder, _normalize_fault
from repro.runtime.errors import FaultKind
from repro.runtime.fuse import FuseEngine
from repro.runtime.interpreter import VM, ExecutionResult
from repro.runtime.scheduler import (
    PCTScheduler,
    RandomScheduler,
    RecordingScheduler,
    ReplayScheduler,
    RoundRobinScheduler,
    ScriptedScheduler,
)
from tests.helpers import build_adhoc_sync_module, build_counter_race


# ----------------------------------------------------------------------
# workload modules

def build_sleep_forever(delay: int = 1_000_000) -> Module:
    """main usleeps far beyond any step budget."""
    b = IRBuilder(Module("sleeper"))
    b.begin_function("main", I32, [], source_file="s.c")
    b.call("usleep", [delay], line=1)
    b.ret(b.i32(0), line=2)
    b.end_function()
    verify_module(b.module)
    return b.module


def build_sleeper_contention(iterations: int = 3) -> Module:
    """Two workers taking a mutex and sleeping while holding it.

    Exercises every transition the fast loop optimizes: mutex blocking
    (parsed block reason), sleeping (wake_step), unblock ordering, plus
    straight-line fusible runs between the calls.
    """
    module = Module("contention")
    b = IRBuilder(module)
    counter = b.global_var("counter", I64, 0)
    lock = b.global_var("lock", I64, 0)
    b.set_location("c.c", 1)
    b.begin_function("worker", I32, [("arg", ptr(I8))], source_file="c.c")
    i = b.local(I64, "i", 0, line=10)
    b.br("cond", line=10)
    b.at("cond")
    iv = b.load(i, line=11)
    more = b.icmp("slt", iv, iterations, line=11)
    b.cond_br(more, "body", "done", line=11)
    b.at("body")
    b.call("mutex_lock", [b.cast("bitcast", lock, ptr(I8), line=12)], line=12)
    value = b.load(counter, line=13)
    b.store(b.add(value, 1, line=13), counter, line=13)
    b.call("usleep", [7], line=14)
    b.call("mutex_unlock", [b.cast("bitcast", lock, ptr(I8), line=15)],
           line=15)
    b.store(b.add(iv, 1, line=16), i, line=16)
    b.br("cond", line=16)
    b.at("done")
    b.ret(b.i32(0), line=17)
    b.end_function()
    b.begin_function("main", I32, [], source_file="c.c")
    worker = module.get_function("worker")
    t1 = b.call("thread_create", [worker, b.null()], line=20)
    t2 = b.call("thread_create", [worker, b.null()], line=21)
    b.call("thread_join", [t1], line=22)
    b.call("thread_join", [t2], line=23)
    b.ret(b.i32(0), line=24)
    b.end_function()
    verify_module(module)
    return module


def build_divider(start: int = 3) -> Module:
    """A fusible loop that divides by a decrementing global.

    The loop body is pure load/arith/store — after two iterations the
    fuse engine compiles it — and on the iteration where the divisor
    reaches zero the sdiv faults *mid fused run*, exercising the bailout
    path (fault recorded at the exact step, observers notified once).
    """
    module = Module("divider")
    b = IRBuilder(module)
    divisor = b.global_var("divisor", I64, start)
    out = b.global_var("out", I64, 0)
    b.set_location("d.c", 1)
    b.begin_function("main", I32, [], source_file="d.c")
    b.br("cond", line=9)
    b.at("cond")
    d = b.load(divisor, line=10)
    q = b.binop("sdiv", b.i64(100), d, line=11)
    o = b.load(out, line=12)
    b.store(b.add(o, q, line=12), out, line=12)
    b.store(b.sub(d, 1, line=13), divisor, line=13)
    b.br("cond", line=14)
    b.end_function()
    verify_module(module)
    return module


MODULE_BUILDERS = {
    "counter_race": lambda: build_counter_race(iterations=4),
    "counter_locked": lambda: build_counter_race(iterations=3,
                                                 with_lock=True),
    "adhoc": build_adhoc_sync_module,
    "contention": build_sleeper_contention,
}


def make_scheduler(kind: str, seed: int):
    if kind == "random":
        return RandomScheduler(seed)
    if kind == "round_robin":
        return RoundRobinScheduler(quantum=1 + seed % 7)
    return PCTScheduler(seed=seed, depth=3, expected_steps=500)


def run_fingerprint(module: Module, scheduler, reference: bool = False,
                    fuse=None, max_steps: int = 50_000):
    """Everything observable about one run, in comparable form."""
    vm = VM(module, scheduler=scheduler, max_steps=max_steps,
            reference=reference, fuse=fuse)
    recorder = TraceRecorder()
    vm.add_observer(recorder)
    vm.start("main")
    result = vm.run()
    return {
        "events": recorder.records,
        "faults": [_normalize_fault(f) for f in vm.faults],
        "recorded": [_normalize_fault(f) for f in vm.memory.recorded_faults],
        "reason": result.reason,
        "steps": result.steps,
        "per_thread": {t.thread_id: t.steps_executed
                       for t in vm.threads.values()},
    }


# ----------------------------------------------------------------------
# bugfix 1: _handle_idle sleeper fast-forward clamped to the budget

class TestHandleIdleClamp:
    @pytest.mark.parametrize("reference", [False, True])
    def test_sleep_beyond_budget_parks_at_limit(self, reference):
        vm = VM(build_sleep_forever(), scheduler=RoundRobinScheduler(),
                max_steps=25, reference=reference)
        vm.start("main")
        result = vm.run()
        assert result.reason == ExecutionResult.STEP_LIMIT
        # the clamp: the clock parks exactly at the budget instead of
        # jumping to the wake step (step 1 + 1_000_000)
        assert vm.step == 25

    @pytest.mark.parametrize("reference", [False, True])
    def test_resumed_run_never_overshoots_global_budget(self, reference):
        vm = VM(build_sleep_forever(delay=100), scheduler=RoundRobinScheduler(),
                max_steps=40, reference=reference)
        vm.start("main")
        first = vm.run(max_steps=10)
        assert first.reason == ExecutionResult.STEP_LIMIT
        assert vm.step == 10
        second = vm.run()  # up to the global budget
        assert second.reason == ExecutionResult.STEP_LIMIT
        assert vm.step == 40

    def test_both_loops_agree_on_short_sleep(self):
        runs = {}
        for reference in (False, True):
            vm = VM(build_sleep_forever(delay=30),
                    scheduler=RoundRobinScheduler(), max_steps=500,
                    reference=reference)
            vm.start("main")
            result = vm.run()
            runs[reference] = (result.reason, result.steps, vm.step)
        assert runs[False] == runs[True]


# ----------------------------------------------------------------------
# bugfix 2: blocked_arg reset together with blocked_kind

class TestBlockedArgReset:
    def test_unparsed_reason_clears_stale_mutex_fields(self):
        vm = VM(build_sleep_forever(delay=50),
                scheduler=RoundRobinScheduler(), max_steps=1000)
        thread = vm.start("main")
        # Simulate a thread that previously blocked on a mutex: the next
        # block (usleep — an unparsed reason) must not keep these.
        thread.blocked_kind = "mutex"
        thread.blocked_arg = 0xDEAD
        vm.step_thread(thread)  # executes the usleep call -> Block
        assert thread.blocked_on == "usleep"
        assert thread.wake_step is not None
        assert thread.blocked_kind is None
        assert thread.blocked_arg == 0

    def test_fast_loop_never_misreads_stale_mutex_address(self):
        # End to end: workers alternate mutex blocks and sleeps; if the
        # fast loop ever treated a sleeping thread as a mutex waiter on a
        # stale address it would unblock early and diverge from the
        # reference loop below.
        module = build_sleeper_contention()
        baseline = run_fingerprint(module, RandomScheduler(3),
                                   reference=True)
        fast = run_fingerprint(module, RandomScheduler(3))
        assert fast == baseline


# ----------------------------------------------------------------------
# run_length contracts

def _threads(n: int):
    return [SimpleNamespace(thread_id=i + 1, name="t%d" % (i + 1))
            for i in range(n)]


class TestRunLengthContract:
    """run_length(thread, step, k) promises the next k-1 chooses return
    the same thread and commits internal state exactly as they would."""

    @given(st.sampled_from(["random", "round_robin", "pct"]),
           st.integers(0, 1000), st.integers(1, 3),
           st.lists(st.integers(2, 9), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_fused_decisions_equal_stepwise(self, kind, seed, n, windows):
        runnable = _threads(n)
        stepwise = make_scheduler(kind, seed)
        fused = make_scheduler(kind, seed)
        # fused driver: after each choose, ask for a run and skip the
        # committed decisions
        expanded = []
        step = 0
        for max_len in windows:
            chosen = fused.choose(runnable, step)
            length = fused.run_length(chosen, step, max_len)
            assert 1 <= length <= max_len
            expanded.extend([chosen.thread_id] * length)
            step += length
        # stepwise driver: one choose per decision
        reference = [stepwise.choose(runnable, s).thread_id
                     for s in range(step)]
        assert expanded == reference

    def test_pct_stops_at_change_point_without_mutation(self):
        scheduler = PCTScheduler(seed=5, depth=3, expected_steps=100)
        runnable = _threads(2)
        chosen = scheduler.choose(runnable, 0)
        point = min(p for p in scheduler.change_points if p > 0)
        priorities = dict(scheduler._priorities)
        length = scheduler.run_length(chosen, 0, point + 40)
        assert length == point  # steps 1..point-1 are safe, point is not
        assert scheduler._priorities == priorities

    def test_wrapper_schedulers_refuse_fusion(self):
        from repro.runtime.coverage import SwitchTracker
        from repro.runtime.profiler import SamplingProfiler
        from repro.runtime.record import ScheduleRecorder

        runnable = _threads(2)
        for scheduler in (
            ScriptedScheduler([(1, 5)]),
            RecordingScheduler(RandomScheduler(0)),
            ReplayScheduler([1, 1, 2]),
        ):
            chosen = scheduler.choose(runnable, 0)
            assert scheduler.run_length(chosen, 0, 50) == 1
        # A VM handed an engine attaches it only under a scheduler that
        # can grant no-preempt windows: PCT, unwrapped.
        module = build_counter_race(iterations=4)
        pct = PCTScheduler(seed=0)
        for scheduler in (
            RandomScheduler(0),
            RoundRobinScheduler(),
            ScriptedScheduler([(1, 5)]),
            RecordingScheduler(pct),
            ReplayScheduler([1, 1, 2]),
            ScheduleRecorder(pct),
            SwitchTracker(pct),
            SamplingProfiler(pct),
        ):
            vm = VM(module, scheduler=scheduler, fuse=FuseEngine())
            assert vm.fuse_engine is None, type(scheduler).__name__
        engine = FuseEngine()
        assert VM(module, scheduler=pct, fuse=engine).fuse_engine is engine


# ----------------------------------------------------------------------
# FuseEngine

class TestFuseEngine:
    def _vm(self, module=None, fuse=None):
        return VM(module or build_counter_race(iterations=4),
                  scheduler=PCTScheduler(), max_steps=10_000,
                  fuse=fuse or FuseEngine())

    def test_vm_attaches_engine(self):
        vm = self._vm()
        assert isinstance(vm.fuse_engine, FuseEngine)

    def test_reference_mode_disables_fusion(self):
        vm = VM(build_counter_race(), scheduler=PCTScheduler(),
                max_steps=10_000, reference=True, fuse=FuseEngine())
        assert vm.fuse_engine is None

    def test_sites_warm_before_compiling(self):
        vm = self._vm(build_divider())
        engine = vm.fuse_engine
        thread = vm.start("main")  # entry block: unconditional br -> loop
        assert engine.plan_for(thread) is None  # first sight: cold
        plan = engine.plan_for(thread)  # second sight: compiled
        assert plan is not None and plan.length >= 2
        assert engine.compiled == 1
        assert engine.plan_for(thread) is plan  # cached

    def test_unfusible_site_cached_as_none(self):
        # counter_race main starts with thread_create calls: never fusible
        vm = self._vm()
        engine = vm.fuse_engine
        thread = vm.start("main")
        engine.plan_for(thread)
        engine.plan_for(thread)
        key = (thread.top.block, thread.top.index)
        assert engine._plans[key] is None
        assert engine.compiled == 0

    def test_invalidate_drops_plans_and_counts(self):
        vm = self._vm()
        engine = vm.fuse_engine
        vm.start("main")
        vm.run()
        assert engine.compiled > 0
        engine.invalidate()
        assert engine._plans == {} and engine._heat == {}
        assert engine.invalidations == 1

    def test_attach_foreign_layout_invalidates(self):
        engine = FuseEngine()
        self._vm(build_counter_race(iterations=4), fuse=engine)
        # a module with different globals -> different address layout
        self._vm(build_sleeper_contention(), fuse=engine)
        assert engine.invalidations == 1

    def test_shared_engine_amortizes_across_vms(self):
        module = build_counter_race(iterations=4)
        engine = FuseEngine()
        for _ in range(2):
            vm = VM(module, scheduler=PCTScheduler(),
                    max_steps=10_000, fuse=engine)
            vm.start("main")
            vm.run()
        assert engine.invalidations == 0
        first_sweep_compiles = engine.compiled
        vm = VM(module, scheduler=PCTScheduler(), max_steps=10_000,
                fuse=engine)
        vm.start("main")
        vm.run()
        assert engine.compiled == first_sweep_compiles  # all plans reused

    def test_counters_shape(self):
        vm = self._vm()
        vm.start("main")
        vm.run()
        counters = vm.fuse_engine.counters()
        assert set(counters) == {"compiled", "fused_runs", "fused_steps",
                                 "bailouts", "invalidations"}
        assert counters["fused_steps"] >= counters["fused_runs"] >= 1


# ----------------------------------------------------------------------
# differential: fast loop ≡ reference loop ≡ fused execution

class TestDifferentialParity:
    @given(st.sampled_from(sorted(MODULE_BUILDERS)),
           st.sampled_from(["random", "round_robin", "pct"]),
           st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_three_way_fingerprint_parity(self, name, kind, seed):
        module = MODULE_BUILDERS[name]()
        reference = run_fingerprint(module, make_scheduler(kind, seed),
                                    reference=True)
        fast = run_fingerprint(module, make_scheduler(kind, seed))
        fused = run_fingerprint(module, make_scheduler(kind, seed),
                                fuse=FuseEngine())
        assert fast == reference
        assert fused == reference

    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_scheduler_rng_state_matches_after_fused_run(self, seed):
        module = build_counter_race(iterations=4)
        stepwise_scheduler = make_scheduler("pct", seed)
        fused_scheduler = make_scheduler("pct", seed)
        stepwise = run_fingerprint(module, stepwise_scheduler)
        fused = run_fingerprint(module, fused_scheduler, fuse=FuseEngine())
        assert fused == stepwise
        # the rng consumed exactly the same entropy: any continuation
        # (e.g. the verifier reusing the scheduler) stays identical
        assert (fused_scheduler._rng.getstate()
                == stepwise_scheduler._rng.getstate())

    @given(st.integers(0, 200), st.integers(5, 60))
    @settings(max_examples=20, deadline=None)
    def test_step_limit_boundary_identical(self, seed, limit):
        """run_length windows clamp at the budget: a fused run never
        overshoots the limit the stepwise run stops at."""
        module = build_counter_race(iterations=50)
        stepwise = run_fingerprint(module, make_scheduler("pct", seed),
                                   max_steps=limit)
        fused = run_fingerprint(module, make_scheduler("pct", seed),
                                fuse=FuseEngine(), max_steps=limit)
        assert fused == stepwise
        assert fused["steps"] <= limit


class TestFusedBoundaries:
    def test_fault_bails_out_mid_run(self):
        module = build_divider(start=3)
        stepwise = run_fingerprint(module, PCTScheduler())
        engine = FuseEngine()
        fused = run_fingerprint(module, PCTScheduler(), fuse=engine)
        assert fused == stepwise
        assert stepwise["reason"] == ExecutionResult.FAULT
        assert stepwise["faults"][0][0] == FaultKind.DIVISION_BY_ZERO.value
        assert engine.bailouts == 1
        assert engine.fused_runs >= 1

    def test_invalidation_between_runs_recompiles_identically(self):
        module = build_counter_race(iterations=4)
        engine = FuseEngine()
        first = run_fingerprint(module, make_scheduler("pct", 5), fuse=engine)
        engine.invalidate()
        second = run_fingerprint(module, make_scheduler("pct", 5),
                                 fuse=engine)
        assert first == second
        assert engine.invalidations == 1
        assert engine.compiled >= 2  # recompiled after the flush

    def test_sleeper_wakeup_shrinks_the_window(self):
        # a thread sleeping mid-run clamps max_len to its wake step; the
        # fused sweep must wake it at exactly the same step
        module = build_sleeper_contention()
        for seed in range(5):
            stepwise = run_fingerprint(module, make_scheduler("pct", seed))
            fused = run_fingerprint(module, make_scheduler("pct", seed),
                                    fuse=FuseEngine())
            assert fused == stepwise

    def test_debugger_disables_fusion(self):
        from repro.ir.instructions import Load
        from repro.runtime.debugger import Debugger

        module = build_counter_race(iterations=4)
        vm = VM(module, scheduler=PCTScheduler(), max_steps=10_000,
                fuse=FuseEngine())
        debugger = Debugger(vm)
        worker = module.get_function("worker")
        load = next(instruction for block in worker.blocks
                    for instruction in block.instructions
                    if isinstance(instruction, Load))
        debugger.add_breakpoint(load)
        vm.start("main")
        result = vm.run()
        assert result.reason == ExecutionResult.BREAKPOINT
        assert vm.fuse_engine.fused_runs == 0
