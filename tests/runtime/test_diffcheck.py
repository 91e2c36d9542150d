"""Tests for the differential-execution oracle and the hot-path memos.

Two layers: direct unit tests for every memo invalidation point (call, ret,
free, realloc of a described block, cast-typing a block), and end-to-end
oracle runs asserting reference and optimized executions stay bit-identical.
"""

import pytest

from repro.ir import IRBuilder, Module, verify_module
from repro.ir.types import I32, I64, I8, StructType, ptr
from repro.runtime.diffcheck import (
    Divergence,
    compare_fingerprints,
    diff_counters,
    diff_program,
    diff_seed,
    fingerprint_run,
)
from repro.runtime.errors import FaultKind
from repro.runtime.interpreter import VM, reference_execution
from repro.runtime.memory import Memory, MemoryBlock
from repro.runtime.thread import Frame, ThreadContext
from repro.spec import ProgramSpec
from tests.helpers import build_adhoc_sync_module, build_counter_race


def build_two_funcs() -> Module:
    b = IRBuilder(Module("m"))
    b.begin_function("g", I32, [], source_file="m.c")
    b.ret(b.i32(0), line=20)
    b.end_function()
    b.begin_function("f", I32, [], source_file="m.c")
    b.call("g", [], line=10)
    b.ret(b.i32(0), line=11)
    b.end_function()
    verify_module(b.module)
    return b.module


def build_realloc_module() -> Module:
    """malloc -> cast-type -> field store -> realloc -> field store/load.

    Exercises the description memo across its invalidation points: the cast
    types the heap block (field names appear), the realloc frees it and
    copies the payload into a fresh block that is cast-typed again.
    """
    box = StructType("box", [("a", I64), ("b", I64)])
    b = IRBuilder(Module("re"))
    b.begin_function("main", I32, [], source_file="re.c")
    p = b.call("malloc", [b.i64(16)], line=1)
    tp = b.cast("bitcast", p, ptr(box), line=2)
    b.store(b.i64(7), b.field(tp, "a", line=3), line=3)
    q = b.call("realloc", [p, b.i64(32)], line=4)
    tq = b.cast("bitcast", q, ptr(box), line=5)
    b.store(b.i64(9), b.field(tq, "b", line=6), line=6)
    preserved = b.load(b.field(tq, "a", line=7), line=7)
    b.call("free", [q], line=8)
    b.ret(b.cast("trunc", preserved, I32, line=9), line=9)
    b.end_function()
    verify_module(b.module)
    return b.module


def spec_for(name, factory, **kwargs) -> ProgramSpec:
    return ProgramSpec(name, factory, **kwargs)


class TestCallStackMemo:
    def make_thread(self, memoize=True):
        module = build_two_funcs()
        return module, ThreadContext(
            1, "t", module.get_function("f"), memoize_stack=memoize)

    def test_snapshot_names_frames(self):
        _, thread = self.make_thread()
        assert [entry[0] for entry in thread.call_stack()] == ["f"]

    def test_repeated_snapshot_hits_the_memo(self):
        _, thread = self.make_thread()
        first = thread.call_stack()
        assert thread.call_stack() is first

    def test_call_invalidates(self):
        module, thread = self.make_thread()
        before = thread.call_stack()
        thread.push_frame(Frame(module.get_function("g")))
        after = thread.call_stack()
        assert [entry[0] for entry in after] == ["f", "g"]
        assert after != before

    def test_ret_invalidates(self):
        module, thread = self.make_thread()
        thread.push_frame(Frame(module.get_function("g")))
        deep = thread.call_stack()
        thread.pop_frame()
        shallow = thread.call_stack()
        assert [entry[0] for entry in shallow] == ["f"]
        assert shallow != deep

    def test_memo_tracks_top_frame_pc(self):
        _, thread = self.make_thread()
        at_call = thread.call_stack()
        thread.top.index += 1  # f's pc moves from the call to the ret
        at_ret = thread.call_stack()
        assert at_call != at_ret
        assert at_ret[-1][2] == 11

    def test_clear_frames_empties_snapshot(self):
        _, thread = self.make_thread()
        thread.call_stack()
        thread.clear_frames()
        assert thread.call_stack() == ()

    def test_memoized_matches_reference_mode(self):
        module, memoized = self.make_thread(memoize=True)
        _, plain = self.make_thread(memoize=False)
        for thread in (memoized, plain):
            thread.push_frame(Frame(module.get_function("g")))
        assert memoized.call_stack() == plain.call_stack()
        for thread in (memoized, plain):
            thread.pop_frame()
            thread.top.index += 1
        assert memoized.call_stack() == plain.call_stack()


class TestDescribeMemo:
    def typed_block(self):
        memory = Memory()
        box = StructType("box", [("a", I64), ("b", I64)])
        return memory.allocate(16, MemoryBlock.HEAP, name="h",
                               value_type=box), box

    def test_cached_matches_pure(self):
        block, _ = self.typed_block()
        for offset in (0, 4, 8, 15):
            assert block.describe_offset_cached(offset) == \
                block.describe_offset(offset)

    def test_cache_is_per_offset(self):
        block, _ = self.typed_block()
        first = block.describe_offset_cached(8)
        assert block.describe_offset_cached(8) == first
        assert block.describe_offset_cached(0) != first

    def test_cast_typing_invalidates(self):
        memory = Memory()
        block = memory.allocate(16, MemoryBlock.HEAP, name="h")
        assert block.describe_offset_cached(8) == "h+8"
        box = StructType("box", [("a", I64), ("b", I64)])
        # what VM._maybe_type_block does when a cast types the block
        block.value_type = box
        block.fields = box.layout()
        block.invalidate_descriptions()
        assert block.describe_offset_cached(8) == "h.b"


class TestBlockAtMemo:
    def test_repeated_and_alternating_lookups(self):
        memory = Memory()
        a = memory.allocate(8, MemoryBlock.HEAP, name="a")
        c = memory.allocate(8, MemoryBlock.HEAP, name="c")
        assert memory.block_at(a.base) is a
        assert memory.block_at(a.base + 7) is a  # memo hit
        assert memory.block_at(c.base + 4) is c  # memo miss, rebind
        assert memory.block_at(c.base) is c
        assert memory.block_at(a.base) is a

    def test_free_keeps_lookup_correct(self):
        memory = Memory()
        a = memory.allocate(8, MemoryBlock.HEAP, name="a")
        assert memory.block_at(a.base) is a  # primes the memo
        assert memory.free(a.base, 1, 0, ()) is None
        found = memory.block_at(a.base)
        assert found is a and found.freed  # freed blocks stay visible (UAF)


class TestDifferentialOracle:
    def test_counter_race_identical_across_seeds(self):
        spec = spec_for("counter", build_counter_race, max_steps=20_000)
        diff = diff_program(spec, seeds=range(6))
        assert diff.divergences == []
        assert diff.reference_steps == diff.optimized_steps > 0

    def test_adhoc_sync_identical(self):
        spec = spec_for("adhoc", build_adhoc_sync_module, max_steps=20_000)
        assert diff_program(spec, seeds=range(6)).divergences == []

    def test_realloc_of_described_block_identical(self):
        spec = spec_for("re", build_realloc_module, max_steps=5_000)
        divergence, reference, optimized = diff_seed(spec, 0)
        assert divergence is None
        assert reference.reason == optimized.reason == "finished"
        # the realloc'd block's field names resolve through the lazy memo
        variables = [record[9] for record in optimized.events
                     if record[0] == "access" and record[9]]
        assert any(variable.endswith(".a") for variable in variables)
        assert any(variable.endswith(".b") for variable in variables)

    def test_registered_app_identical(self):
        from repro.apps.registry import spec_by_name
        spec = spec_by_name("apache_log")
        assert diff_program(spec, seeds=range(3)).divergences == []

    def test_compare_detects_tampered_event(self):
        spec = spec_for("counter", build_counter_race, max_steps=20_000)
        _, reference, optimized = diff_seed(spec, 1)
        optimized.events[3] = ("tampered",)
        divergence = compare_fingerprints(reference, optimized)
        assert divergence is not None
        assert divergence.field == "events" and divergence.index == 3
        assert "tampered" in divergence.describe()

    def test_compare_detects_missing_tail_event(self):
        spec = spec_for("counter", build_counter_race, max_steps=20_000)
        _, reference, optimized = diff_seed(spec, 2)
        optimized.events.pop()
        divergence = compare_fingerprints(reference, optimized)
        assert divergence is not None
        assert divergence.field == "events"
        assert divergence.index == len(optimized.events)

    def test_compare_detects_fault_divergence(self):
        spec = spec_for("counter", build_counter_race, max_steps=20_000)
        _, reference, optimized = diff_seed(spec, 3)
        optimized.faults.append((FaultKind.BUFFER_OVERFLOW.value, 1, 0, 0,
                                 "injected", ()))
        divergence = compare_fingerprints(reference, optimized)
        assert divergence is not None
        assert divergence.field == "faults"


class TestVerificationOracle:
    """diff_counters also holds both verification stages' per-report
    outcomes identical between reference and optimized execution."""

    def test_outcomes_compared_and_identical(self):
        from repro.apps.registry import spec_by_name

        diff = diff_counters(spec_by_name("libsafe"))
        assert diff.identical and diff.divergences == []
        outcomes = diff.optimized_verifications
        assert outcomes == diff.reference_verifications
        uid, verified, runs, livelocks, hints = outcomes["race"][0]
        assert uid.startswith("r") and runs >= 1
        assert any(entry[1] for entry in outcomes["race"])  # some verified
        assert outcomes["vulnerability"]
        assert diff.as_dict()["verifications_identical"] is True

    @pytest.mark.parametrize("stage", ["race", "vulnerability"])
    def test_outcome_mismatch_records_divergence(self, monkeypatch, stage):
        from repro.apps.registry import spec_by_name
        from repro.runtime import diffcheck

        original = diffcheck.verification_outcomes
        calls = []

        def tampered(result):
            outcomes = original(result)
            calls.append(result)
            if len(calls) == 2:  # the optimized leg
                entry = outcomes[stage][0]
                outcomes[stage][0] = entry[:2] + (entry[2] + 1,) + entry[3:]
            return outcomes

        monkeypatch.setattr(diffcheck, "verification_outcomes", tampered)
        diff = diff_counters(spec_by_name("libsafe"))
        assert not diff.identical
        divergence, = diff.divergences
        assert divergence.field == "%s_verifications" % stage
        assert divergence.index == 0
        assert diff.as_dict()["verifications_identical"] is False
        assert diff.as_dict()["counters_identical"] is True


class TestAnnotatedReportOracle:
    """diff_counters compares the annotated report sets in full — the
    optimized leg replays event tapes, the reference leg re-executes."""

    def test_fingerprints_compared_and_identical(self):
        from repro.apps.registry import spec_by_name

        diff = diff_counters(spec_by_name("libsafe"))
        assert diff.optimized_annotated
        assert diff.optimized_annotated == diff.reference_annotated
        assert diff.as_dict()["annotated_reports_identical"] is True

    def test_subsequent_read_mismatch_records_divergence(self, monkeypatch):
        from repro.apps.registry import spec_by_name
        from repro.runtime import diffcheck

        original = diffcheck.report_fingerprints
        calls = []

        def tampered(reports):
            fingerprints = original(reports)
            calls.append(reports)
            if len(calls) == 2:  # the optimized leg
                entry = fingerprints[0]
                fingerprints[0] = entry[:5] + (entry[5] + (("extra",),),)
            return fingerprints

        monkeypatch.setattr(diffcheck, "report_fingerprints", tampered)
        diff = diff_counters(spec_by_name("libsafe"))
        assert not diff.identical
        divergence, = diff.divergences
        assert divergence.field == "annotated_reports"
        assert divergence.index == 0
        assert diff.as_dict()["annotated_reports_identical"] is False
        assert diff.as_dict()["counters_identical"] is True


class TestReferenceMode:
    def test_context_manager_sets_vm_default(self):
        module = build_counter_race()
        with reference_execution():
            assert VM(module).reference is True
        assert VM(module).reference is False

    def test_explicit_flag_wins_over_ambient(self):
        module = build_counter_race()
        with reference_execution():
            assert VM(module, reference=False).reference is False
        assert VM(module, reference=True).reference is True

    def test_reference_vm_disables_memos(self):
        module = build_counter_race()
        vm = VM(module, reference=True)
        thread = vm.start("main")
        assert thread.memoize_stack is False
        assert vm.memory._memoize is False


class TestRunClamp:
    def build_spin(self):
        b = IRBuilder(Module("spin"))
        b.begin_function("main", I32, [], source_file="a.c")
        b.br("spin", line=1)
        b.at("spin")
        b.br("spin", line=2)
        b.end_function()
        verify_module(b.module)
        return b.module

    @pytest.mark.parametrize("reference", [False, True])
    def test_run_max_steps_clamped_to_global_budget(self, reference):
        vm = VM(self.build_spin(), max_steps=100, reference=reference)
        vm.start("main")
        result = vm.run(max_steps=500)
        assert result.reason == "step-limit"
        assert vm.step == 100

    @pytest.mark.parametrize("reference", [False, True])
    def test_resumed_runs_accumulate_to_budget(self, reference):
        vm = VM(self.build_spin(), max_steps=100, reference=reference)
        vm.start("main")
        vm.run(max_steps=40)
        assert vm.step == 40
        vm.run(max_steps=40)
        assert vm.step == 80
        result = vm.run(max_steps=40)  # would reach 120 without the clamp
        assert vm.step == 100
        assert result.reason == "step-limit"
