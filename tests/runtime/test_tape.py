"""The event tape: compact recording, bounded chunks, faithful replay."""

import pickle
import random
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors.annotations import AdhocSyncAnnotation, AnnotationSet
from repro.detectors.tsan import replay_tapes, run_seed, run_seeds
from repro.ir.instructions import Load, Store
from repro.runtime.diffcheck import TraceRecorder, report_fingerprints
from repro.runtime.events import (
    AccessEvent,
    SyncEvent,
    ThreadLifecycleEvent,
    TraceObserver,
)
from repro.runtime.interpreter import reference_execution
from repro.runtime.tape import CHUNK_BYTES, EventTape
from tests.helpers import build_adhoc_sync_module, build_counter_race
from tests.test_properties import build_random_module
from tests import test_properties


class _Collect(TraceObserver):
    def __init__(self):
        self.events = []

    def on_access(self, event):
        self.events.append(("access", event.thread_id, event.step,
                            event.instruction, event.address, event.size,
                            event.is_write, event.value, event.is_atomic,
                            event.call_stack, event.variable))

    def on_sync(self, event):
        self.events.append(("sync", event.thread_id, event.step, event.kind,
                            event.address, event.instruction))

    def on_thread(self, event):
        self.events.append(("thread", event.thread_id, event.step,
                            event.kind, event.other_thread_id))


class _Instruction:
    def __init__(self, uid):
        self.uid = uid


class _Module:
    """Resolves the synthetic instructions by uid, as a module does."""

    instructions = {uid: _Instruction(uid) for uid in range(1, 21)}

    def instruction_by_uid(self, uid):
        return self.instructions[uid]


def _random_events(count, seed=0):
    """Synthetic events with incompressible fields, in VM order."""
    rng = random.Random(seed)
    instructions = list(_Module.instructions.values())
    events = []
    for step in range(count):
        choice = rng.random()
        if choice < 0.8:
            value = rng.choice([
                rng.getrandbits(64), -rng.getrandbits(20),
                (1 << 64) - 1, 1 << 70, 0,
            ])
            events.append(AccessEvent(
                rng.randrange(8), step, rng.choice(instructions),
                rng.getrandbits(40),
                rng.choice([1, 2, 4, 8]), rng.random() < 0.5, value,
                rng.random() < 0.1,
                (("f%d" % rng.randrange(50), "x.c", rng.randrange(999)),),
                rng.choice([None, "g%d" % rng.randrange(500)]),
            ))
        elif choice < 0.9:
            events.append(SyncEvent(
                rng.randrange(8), step,
                rng.choice([SyncEvent.ACQUIRE, SyncEvent.RELEASE]),
                rng.getrandbits(40), rng.choice([None] + instructions)))
        else:
            events.append(ThreadLifecycleEvent(
                rng.randrange(8), step,
                rng.choice([ThreadLifecycleEvent.CREATE,
                            ThreadLifecycleEvent.JOIN,
                            ThreadLifecycleEvent.EXIT]),
                rng.randrange(8)))
    return events


def _feed(observer, events):
    for event in events:
        if isinstance(event, AccessEvent):
            observer.on_access(event)
        elif isinstance(event, SyncEvent):
            observer.on_sync(event)
        else:
            observer.on_thread(event)


class TestEncoding:
    def test_round_trip_of_every_field(self):
        events = _random_events(3000)
        expected, tape = _Collect(), EventTape()
        _feed(expected, events)
        _feed(tape, events)
        replayed = _Collect()
        tape.seal().replay(replayed, _Module())
        assert replayed.events == expected.events

    def test_unsealed_tail_replays_too(self):
        events = _random_events(50)
        expected, tape = _Collect(), EventTape()
        _feed(expected, events)
        _feed(tape, events)
        replayed = _Collect()
        tape.replay(replayed, _Module())
        assert not tape.chunks
        assert replayed.events == expected.events

    def test_compressed_chunks_stay_within_their_bound(self):
        """Incompressible fields, many chunks: every chunk holds at most
        CHUNK_BYTES raw bytes and compresses to at most 64 KB."""
        tape = EventTape()
        _feed(tape, _random_events(30_000, seed=7))
        tape.seal()
        assert len(tape.chunks) > 10
        for chunk in tape.chunks:
            assert len(zlib.decompress(chunk)) <= CHUNK_BYTES
            assert len(chunk) <= 64 * 1024
        assert CHUNK_BYTES <= 64 * 1024

    def test_sealed_tape_pickles(self):
        events = _random_events(2000, seed=3)
        tape = EventTape()
        _feed(tape, events)
        copy = pickle.loads(pickle.dumps(tape.seal()))
        original, replayed = _Collect(), _Collect()
        tape.replay(original, _Module())
        copy.replay(replayed, _Module())
        assert replayed.events == original.events

    def test_replay_resolves_instructions_by_uid(self):
        module = build_counter_race()
        run = run_seed(module, 0, tape=True)
        seen = _Collect()
        run.tape.replay(seen, module)
        accesses = [event for event in seen.events if event[0] == "access"]
        assert accesses
        for event in accesses:
            assert event[3] is module.instruction_by_uid(event[3].uid)

    def test_trace_recorder_records_match_a_live_recording(self):
        """TraceRecorder's records, decoded from its tape, equal the
        events normalized live as the VM emits them."""
        from repro.runtime.diffcheck import _Normalizer
        from repro.runtime.interpreter import VM
        from repro.runtime.scheduler import RandomScheduler

        module = build_random_module(
            [("heap", 0, 7), ("inc", 1, 0), ("locked_inc", 2, 0)], 2)
        vm = VM(module, scheduler=RandomScheduler(4), seed=4)
        recorder, live = TraceRecorder(), _Normalizer()
        vm.add_observer(recorder)
        vm.add_observer(live)
        vm.start("main")
        vm.run()
        kinds = {record[0] for record in live.records}
        assert kinds == {"access", "sync", "thread", "alloc", "free",
                         "external"}
        assert recorder.records == live.records
        assert recorder.seal().records == live.records


class TestDetectorSweeps:
    def test_replay_matches_a_live_annotated_sweep(self):
        module = build_adhoc_sync_module()
        raw, stats = run_seeds("tsan", module, range(6), tape=True)
        flag_read = next(i for i in module.instructions()
                         if isinstance(i, Load) and i.location.line == 21)
        flag_write = next(i for i in module.instructions()
                          if isinstance(i, Store) and i.location.line == 11)
        annotations = AnnotationSet([
            AdhocSyncAnnotation(flag_read, flag_write, "flag")])
        live, live_stats = run_seeds("tsan", module, range(6),
                                     annotations=annotations)
        replayed, replay_stats = replay_tapes(
            "tsan", module, stats, annotations=annotations)
        assert report_fingerprints(replayed) == report_fingerprints(live)
        assert [s.accesses for s in replay_stats] == \
            [s.accesses for s in live_stats]
        assert [s.reports for s in replay_stats] == \
            [s.reports for s in live_stats]
        assert all(s.steps == 0 for s in replay_stats)
        assert all(s.tape is None for s in replay_stats)

    def test_no_tape_unless_asked(self):
        module = build_counter_race()
        assert run_seed(module, 0).tape is None
        _, stats = run_seeds("tsan", module, range(2))
        assert all(stat.tape is None for stat in stats)

    def test_reference_mode_records_no_tape(self):
        module = build_counter_race()
        with reference_execution():
            run = run_seed(module, 0, tape=True)
        assert run.tape is None


class TestTapeReplayProperty:
    """On arbitrary IR, under both front ends (PCT runs fused), with any
    annotation: replaying the raw sweep's tapes into an annotated detector
    equals a live annotated sweep — reports with both records and every
    subsequent read, and per-seed access counts."""

    @given(test_properties.TestDifferentialExecutionProperties.op_lists,
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=500),
           st.sampled_from(["tsan", "ski"]),
           st.lists(st.tuples(st.integers(min_value=0, max_value=1000),
                              st.integers(min_value=0, max_value=1000)),
                    min_size=0, max_size=3))
    @settings(max_examples=20, deadline=None)
    def test_tape_replay_equals_live_annotated_run(self, ops, workers, seed,
                                                   kind, picks):
        module = build_random_module(ops, workers)
        worker = module.get_function("worker")
        instructions = [instruction for block in worker.blocks
                        for instruction in block.instructions]
        loads = [i for i in instructions if isinstance(i, Load)]
        stores = [i for i in instructions if isinstance(i, Store)]
        annotations = AnnotationSet()
        if loads and stores:
            for read_pick, write_pick in picks:
                annotations.add(AdhocSyncAnnotation(
                    loads[read_pick % len(loads)],
                    stores[write_pick % len(stores)]))
        seeds = range(seed, seed + 3)
        _, stats = run_seeds(kind, module, seeds, max_steps=30_000,
                             tape=True)
        live, live_stats = run_seeds(kind, module, seeds,
                                     annotations=annotations,
                                     max_steps=30_000)
        replayed, replay_stats = replay_tapes(kind, module, stats,
                                              annotations=annotations)
        assert report_fingerprints(replayed) == report_fingerprints(live)
        assert [s.accesses for s in replay_stats] == \
            [s.accesses for s in live_stats]
        assert [s.reason for s in replay_stats] == \
            [s.reason for s in live_stats]
