"""A compact, replayable recording of one execution's trace events.

The detector stages of the pipeline observe the same schedules twice: the
raw detect sweep, then the annotated re-run of section 5.1, whose
annotations only change what the observer reports, never the schedule.  An
:class:`EventTape` attached to the first sweep records exactly what a
happens-before detector consumes — access, sync and thread-lifecycle
events — so the second sweep can replay the tape into a fresh detector
instead of executing the program again (race detection on a replay, as in
Ronsse & De Bosschere's execution replay).

Encoding: every event is a fixed-length record of ints in an
``array('q')``; instructions travel by module uid, and call stacks,
``variable`` descriptions and other objects by index into one interned
table.  The int stream is zlib-compressed (level 1) in chunks of at most
:data:`CHUNK_BYTES` raw bytes; a record never straddles two chunks, so
replay decodes one chunk at a time and walks it by index.  A sealed tape
is plain data (bytes, ints, strings, tuples) and pickles across process
boundaries.

:class:`repro.runtime.diffcheck.TraceRecorder` is the same tape with the
remaining hooks (alloc, free, external call) switched on.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from typing import Dict, Iterator, List, Optional

from repro.runtime.events import (
    AccessEvent,
    AllocEvent,
    ExternalCallEvent,
    FreeEvent,
    SyncEvent,
    ThreadLifecycleEvent,
    TraceObserver,
)

#: Raw bytes per compressed chunk, at most.  zlib's worst-case expansion
#: of incompressible input is a few bytes per 16 KB block, so a chunk's
#: compressed size stays below 64 KB as well.
CHUNK_BYTES = 64_000

_pack_access = struct.Struct("9q").pack
_pack_4 = struct.Struct("4q").pack
_pack_5 = struct.Struct("5q").pack
_pack_7 = struct.Struct("7q").pack

#: A chunk is flushed once it holds more than this, so even the longest
#: record (an access, 9 ints) never takes it past :data:`CHUNK_BYTES`.
_FLUSH_AT = CHUNK_BYTES - 9 * 8

_WRITE, _ATOMIC, _BIG_VALUE = 1, 2, 4
_ACCESS_CODES = 8  # codes 0-7: an access with its flag bits
_SYNC = {SyncEvent.ACQUIRE: 8, SyncEvent.RELEASE: 9}
_THREAD = {ThreadLifecycleEvent.CREATE: 10, ThreadLifecycleEvent.START: 11,
           ThreadLifecycleEvent.EXIT: 12, ThreadLifecycleEvent.JOIN: 13}
_ALLOC, _FREE, _EXTERNAL = 14, 15, 16
_SYNC_KIND = {code: kind for kind, code in _SYNC.items()}
_THREAD_KIND = {code: kind for kind, code in _THREAD.items()}

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


class EventTape(TraceObserver):
    """Records access, sync and thread events; replays them in order."""

    def __init__(self):
        self.chunks: List[bytes] = []
        #: Interned call stacks, variable names and other objects.
        self.objects: List = []
        self._buffer = bytearray()
        self._index: Optional[Dict] = {}

    # ------------------------------------------------------------------
    # recording
    #
    # Records are packed straight into a bytearray: no per-event container
    # object, so recording adds no garbage-collector pressure to the sweep.

    def _intern(self, value) -> int:
        index = self._index.get(value)
        if index is None:
            index = self._index[value] = len(self.objects)
            self.objects.append(value)
        return index

    def _add(self, record: bytes) -> None:
        self._buffer += record
        if len(self._buffer) > _FLUSH_AT:
            self._flush()

    def _flush(self) -> None:
        if self._buffer:
            self.chunks.append(zlib.compress(bytes(self._buffer), 1))
            self._buffer = bytearray()

    def seal(self) -> "EventTape":
        """Compress the tail and drop the recording index; returns self.

        A sealed tape replays and pickles; it records nothing more.
        """
        self._flush()
        self._index = None
        return self

    def on_access(self, event: AccessEvent) -> None:
        index = self._index
        stack = index.get(event.call_stack)
        if stack is None:
            stack = self._intern(event.call_stack)
        variable = event.variable
        name = index.get(variable)
        if name is None:
            name = self._intern(variable)
        code = (_WRITE if event.is_write else 0) | \
            (_ATOMIC if event.is_atomic else 0)
        value = event.value
        if not _INT64_MIN <= value <= _INT64_MAX:
            code |= _BIG_VALUE
            value = self._intern(value)
        self._add(_pack_access(
            code, event.thread_id, event.step, event.instruction.uid or 0,
            event.address, event.size, value, stack, name))

    def on_sync(self, event: SyncEvent) -> None:
        instruction = event.instruction
        self._add(_pack_5(
            _SYNC[event.kind], event.thread_id, event.step, event.address,
            instruction.uid or 0 if instruction is not None else 0))

    def on_thread(self, event: ThreadLifecycleEvent) -> None:
        self._add(_pack_4(_THREAD[event.kind], event.thread_id, event.step,
                          event.other_thread_id))

    # ------------------------------------------------------------------
    # replay

    def _decoded(self) -> Iterator[List[int]]:
        """The int stream, one chunk at a time (unsealed tail last)."""
        for chunk in self.chunks:
            yield array("q", zlib.decompress(chunk)).tolist()
        if self._buffer:
            yield array("q", bytes(self._buffer)).tolist()

    def replay(self, observer: TraceObserver, module=None) -> None:
        """Feed every recorded event to ``observer``, in recorded order.

        Instructions are resolved by uid against ``module`` (None without
        one).  Each call gets a fresh event object, as from the VM.
        """
        objects = self.objects
        instruction = module.instruction_by_uid if module is not None \
            else (lambda uid: None)
        for values in self._decoded():
            i, end = 0, len(values)
            while i < end:
                code = values[i]
                if code < _ACCESS_CODES:
                    (_, thread_id, step, uid, address, size, value, stack,
                     name) = values[i:i + 9]
                    i += 9
                    observer.on_access(AccessEvent(
                        thread_id, step, instruction(uid), address, size,
                        bool(code & _WRITE), objects[value]
                        if code & _BIG_VALUE else value,
                        bool(code & _ATOMIC), objects[stack], objects[name],
                    ))
                elif code in _SYNC_KIND:
                    _, thread_id, step, address, uid = values[i:i + 5]
                    i += 5
                    observer.on_sync(SyncEvent(
                        thread_id, step, _SYNC_KIND[code], address,
                        instruction(uid) if uid else None,
                    ))
                elif code in _THREAD_KIND:
                    _, thread_id, step, other = values[i:i + 4]
                    i += 4
                    observer.on_thread(ThreadLifecycleEvent(
                        thread_id, step, _THREAD_KIND[code], other))
                elif code == _ALLOC:
                    _, thread_id, step, address, size = values[i:i + 5]
                    i += 5
                    observer.on_alloc(AllocEvent(thread_id, step, address,
                                                 size))
                elif code == _FREE:
                    _, thread_id, step, address = values[i:i + 4]
                    i += 4
                    observer.on_free(FreeEvent(thread_id, step, address))
                else:
                    (_, thread_id, step, uid, name, arguments,
                     stack) = values[i:i + 7]
                    i += 7
                    observer.on_external_call(ExternalCallEvent(
                        thread_id, step, objects[name], objects[arguments],
                        instruction(uid) if uid else None, objects[stack],
                    ))

    def __repr__(self) -> str:
        return "<EventTape %d chunks, %d bytes, %d objects>" % (
            len(self.chunks), sum(map(len, self.chunks)), len(self.objects))


class FullEventTape(EventTape):
    """An :class:`EventTape` that also records alloc, free and external
    calls — every event the VM emits."""

    def on_alloc(self, event: AllocEvent) -> None:
        self._add(_pack_5(_ALLOC, event.thread_id, event.step, event.address,
                          event.size))

    def on_free(self, event: FreeEvent) -> None:
        self._add(_pack_4(_FREE, event.thread_id, event.step, event.address))

    def on_external_call(self, event: ExternalCallEvent) -> None:
        instruction = event.instruction
        self._add(_pack_7(
            _EXTERNAL, event.thread_id, event.step,
            instruction.uid or 0 if instruction is not None else 0,
            self._intern(event.name), self._intern(event.arguments),
            self._intern(event.call_stack)))
