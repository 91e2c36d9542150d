"""How fast the host runs Python, sampled while the benchmark runs.

The benchmark's reference host is a 2-vCPU cloud VM whose speed drifts
with its neighbours' load: a fixed loop's time varies up to 3x from one
minute to the next, and whole-pass wall times by 15–25% between runs of
identical work.  :class:`HostSpeed` measures that drift where it happens:
every :data:`INTERVAL` seconds a ``SIGALRM`` handler times a fixed
pure-Python probe loop that imports nothing from ``repro``, so no change to
the program can move it.  An operation's *speed factor* is
:data:`REFERENCE_PROBE_S` over the trimmed mean of the probes taken while it
ran; its seconds times that factor are seconds at the reference speed.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

#: Seconds between probes.
INTERVAL = 0.01

#: Iterations of the probe loop (about 14 µs on the reference host).
PROBE_ROUNDS = 200

#: Mean probe seconds on the reference host.  Only scales the results.
REFERENCE_PROBE_S = 1.4e-5

#: An operation with fewer probes than this uses the latest this many.
MIN_PROBES = 10


class HostSpeed:
    """A context manager sampling host speed; one per pass."""

    def __init__(self):
        self.samples: List[float] = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        started = time.perf_counter()
        total = 0
        for index in range(PROBE_ROUNDS):
            total += index * index
        self.samples.append(time.perf_counter() - started)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int) -> float:
        """The speed factor over the probes taken after ``mark()``
        returned ``since`` (at least the latest :data:`MIN_PROBES`).
        A tenth of the probes at each end is dropped: a probe that the
        host descheduled mid-loop says nothing about the operation."""
        window = self.samples[since:]
        if len(window) < MIN_PROBES:
            window = self.samples[-MIN_PROBES:]
        if not window:
            return 1.0
        window = sorted(window)
        trim = len(window) // 10
        if trim:
            window = window[trim:-trim]
        return REFERENCE_PROBE_S / statistics.fmean(window)
