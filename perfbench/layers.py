"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer — the
interpreter's run loop, the schedulers' ``choose``, memory checks, the
detector observers, the debugger, the verifiers, the repair gates, the
payload codec and the result cache — for the duration of a ``with``
block, and restores every original on exit.  Nothing under ``src/`` is
changed: module-level functions are replaced in their defining module
*and* in every ``repro`` module that imported the name, so callers that
looked the name up at import time see the wrapper too.

Each wrapped call records a span boundary: call count, total seconds
(outermost call only, so recursion is not counted twice) and self seconds
(the call's duration minus the part covered by wrapped callees).  Work
counts are taken at the same boundaries: VM steps per ``VM.run`` call,
attributed to the enclosing pipeline stage, breakpoint hits, cache
hits and bytes written, verified and realized outcomes.
"""

from __future__ import annotations

import gc
import os
import sys
import time
import weakref
from typing import Callable, Dict, List, Optional, Tuple

#: The five pipeline stages, in execution order (``OwlPipeline._stage_*``).
STAGES = (
    "detect",
    "schedule_reduction",
    "race_verification",
    "vulnerability_analysis",
    "vulnerability_verification",
)

#: Steps executed while no pipeline stage is open (the repair gates).
OUTSIDE = "outside_pipeline"

#: Scheduler classes by metric name; any other chooser counts as "other".
SCHEDULERS = (
    ("RandomScheduler", "random"),
    ("PCTScheduler", "pct"),
    ("RoundRobinScheduler", "round_robin"),
    ("ScriptedScheduler", "other"),
    ("RecordingScheduler", "other"),
    ("ReplayScheduler", "other"),
)

PAYLOAD_ENCODE = ("access_to_payload", "report_to_payload",
                  "reports_to_payloads", "annotations_to_payload",
                  "vuln_to_payload")
PAYLOAD_DECODE = ("access_from_payload", "report_from_payload",
                  "reports_from_payloads", "annotations_from_payload",
                  "vuln_from_payload")


class _Stat:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0


class LayerTracer:
    """Installs timing wrappers on every layer; a context manager.

    One instance traces one pass.  ``stats`` maps a span key to its
    counters, ``counts`` holds the work counts, ``stage_steps`` the VM
    steps per pipeline stage.
    """

    def __init__(self):
        self.stats: Dict[str, _Stat] = {}
        self.counts: Dict[str, float] = {}
        self.stage_steps: Dict[str, int] = {}
        self._frames: List[List[float]] = []
        self._stages: List[str] = []
        self._active: Dict[str, int] = {}
        self._restore: List[Tuple[object, str, object, bool]] = []
        self._aliases: Dict[int, Tuple[object, object]] = {}
        self._vms = weakref.WeakSet()
        self._vm_ids = set()
        self._dead_vm_steps = 0
        #: Every step of every VM created while tracing, counted from the
        #: VMs themselves rather than from ``VM.run`` boundaries; set on exit.
        self.vm_steps_executed = 0

    # ------------------------------------------------------------------
    # the span wrapper

    def _stat(self, key: str) -> _Stat:
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = _Stat()
        return stat

    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, fn: Callable, key, before=None, after=None,
              active: Optional[str] = None) -> Callable:
        """A wrapper timing ``fn`` under ``key`` (a string, or a callable
        returning one at call time).  ``before(args)`` returns a token that
        ``after(args, result, token)`` receives; ``active`` names a layer
        marked open while the call runs."""
        frames = self._frames
        perf = time.perf_counter
        static = self._stat(key) if isinstance(key, str) else None
        stat_for = self._stat
        open_layers = self._active

        def wrapper(*args, **kwargs):
            stat = static if static is not None else stat_for(key())
            token = before(args) if before is not None else None
            if active is not None:
                open_layers[active] = open_layers.get(active, 0) + 1
            frame = [0.0]
            frames.append(frame)
            stat.depth += 1
            started = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - started
                stat.depth -= 1
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                stat.calls += 1
                if not stat.depth:
                    stat.total += elapsed
                stat.self_time += elapsed - frame[0]
                if active is not None:
                    open_layers[active] -= 1
            if after is not None:
                after(args, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_method(self, cls, name: str, key, **hooks) -> None:
        own = name in cls.__dict__
        original = getattr(cls, name)
        self._restore.append((cls, name, cls.__dict__.get(name), own))
        setattr(cls, name, self._wrap(original, key, **hooks))

    def _patch_function(self, module, name: str, key, **hooks) -> None:
        """Replace ``module.name`` and every ``repro`` alias of it."""
        original = getattr(module, name)
        wrapper = self._wrap(original, key, **hooks)
        self._aliases[id(wrapper)] = (wrapper, original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attribute, wrapper)

    # ------------------------------------------------------------------
    # install / uninstall

    def __enter__(self) -> "LayerTracer":
        from repro.detectors import predict
        from repro.detectors.tsan import TSanDetector
        from repro.ir import patch
        from repro.owl import batch, integration, repair
        from repro.owl.adhoc import AdhocSyncDetector
        from repro.owl.cache import ResultCache
        from repro.owl.pipeline import OwlPipeline
        from repro.owl.race_verifier import DynamicRaceVerifier
        from repro.owl.vuln_analysis import VulnerabilityAnalyzer
        from repro.owl.vuln_verifier import DynamicVulnerabilityVerifier
        from repro.runtime import scheduler
        from repro.runtime.debugger import Debugger
        from repro.runtime.interpreter import VM
        from repro.runtime.memory import Memory

        # Import every module that may alias a wrapped function before
        # patching, so no alias is bound to a wrapper after uninstall.
        import repro.owl.explore  # noqa: F401
        import repro.owl.replay  # noqa: F401

        for stage in STAGES:
            self._patch_method(OwlPipeline, "_stage_" + stage,
                               "stage." + stage,
                               before=self._stage_open(stage),
                               after=self._stage_close)
        self._patch_method(VM, "__init__", "interpreter.init",
                           after=self._vm_created)
        self._restore.append((VM, "__del__", VM.__dict__.get("__del__"),
                              "__del__" in VM.__dict__))
        VM.__del__ = self._vm_finalizer()
        self._patch_method(VM, "run", "interpreter.run",
                           before=self._vm_before, after=self._vm_after)
        for class_name, label in SCHEDULERS:
            self._patch_method(getattr(scheduler, class_name), "choose",
                               "scheduler.%s" % label)
        self._patch_method(Memory, "check_access", "memory.check_access")
        self._patch_method(TSanDetector, "on_access", "detector.on_access")
        self._patch_method(TSanDetector, "on_sync", "detector.on_sync")
        self._patch_method(Debugger, "check", "debugger.check",
                           after=self._breakpoint)
        self._patch_function(
            integration, "run_detector",
            lambda: "integration.run_detector.%s" % self._current_stage())
        self._patch_method(DynamicRaceVerifier, "verify", "race_verifier",
                           after=self._race_verified, active="race_verifier")
        self._patch_method(DynamicVulnerabilityVerifier, "verify",
                           "vuln_verifier", after=self._vuln_verified,
                           active="vuln_verifier")
        self._patch_method(AdhocSyncDetector, "analyze", "adhoc")
        self._patch_method(VulnerabilityAnalyzer, "analyze_report",
                           "vuln_analysis")
        for gate in ("gate_oracle", "gate_detector", "gate_schedulers"):
            self._patch_function(repair, gate, "repair." + gate)
        self._patch_function(repair, "repair_program", "repair.program",
                             after=self._repaired)
        self._patch_method(predict.SyncPreservingClosure, "run",
                           "predict.closure")
        self._patch_function(patch, "clone_module", "patch.clone")
        for name in PAYLOAD_ENCODE:
            self._patch_function(batch, name, "payload.encode." + name)
        for name in PAYLOAD_DECODE:
            self._patch_function(batch, name, "payload.decode." + name)
        self._patch_method(ResultCache, "get", "cache.get",
                           after=self._cache_get)
        self._patch_method(ResultCache, "put", "cache.put",
                           after=self._cache_put)
        return self

    def __exit__(self, *exc) -> None:
        # Collect unreachable VMs while the step-counting finalizer is
        # still installed, then take the total from the VMs themselves.
        gc.collect()
        self.vm_steps_executed = self._dead_vm_steps + sum(
            vm.step for vm in self._vms)
        for cls, name, value, own in reversed(self._restore):
            if own:
                setattr(cls, name, value)
            else:
                delattr(cls, name)
        self._restore.clear()
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(vars(loaded).items()):
                pair = self._aliases.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(loaded, attribute, pair[1])
        self._aliases.clear()

    # ------------------------------------------------------------------
    # hooks

    def _current_stage(self) -> str:
        return self._stages[-1] if self._stages else OUTSIDE

    def _stage_open(self, stage: str):
        def before(args):
            self._stages.append(stage)
        return before

    def _stage_close(self, args, result, token) -> None:
        self._stages.pop()

    def _vm_created(self, args, result, token) -> None:
        self._vms.add(args[0])
        self._vm_ids.add(id(args[0]))

    def _vm_finalizer(self):
        # Only VMs created while tracing count: one left over from an
        # untraced pass may be collected in the traced window.
        def __del__(vm) -> None:
            if id(vm) in self._vm_ids:
                self._vm_ids.discard(id(vm))
                self._dead_vm_steps += vm.step
        return __del__

    def _vm_before(self, args):
        return args[0].step

    def _vm_after(self, args, result, before) -> None:
        steps = args[0].step - before
        stage = self._current_stage()
        self.stage_steps[stage] = self.stage_steps.get(stage, 0) + steps
        self._count("interpreter.steps", steps)
        for layer in ("race_verifier", "vuln_verifier"):
            if self._active.get(layer):
                self._count(layer + ".steps", steps)
                self._count(layer + ".vm_runs")

    def _breakpoint(self, args, hit, token) -> None:
        if hit:
            self._count("debugger.breakpoint_hits")

    def _race_verified(self, args, verification, token) -> None:
        self._count("race_verifier.attempts", verification.runs_used)
        if verification.verified:
            self._count("race_verifier.verified")

    def _vuln_verified(self, args, verification, token) -> None:
        self._count("vuln_verifier.attempts", verification.runs_used)
        if verification.attack_realized:
            self._count("vuln_verifier.realized")

    def _repaired(self, args, repair, token) -> None:
        block = repair.metrics_block()
        self._count("repair.candidates", block["candidates"])
        self._count("repair.emitted", block["emitted"])

    def _cache_get(self, args, value, token) -> None:
        self._count("cache.hits" if value is not None else "cache.misses")

    def _cache_put(self, args, path, token) -> None:
        if path is not None:
            self._count("cache.bytes_written", os.path.getsize(path))

    # ------------------------------------------------------------------
    # results

    def total(self, key: str) -> float:
        stat = self.stats.get(key)
        return stat.total if stat is not None else 0.0

    def self_time(self, key: str) -> float:
        stat = self.stats.get(key)
        return stat.self_time if stat is not None else 0.0

    def calls(self, key: str) -> int:
        stat = self.stats.get(key)
        return stat.calls if stat is not None else 0

    def prefix_self_time(self, prefix: str) -> float:
        return sum(stat.self_time for key, stat in self.stats.items()
                   if key.startswith(prefix))

