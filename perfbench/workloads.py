"""The benchmark's workloads, their operations, and the correctness checks.

An *operation* is one program's ``OwlPipeline(spec).run()`` or one
``repair_program`` call.  A *pass* runs every operation of a workload once,
serially, in one process (``jobs=1``).

The workload seed picks a window offset: every spec's ``detect_seeds`` and
``verify_seeds`` are shifted by the same offset, keeping their lengths, and
seed 0 is the paper configuration (offset 0).  Offsets come from
:data:`OFFSETS` — see its comment for why not every offset is used.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

from hostspeed import HostSpeed

#: Programs per workload, in the order a pass runs them.
PROGRAMS: Dict[str, Tuple[str, ...]] = {
    "tsan-apps": ("apache", "chrome", "libsafe", "memcached", "mysql", "ssdb"),
    "ski-linux": ("linux",),
    "fix-cached": ("memcached", "apache_log"),
}

WORKLOADS = tuple(PROGRAMS)

#: Linux's detect sweep under PCT spends ~95% of its steps in the few
#: seeds that exhaust the 250,000-step budget (these, among seeds 0-255).
#: A 16-seed window holding 0, 1, 2 or 3 of them costs 3.7, 7.0, 14.0 or
#: 18.5 s a pass, so a raw ``seed -> offset`` shift would measure how many
#: such seeds a window happens to hold, not the code.
LINUX_BUDGET_SEEDS = (8, 11, 16, 27, 58, 61, 83, 105, 126, 131, 170)

#: Window offsets whose 16-seed linux sweep holds exactly as many
#: budget-exhausting seeds as the paper window (two: 8 and 11).  Seed ``s``
#: uses ``OFFSETS[s % len(OFFSETS)]``; ``OFFSETS[0] == 0``.
OFFSETS: Tuple[int, ...] = tuple(
    offset for offset in range(0, 256 - 16)
    if sum(offset <= seed < offset + 16 for seed in LINUX_BUDGET_SEEDS) == 2
)

#: The committed Table 3 / Table 2 outputs: the reference at offset 0.
TABLE3 = os.path.join("benchmarks", "out", "table3_reduction.json")
TABLE2 = os.path.join("benchmarks", "out", "table2_detection.json")


def offset_for_seed(seed: int) -> int:
    return OFFSETS[seed % len(OFFSETS)]


def shifted_spec(name: str, offset: int):
    """A fresh, built spec with its seed windows shifted by ``offset``."""
    from repro.apps.registry import spec_by_name

    spec = spec_by_name(name)
    spec.detect_seeds = [seed + offset for seed in spec.detect_seeds]
    spec.verify_seeds = [seed + offset for seed in spec.verify_seeds]
    spec.build()
    return spec


# ---------------------------------------------------------------------------
# observable results


def _strip_timings(value):
    """A metrics block without anything that measures time or a path."""
    if isinstance(value, dict):
        return {key: _strip_timings(item) for key, item in value.items()
                if "seconds" not in key and "per_second" not in key
                and key != "root"}
    if isinstance(value, list):
        return [_strip_timings(item) for item in value]
    return value


def _variable_root(variable: Optional[str]) -> str:
    return re.sub(r"\[\d+\]", "", variable or "")


def matches_ground_truth(spec, attack) -> bool:
    """Whether a realized attack belongs to one of ``spec``'s known attacks:
    its site is a known attack's site, or its source race is on a known
    attack's racy variable (``acl_entries.priv`` belongs to
    ``acl_entries``; ``proxy_workers.busy`` to ``proxy_workers[0].busy``)."""
    if attack.ground_truth is not None:
        return True
    source = attack.vulnerability.source
    if source is None:
        return False
    racy = _variable_root(source.variable)
    for truth in spec.attacks:
        known = _variable_root(truth.racy_variable)
        if racy == known or racy.startswith(known + ".") \
                or known.startswith(racy + "."):
            return True
    return False


def pipeline_observation(spec, result) -> Dict:
    """The observable result of one pipeline run (ROADMAP's definition)."""
    return {
        "parity": result.counters.parity_dict(),
        "reports": {
            "raw": sorted(report.uid for report in result.raw_reports),
            "annotated": sorted(report.uid
                                for report in result.annotated_reports),
            "remaining": sorted(report.uid
                                for report in result.remaining_reports),
        },
        "dispositions": sorted(
            [record.uid, record.disposition, record.verdicts()]
            for record in result.provenance),
        "metrics": _strip_timings(result.metrics.as_dict()),
        "realized": sorted(truth.attack_id
                           for truth in result.detected_ground_truths()),
        "unmatched": sorted(
            str(attack.vulnerability.site.location)
            for attack in result.realized_attacks()
            if not matches_ground_truth(spec, attack)),
    }


def repair_observation(repair) -> Dict:
    block = repair.metrics_block()
    return {
        "targets": block["targets"],
        "candidates": block["candidates"],
        "emitted": block["emitted"],
        "ground_truth": block["ground_truth"],
        "strategies": [target.emitted.strategy if target.repaired else None
                       for target in repair.targets],
        "counters": block["counters"],
    }


#: The parts of an observation two repetitions of one operation must share.
REPEATED = ("parity", "reports", "dispositions", "realized", "unmatched",
            "targets", "candidates", "emitted", "ground_truth", "strategies")


def repeated_part(observation: Dict) -> Dict:
    return {key: value for key, value in observation.items()
            if key in REPEATED}


# ---------------------------------------------------------------------------
# operations and passes


class Operation:
    """One timed operation of a pass and what it observed."""

    def __init__(self, label: str, kind: str, program: str, seconds: float,
                 observation: Dict, stages: Optional[Dict[str, float]] = None):
        self.label = label
        self.kind = kind
        self.program = program
        self.seconds = seconds
        self.observation = observation
        #: Per-stage wall seconds from the pipeline's own metrics.
        self.stages = stages or {}
        #: Host-speed factor while it ran (:mod:`hostspeed`).
        self.speed = 1.0

    @property
    def normalized(self) -> float:
        """Seconds at the reference host speed."""
        return self.seconds * self.speed

    @property
    def timed(self) -> bool:
        """Part of ``wall_s``: everything but fix-cached's warm phase."""
        return not self.label.startswith("warm:")


class Pass:
    """One pass over a workload: its operations, in the order they ran."""

    def __init__(self, speed: HostSpeed):
        self.operations: List[Operation] = []
        self.fused_step_share = 0.0
        self._speed = speed
        self._mark = speed.mark()

    def add(self, operation: Operation) -> None:
        """Record an operation that just finished, with the host speed
        sampled since the previous one finished."""
        operation.speed = self._speed.factor(self._mark)
        self._mark = self._speed.mark()
        self.operations.append(operation)

    @property
    def wall_s(self) -> float:
        """Normalized seconds of the timed operations."""
        return sum(op.normalized for op in self.operations if op.timed)

    @property
    def raw_wall_s(self) -> float:
        """Measured seconds of the timed operations."""
        return sum(op.seconds for op in self.operations if op.timed)

    @property
    def rerun_s(self) -> float:
        """Normalized seconds of fix-cached's warm phase."""
        return sum(op.normalized for op in self.operations if not op.timed)

    def stage_seconds(self, stages: Sequence[str]) -> float:
        """Pipeline-reported seconds in ``stages`` over the timed
        operations, normalized like their operation."""
        return sum(op.stages.get(stage, 0.0) * op.speed
                   for op in self.operations if op.timed
                   for stage in stages)


def _run_pipeline(spec, label: str, cache=None) -> Tuple[Operation, object]:
    from repro.owl.pipeline import OwlPipeline

    started = time.perf_counter()
    result = OwlPipeline(spec, cache=cache).run()
    seconds = time.perf_counter() - started
    stages = {stage.name: stage.wall_seconds
              for stage in result.metrics.stages}
    operation = Operation(label, "pipeline", spec.name, seconds,
                          pipeline_observation(spec, result), stages)
    return operation, result


def _run_repair(spec, result, label: str, cache) -> Operation:
    from repro.owl.repair import repair_program

    started = time.perf_counter()
    repair = repair_program(spec, result=result, cache=cache)
    seconds = time.perf_counter() - started
    return Operation(label, "repair", spec.name, seconds,
                     repair_observation(repair))


def run_pass(workload: str, offset: int, work_dir: str) -> Pass:
    """Run one pass, sampling host speed throughout."""
    with HostSpeed() as speed:
        return _run_pass(workload, offset, work_dir, speed)


def _run_pass(workload: str, offset: int, work_dir: str,
              speed: HostSpeed) -> Pass:
    if workload != "fix-cached":
        # Specs are built fresh, before and outside any operation's time.
        specs = [shifted_spec(name, offset) for name in PROGRAMS[workload]]
        run = Pass(speed)
        for spec in specs:
            operation, result = _run_pipeline(spec, spec.name)
            run.add(operation)
            if result.metrics.fuse:
                run.fused_step_share = max(
                    run.fused_step_share,
                    result.metrics.fuse["fused_step_share"])
        return run
    from repro.owl.cache import ResultCache

    root = tempfile.mkdtemp(prefix="cache-", dir=work_dir)
    try:
        run = Pass(speed)
        for phase in ("cold", "warm"):
            # A new spec and cache object per phase, as a new ``owl fix``
            # invocation would have; the warm phase reads what cold wrote.
            specs = [shifted_spec(name, offset)
                     for name in PROGRAMS[workload]]
            for spec in specs:
                cache = ResultCache(root)
                operation, result = _run_pipeline(
                    spec, "%s:%s" % (phase, spec.name), cache=cache)
                run.add(operation)
                run.add(_run_repair(spec, result,
                                    "%s:%s:repair" % (phase, spec.name),
                                    cache))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return run


# ---------------------------------------------------------------------------
# correctness


def load_reference(root: str = ".") -> Dict[str, Dict]:
    """The committed Table 3 and Table 2 rows by program name."""
    reference: Dict[str, Dict] = {}
    for path in (TABLE3, TABLE2):
        with open(os.path.join(root, path)) as handle:
            for row in json.load(handle)["rows"]:
                reference.setdefault(row["Name"], {}).update(row)
    return reference


def reference_mismatches(spec, observation: Dict, row: Dict) -> List[str]:
    """How one offset-0 pipeline observation differs from its table rows."""
    parity = observation["parity"]
    expected = {
        "R.R.": parity["raw_reports"],
        "A.S.": parity["adhoc_syncs"],
        "R.V.E.": parity["verifier_eliminated"],
        "R.": parity["remaining"],
        "reduction": "%.1f%%" % (100 * parity["reduction_ratio"]),
        "# OWL reports": parity["vulnerability_reports"],
        "# atks found": len(observation["realized"]),
    }
    problems = ["%s: table %r, run %r" % (column, row[column], value)
                for column, value in expected.items()
                if column in row and row[column] != value]
    if "# atks found" in row and row["# atks found"] == row.get("# atks"):
        known = sorted(truth.attack_id for truth in spec.attacks)
        if observation["realized"] != known:
            problems.append("realized %r, expected every attack %r"
                            % (observation["realized"], known))
    return problems


def check_operation(spec, operation: Operation, first: Optional[Operation],
                    reference: Optional[Dict[str, Dict]]) -> List[str]:
    """Every reason ``operation`` fails; empty when it passes.

    ``first`` is the same operation's first repetition in this run;
    ``reference`` the committed rows, given only at offset 0.
    """
    observation = operation.observation
    problems: List[str] = []
    if operation.kind == "pipeline":
        if observation["unmatched"]:
            problems.append("realized attacks match no ground truth: %s"
                            % ", ".join(observation["unmatched"]))
        row = (reference or {}).get(operation.program)
        if row is not None:
            problems += reference_mismatches(spec, observation, row)
    else:
        truth = observation["ground_truth"]
        if truth["matched"] != truth["checked"]:
            problems.append("repair ground truth matched %d of %d"
                            % (truth["matched"], truth["checked"]))
    if first is not None and \
            repeated_part(observation) != repeated_part(first.observation):
        problems.append("differs from the first repetition")
    return problems
