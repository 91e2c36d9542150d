"""Coverage-guided schedule exploration with adaptive seed budgets.

The detectors' fixed seed sweep (``seeds=range(N)``) is blind: it spends
the same compute whether the last ten schedules found new races or nothing
at all.  Paper §6.3 runs SKI/TSan over *many* schedules precisely because
races only surface when the perturbation reaches a new interleaving — and
as RaceFixer observes for triage, duplicate observations dominate cost.
This driver replaces the blind sweep with a measured, early-stopping
exploration loop:

1. seeds run in **waves** (fanned out over the existing
   :mod:`repro.owl.batch` process pool when ``jobs > 1``);
2. after each wave the per-seed :class:`repro.runtime.coverage.SeedCoverage`
   is merged — in seed order, deterministically — into a
   :class:`repro.runtime.coverage.CoverageMap`, yielding the wave's
   ``new_pairs`` delta;
3. a wave that adds nothing is *dry*; a dry wave **escalates** the
   schedule family (TSan: uniform random → PCT; SKI: deeper PCT) while
   budget remains, because more of the same family has stopped paying;
4. exploration stops at **saturation** — ``saturation_k`` consecutive dry
   waves — or when the ``max_seeds`` budget is spent, whichever is first.

Determinism: wave composition, escalation and stopping depend only on the
seed-ordered coverage merge, so the explored seed set, the merged
:class:`ReportSet` and every wave counter are bit-identical at any job
count — the same parity contract :class:`repro.owl.pipeline.StageCounters`
keeps, and tested the same way (jobs=1 vs jobs=2).  Per-seed results
(reports, stats, coverage snapshot) are cacheable through the ordinary
``detect`` stage of :class:`repro.owl.cache.ResultCache`; the schedule
family and depth are part of each key, so escalated re-runs of a seed
never collide with its base-family entry.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.detectors.report import ReportSet
from repro.detectors.tsan import front_end, run_seed, run_seeds
from repro.owl.batch import (
    annotations_to_payload,
    can_parallelize,
    report_from_payload,
    report_to_payload,
    run_seeds_parallel,
)
from repro.runtime.coverage import CoverageMap, SeedCoverage
from repro.runtime.metrics import RunStats

#: Schedule-family ladders: the base rung (the front end's default
#: family) first, then each escalation.  TSan escalates from uniform
#: random into PCT (a stronger bug-finding family); SKI is PCT already,
#: so escalation deepens it.
_RANDOM_LADDER: Tuple[Tuple[str, int], ...] = (
    ("random", 3), ("pct", 3), ("pct", 5),
)


def _pct_ladder(depth: int) -> Tuple[Tuple[str, int], ...]:
    return (("pct", depth), ("pct", depth + 2), ("pct", depth + 4))


class ExplorePolicy:
    """Knobs of one exploration run (and the sink for its results).

    - ``max_seeds`` — the total seed budget (the blind sweep this replaces
      is ``range(20)``; exploration may stop well short of it).
    - ``wave_size`` — seeds per wave; coverage is measured between waves.
    - ``saturation_k`` — consecutive dry waves before declaring saturation.
    - ``escalate`` — whether a dry wave climbs the schedule-family ladder
      before the budget runs out; ``False`` keeps the base family for the
      whole run (useful when comparing against a fixed sweep).
    - ``ladder`` — explicit ``((family, depth), ...)`` override; by default
      derived from the detector kind.

    Every exploration run driven by this policy appends its
    :class:`ExplorationResult` to :attr:`history` (the pipeline runs the
    detector twice — raw and after annotation — so there can be several).
    """

    def __init__(self, max_seeds: int = 20, wave_size: int = 4,
                 saturation_k: int = 2, escalate: bool = True,
                 ladder: Optional[Sequence[Tuple[str, int]]] = None,
                 predict=None):
        if max_seeds <= 0:
            raise ValueError("max_seeds must be positive")
        if wave_size <= 0:
            raise ValueError("wave_size must be positive")
        if saturation_k <= 0:
            raise ValueError("saturation_k must be positive")
        self.max_seeds = int(max_seeds)
        self.wave_size = int(wave_size)
        self.saturation_k = int(saturation_k)
        self.escalate = escalate
        self.ladder = tuple(ladder) if ladder is not None else None
        #: A :class:`repro.detectors.predict.PredictPolicy` turns wave 0
        #: into a *predict* wave: seed 0 runs once, recorded, and the
        #: sync-preserving closure pre-seeds coverage with every race
        #: inferable from that single trace — so later waves only spend
        #: seed budget on interleavings prediction could not decide.
        self.predict = predict
        self.history: List["ExplorationResult"] = []

    def ladder_for(self, kind: str, depth: int) -> Tuple[Tuple[str, int], ...]:
        if self.ladder is not None:
            return self.ladder
        if front_end(kind)[1] == "pct":
            return _pct_ladder(depth)
        return _RANDOM_LADDER

    @property
    def last(self) -> Optional["ExplorationResult"]:
        return self.history[-1] if self.history else None

    def as_dict(self) -> Dict:
        block = {
            "max_seeds": self.max_seeds,
            "wave_size": self.wave_size,
            "saturation_k": self.saturation_k,
            "escalate": self.escalate,
        }
        if self.predict is not None:
            block["predict"] = self.predict.as_dict()
        return block

    def __repr__(self) -> str:
        return "<ExplorePolicy max_seeds=%d wave=%d k=%d escalate=%s>" % (
            self.max_seeds, self.wave_size, self.saturation_k, self.escalate,
        )


class WaveRecord:
    """One wave of the exploration loop, as recorded in the metrics JSON."""

    __slots__ = ("index", "seeds", "scheduler", "depth", "new_pairs",
                 "new_signatures", "total_pairs", "dry", "escalated")

    def __init__(self, index: int, seeds: List[int], scheduler: str,
                 depth: int, new_pairs: int, new_signatures: int,
                 total_pairs: int, escalated: bool = False):
        self.index = index
        self.seeds = list(seeds)
        self.scheduler = scheduler
        self.depth = depth
        self.new_pairs = new_pairs
        self.new_signatures = new_signatures
        self.total_pairs = total_pairs
        self.dry = new_pairs == 0
        self.escalated = escalated

    def as_dict(self) -> Dict:
        return {
            "index": self.index,
            "seeds": list(self.seeds),
            "scheduler": self.scheduler,
            "depth": self.depth,
            "new_pairs": self.new_pairs,
            "new_signatures": self.new_signatures,
            "total_pairs": self.total_pairs,
            "dry": self.dry,
            "escalated": self.escalated,
        }

    def __repr__(self) -> str:
        return "<Wave %d %s/d%d seeds=%s new_pairs=%d>" % (
            self.index, self.scheduler, self.depth, self.seeds,
            self.new_pairs,
        )


class ExplorationResult:
    """Everything one exploration run produced, beyond the report set."""

    def __init__(self, kind: str, policy: ExplorePolicy):
        self.kind = kind
        self.policy = policy
        self.waves: List[WaveRecord] = []
        self.coverage = CoverageMap()
        self.saturated = False
        #: Index of the wave that sealed saturation (None: budget ran out).
        self.saturation_wave: Optional[int] = None
        self.seeds_executed = 0
        self.wall_seconds = 0.0
        #: The :class:`repro.detectors.predict.PredictionResult` of the
        #: predict wave, when the policy asked for one.
        self.predict = None

    @property
    def seeds_skipped(self) -> int:
        """Budgeted seeds the early stop never had to execute."""
        return self.policy.max_seeds - self.seeds_executed

    def metrics_block(self) -> Dict:
        """The metrics-JSON ``"explore"`` block (schema 3)."""
        return {
            "detector": self.kind,
            "policy": self.policy.as_dict(),
            "seeds_executed": self.seeds_executed,
            "seeds_skipped": self.seeds_skipped,
            "saturated": self.saturated,
            "saturation_wave": self.saturation_wave,
            "total_pairs": self.coverage.total_pairs,
            "distinct_schedules": self.coverage.distinct_schedules,
            "waves": [wave.as_dict() for wave in self.waves],
        }

    def describe(self) -> str:
        lines = [
            "exploration: %d/%d seeds (%s), %d racy pairs, %d schedules" % (
                self.seeds_executed, self.policy.max_seeds,
                "saturated at wave %s" % self.saturation_wave
                if self.saturated else "budget exhausted",
                self.coverage.total_pairs, self.coverage.distinct_schedules,
            )
        ]
        for wave in self.waves:
            lines.append(
                "  wave %d: seeds %s  %s/d%d  +%d pairs (%d total)%s" % (
                    wave.index, wave.seeds, wave.scheduler, wave.depth,
                    wave.new_pairs, wave.total_pairs,
                    "  [dry]" if wave.dry else "",
                )
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "<ExplorationResult %s waves=%d executed=%d saturated=%s>" % (
            self.kind, len(self.waves), self.seeds_executed, self.saturated,
        )


# ---------------------------------------------------------------------------
# wave execution


def _run_predict_wave(
    kind: str, module, entry: str, inputs, annotations, max_steps: int,
    entry_args, family: str, depth: int, predict_policy, tracer=None,
    world_factory=None, cache=None, feed=None, profile=None,
):
    """Wave 0 of a predicting exploration: one recorded run + closure.

    Runs seed 0 once under the base schedule family with the recorder
    attached, then predicts the feasible race set from that single log
    (:func:`repro.detectors.predict.predict_from_log`).  Returns
    ``(reports, stats, prediction)`` where ``reports`` merges the live
    seed-0 reports with the predicted ones and ``stats`` is seed 0's one
    ``RunStats``, carrying its coverage (and its profile when ``profile``
    is a sampling stride).  Serial and deterministic at any job count;
    cacheable as one ``predict`` stage entry, keyed on the stride and
    holding the profile like a ``detect`` entry does.
    """
    from repro.detectors.predict import PredictionResult, predict_from_log

    key = hit = None
    if cache is not None:
        key = cache.key(
            "predict", module=module, kind=kind, seed=0, entry=entry,
            inputs=inputs, annotations=annotations_to_payload(annotations),
            max_steps=max_steps, entry_args=tuple(entry_args),
            scheduler=family, depth=depth,
            predict=predict_policy.as_dict(), profile=profile,
        )
        hit = cache.get("predict", key)
    if hit is not None:
        prediction = PredictionResult.from_payload(module, hit["prediction"])
        seed_reports = ReportSet()
        for payload in hit["reports"]:
            seed_reports.add(report_from_payload(module, payload))
        stat = RunStats(*hit["stats"],
                        coverage=SeedCoverage.from_payload(hit["coverage"]))
        if profile:
            from repro.runtime.profiler import SeedProfile

            stat.profile = SeedProfile.from_payload(hit["profile"])
    else:
        run = run_seed(
            module, 0, kind=kind, entry=entry, inputs=inputs,
            annotations=annotations, max_steps=max_steps, scheduler=family,
            depth=depth, entry_args=entry_args, tracer=tracer,
            coverage=True, record=True, profile=profile,
        )
        seed_reports = run.reports
        prediction = predict_from_log(
            module, run.log, annotations=annotations, inputs=inputs,
            world_factory=world_factory, policy=predict_policy,
            observed_keys={report.static_key for report in seed_reports},
        )
        stat = run.stats()
        if key is not None:
            entry_payload = {
                "reports": [report_to_payload(r) for r in seed_reports],
                "stats": (0, stat.reason, stat.steps, stat.accesses,
                          stat.reports, stat.wall_seconds),
                "coverage": stat.coverage.to_payload(),
                "prediction": prediction.to_payload(),
            }
            if profile:
                entry_payload["profile"] = stat.profile.to_payload()
            cache.put("predict", key, entry_payload)
    if feed is not None:
        feed.seed_done(stage="detect", seed=0, detector=kind,
                       steps=stat.steps, reports=stat.reports,
                       cached=hit is not None)
    reports = ReportSet()
    reports.merge(seed_reports)
    for item in prediction.predictions:
        reports.add(item.report)
    return reports, [stat], prediction


# ---------------------------------------------------------------------------
# the exploration loop


def explore_seeds(
    kind: str,
    module,
    module_source=None,
    entry: str = "main",
    inputs: Optional[Dict] = None,
    annotations=None,
    max_steps: int = 200_000,
    entry_args: Sequence[int] = (),
    depth: int = 3,
    jobs: int = 1,
    executor=None,
    tracer=None,
    cache=None,
    policy=None,
    explore: Optional[ExplorePolicy] = None,
    coverage: bool = False,
    profile: Optional[int] = None,
    feed=None,
    world_factory=None,
) -> Tuple[ReportSet, List[RunStats]]:
    """Coverage-guided exploration over seeds ``0 .. max_seeds - 1``.

    Drop-in replacement for the fixed sweep of
    :func:`repro.detectors.tsan.run_seeds` (same ``(reports, stats)``
    return contract; ``policy`` is the batch fault-tolerance policy, ``explore``
    the exploration policy).  The seed values are the prefix of the same
    ``range()`` the blind sweep uses, under the same base schedule family,
    so a run that saturates before escalating has — by construction —
    found exactly the races of the fixed sweep's prefix.  The full
    :class:`ExplorationResult` (waves, saturation, coverage) is appended
    to ``explore.history``.

    Every executed seed's ``RunStats`` carries its coverage when
    ``coverage`` is set (the predict wave's is seed 0's own, without the
    predicted pairs) and its profile when ``profile`` is a sampling stride
    (see :mod:`repro.runtime.profiler`); ``feed`` (an
    :class:`repro.owl.stream.EventFeed`) receives one ``seed_done`` per
    seed and one ``wave_done`` per wave — the live per-wave progress
    ``owl watch`` renders.

    When ``explore.predict`` is set (a
    :class:`repro.detectors.predict.PredictPolicy`), wave 0 becomes a
    **predict wave**: seed 0 runs once with the schedule recorder
    attached, the sync-preserving closure predicts every race feasible
    from that single trace, and the predicted static pairs pre-seed the
    coverage map — so a later wave that only rediscovers predicted races
    is dry, and the seed budget goes to interleavings prediction could
    not decide.  ``world_factory`` builds a fresh OS-world for each
    witness replay of that wave (specs with an ``initial_world``).

    Exploration never fuses: every wave tracks interleaving coverage
    through the :class:`SwitchTracker` scheduler wrapper, which keeps the
    base ``run_length``, so no VM attaches a fuse engine and every
    decision reaches the tracker.
    """
    explore = explore if explore is not None else ExplorePolicy()
    ladder = explore.ladder_for(kind, depth)
    result = ExplorationResult(kind, explore)
    merged = ReportSet()
    stats: List[RunStats] = []
    started = time.perf_counter()
    rung = 0
    dry = 0
    cursor = 0
    if explore.predict is not None:
        family, wave_depth = ladder[0]
        wave_reports, wave_stats, prediction = _run_predict_wave(
            kind, module, entry, inputs, annotations, max_steps,
            entry_args, family, wave_depth, explore.predict, tracer=tracer,
            world_factory=world_factory, cache=cache, feed=feed,
            profile=profile,
        )
        result.predict = prediction
        # Pre-seed coverage with every predicted pair, so a later wave
        # that only rediscovers predicted races is dry.
        seed0 = wave_stats[0].coverage
        new_pairs = result.coverage.merge(SeedCoverage(
            0, seed0.pairs | prediction.predicted_keys, seed0.signature,
            seed0.switches))
        merged.merge(wave_reports)
        stats.extend(wave_stats)
        result.seeds_executed += 1
        cursor = 1
        if new_pairs == 0:
            dry += 1
            if dry >= explore.saturation_k:
                result.saturated = True
                result.saturation_wave = 0
        result.waves.append(WaveRecord(
            0, [0], "predict", wave_depth, new_pairs,
            result.coverage.distinct_schedules,
            result.coverage.total_pairs,
        ))
        if feed is not None:
            feed.wave_done(index=0, seeds=[0], scheduler="predict",
                           depth=wave_depth, new_pairs=new_pairs,
                           total_pairs=result.coverage.total_pairs,
                           dry=new_pairs == 0, escalated=False,
                           saturated=result.saturated)
    while not result.saturated and cursor < explore.max_seeds:
        wave_seeds = list(range(
            cursor, min(cursor + explore.wave_size, explore.max_seeds)))
        cursor += len(wave_seeds)
        family, wave_depth = ladder[rung]
        if module_source is not None:
            wave_reports, wave_stats = run_seeds_parallel(
                kind, module, module_source, entry=entry, inputs=inputs,
                seeds=wave_seeds, annotations=annotations,
                max_steps=max_steps, entry_args=entry_args, depth=wave_depth,
                jobs=jobs, executor=executor, tracer=tracer, cache=cache,
                policy=policy, scheduler=family, coverage=True,
                profile=profile, feed=feed,
            )
        else:
            wave_reports, wave_stats = run_seeds(
                kind, module, wave_seeds, entry=entry, inputs=inputs,
                annotations=annotations, max_steps=max_steps,
                scheduler=family, depth=wave_depth, entry_args=entry_args,
                tracer=tracer, coverage=True, profile=profile, feed=feed,
            )
        signatures_before = result.coverage.distinct_schedules
        deltas = result.coverage.merge_all(  # seed order
            [stat.coverage for stat in wave_stats])
        merged.merge(wave_reports)
        stats.extend(wave_stats)
        result.seeds_executed += len(wave_seeds)
        new_pairs = sum(deltas)
        escalated = False
        if new_pairs == 0:
            dry += 1
            if dry >= explore.saturation_k:
                result.saturated = True
                result.saturation_wave = len(result.waves)
            elif explore.escalate and rung + 1 < len(ladder):
                # A wave of this family stopped paying while budget
                # remains: climb the ladder before giving up.
                rung += 1
                escalated = True
        else:
            dry = 0
        result.waves.append(WaveRecord(
            len(result.waves), wave_seeds, family, wave_depth, new_pairs,
            result.coverage.distinct_schedules - signatures_before,
            result.coverage.total_pairs, escalated=escalated,
        ))
        if feed is not None:
            feed.wave_done(index=len(result.waves) - 1, seeds=wave_seeds,
                           scheduler=family, depth=wave_depth,
                           new_pairs=new_pairs,
                           total_pairs=result.coverage.total_pairs,
                           dry=new_pairs == 0, escalated=escalated,
                           saturated=result.saturated)
        if result.saturated:
            break
    result.wall_seconds = time.perf_counter() - started
    explore.history.append(result)
    if not coverage:
        for stat in stats:
            stat.coverage = None
    return merged, stats


def explore_program(
    spec,
    annotations=None,
    jobs: int = 1,
    executor=None,
    tracer=None,
    cache=None,
    policy=None,
    explore: Optional[ExplorePolicy] = None,
    coverage: bool = False,
    profile: Optional[int] = None,
    feed=None,
) -> Tuple[ReportSet, List[RunStats]]:
    """Exploration over one :class:`repro.spec.ProgramSpec`'s detector.

    The spec-level analogue of :func:`repro.owl.integration.run_detector`:
    registry-resolvable specs fan waves out over the process pool (and
    through the result cache); anything else explores serially with
    identical results.
    """
    parallel = can_parallelize(spec)
    if not parallel:
        cache = None  # keys need the registry-rebuilt module
    return explore_seeds(
        spec.detector, spec.build(),
        module_source=spec.name if parallel else None,
        entry=spec.entry, inputs=spec.workload_inputs,
        annotations=annotations, max_steps=spec.max_steps,
        jobs=jobs, executor=executor, tracer=tracer, cache=cache,
        policy=policy, explore=explore, coverage=coverage, profile=profile,
        feed=feed, world_factory=spec.initial_world,
    )
