"""Detector integration (paper section 6.3).

OWL integrates two race detector front ends: TSan for applications and SKI
for kernels.  The contract Algorithm 1 needs from either is (a) a *load*
instruction reading the corrupted memory and (b) that instruction's call
stack.  Both requirements are satisfied here:

- the shared happens-before engine already watches corrupted addresses and
  records subsequent reads with full call stacks (the modified SKI policy);
- :func:`usable_reports` filters to reports that can supply a load, which is
  the "we modified the detectors to add the first load instruction for these
  reports" behaviour for write-write races.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.detectors.annotations import AnnotationSet
from repro.detectors.report import RaceReport, ReportSet
from repro.detectors.tsan import run_seeds
from repro.owl.batch import can_parallelize, run_detector_batch
from repro.runtime.metrics import RunStats
from repro.spec import ProgramSpec


def run_detector(
    spec: ProgramSpec,
    annotations: Optional[AnnotationSet] = None,
    jobs: int = 1,
    executor=None,
    tracer=None,
    cache=None,
    policy=None,
    explore=None,
    replay=None,
    coverage: bool = False,
    profile: Optional[int] = None,
    feed=None,
    fuse=None,
    tape: bool = False,
) -> Tuple[ReportSet, List[RunStats]]:
    """Run the spec's front-end detector over its configured schedules.

    The single dispatcher of every detector sweep, each of which returns
    the merged reports and one :class:`repro.runtime.metrics.RunStats` per
    executed seed, in seed order:

    - a ``replay`` source (:class:`repro.owl.replay.ReplaySource`)
      re-executes its recorded logs with the detector attached;
    - an ``explore`` policy (:class:`repro.owl.explore.ExplorePolicy`)
      replaces the fixed ``detect_seeds`` sweep with coverage-guided
      adaptive budgeting; its :class:`ExplorationResult` lands in
      ``explore.history``;
    - ``jobs > 1``, an ``executor`` or a ``cache``
      (:class:`repro.owl.cache.ResultCache`) route a registry-resolvable
      spec through :func:`repro.owl.batch.run_detector_batch` — pooled, or
      in-process at ``jobs=1`` with cache hits never re-executed;
      ``policy`` (:class:`repro.owl.batch.BatchPolicy`) bounds each pooled
      item's wait/retry budget;
    - anything else runs the serial sweep
      (:func:`repro.detectors.tsan.run_seeds`).

    All routes produce the same reports and stats.  ``tracer`` collects one
    ``detect_seed`` span per execution.  ``coverage`` and ``profile`` (a
    sampling stride, :mod:`repro.runtime.profiler`) hang every live seed's
    coverage and profile on its ``RunStats`` — cache hits return the ones
    the cold run took; replay fills neither.  ``feed`` (an
    :class:`repro.owl.stream.EventFeed`) receives one ``seed_done`` event
    per live seed.  ``fuse`` (a :class:`repro.runtime.fuse.FuseEngine`)
    is the engine the serial sweep shares across its seeds.  ``tape``
    hangs every executed seed's event tape on its ``RunStats`` (serial and
    pooled sweeps; replay, exploration, cache hits and reference-mode VMs
    record none) for :func:`repro.detectors.tsan.replay_tapes`.
    """
    if replay is not None:
        return replay.run_detector(annotations=annotations, tracer=tracer)
    if explore is not None:
        from repro.owl.explore import explore_program

        return explore_program(
            spec, annotations=annotations, jobs=jobs, executor=executor,
            tracer=tracer, cache=cache, policy=policy, explore=explore,
            coverage=coverage, profile=profile, feed=feed,
        )
    if (jobs > 1 or executor is not None or cache is not None) \
            and can_parallelize(spec):
        return run_detector_batch(
            spec, annotations=annotations, jobs=jobs, executor=executor,
            tracer=tracer, cache=cache, policy=policy,
            coverage=coverage, profile=profile, feed=feed, tape=tape,
        )
    return run_seeds(
        spec.detector, spec.build(), spec.detect_seeds, entry=spec.entry,
        inputs=spec.workload_inputs, annotations=annotations,
        max_steps=spec.max_steps, tracer=tracer, coverage=coverage,
        profile=profile, feed=feed, fuse=fuse, tape=tape,
    )


def usable_reports(reports) -> List[RaceReport]:
    """Reports that satisfy Algorithm 1's input contract (a racy load)."""
    return [report for report in reports if report.read_access() is not None]
