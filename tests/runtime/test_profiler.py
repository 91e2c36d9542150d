"""Tests for the VM sampling profiler (repro.runtime.profiler)."""

import pytest

from repro.apps.registry import spec_by_name
from repro.detectors.predict import PredictPolicy
from repro.detectors.tsan import run_seed, run_seeds
from repro.owl.cache import ResultCache
from repro.owl.explore import ExplorePolicy
from repro.owl.integration import run_detector
from repro.runtime.profiler import (
    DEFAULT_SAMPLE_INTERVAL,
    SamplingProfiler,
    SeedProfile,
    merge_profiles,
)


def profile_seed(seed=0, interval=97, program="memcached"):
    spec = spec_by_name(program)
    run = run_seed(
        spec.build(), seed, entry=spec.entry, inputs=spec.workload_inputs,
        max_steps=spec.max_steps, profile=interval,
    )
    assert run.profile is not None
    return run.profile, run.result


class TestSeedProfile:
    def test_record_and_marginals(self):
        profile = SeedProfile(100)
        profile.record("main;worker", "worker", "Load", True)
        profile.record("main;worker", "worker", "Store", True)
        profile.record("main", "main", "Br", False)
        assert profile.samples == 3
        assert profile.observer_samples == 2
        assert profile.stacks == {"main;worker": 2, "main": 1}
        assert profile.top_functions() == [("worker", 2), ("main", 1)]

    def test_collapsed_format_is_sorted_stack_count_lines(self):
        profile = SeedProfile(100)
        profile.record("b", "b", "Br", False)
        profile.record("a;b", "b", "Br", False)
        profile.record("a;b", "b", "Br", False)
        assert profile.collapsed() == "a;b 2\nb 1"

    def test_payload_round_trip(self):
        profile = SeedProfile(100)
        profile.record("main;worker", "worker", "Load", True)
        clone = SeedProfile.from_payload(profile.to_payload())
        assert clone.to_payload() == profile.to_payload()

    def test_merge_adds_and_rejects_interval_mismatch(self):
        left, right = SeedProfile(100), SeedProfile(100)
        left.record("a", "a", "Br", False)
        right.record("a", "a", "Br", False)
        right.record("b", "b", "Load", True)
        left.merge(right)
        assert left.samples == 3
        assert left.stacks["a"] == 2
        with pytest.raises(ValueError):
            left.merge(SeedProfile(50))

    def test_merge_profiles_skips_nones_and_keeps_order(self):
        one, two = SeedProfile(10), SeedProfile(10)
        one.record("a", "a", "Br", False)
        two.record("b", "b", "Br", False)
        merged = merge_profiles([None, one, None, two])
        assert merged.samples == 2
        assert merge_profiles([None, None]) is None

    def test_summary_block_shape(self):
        profile = SeedProfile(100)
        profile.record("main", "main", "Load", True)
        summary = profile.summary()
        assert summary["interval"] == 100
        assert summary["samples"] == 1
        assert summary["top_functions"] == [["main", 1]]
        assert summary["top_opcodes"] == [["Load", 1]]


class TestSamplingProfiler:
    def test_interval_must_be_positive(self):
        from repro.runtime.scheduler import RandomScheduler

        with pytest.raises(ValueError):
            SamplingProfiler(RandomScheduler(seed=0), interval=0)

    def test_profiled_run_samples_app_functions(self):
        profile, result = profile_seed()
        assert profile.samples == result.steps // 97
        assert profile.samples > 0
        assert profile.observer_samples <= profile.samples
        assert all(profile.stacks.values())

    def test_profile_identical_across_two_same_seed_runs(self):
        first, _ = profile_seed(seed=3)
        second, _ = profile_seed(seed=3)
        assert first.to_payload() == second.to_payload()
        assert first.collapsed() == second.collapsed()

    def test_profiling_leaves_schedule_and_reports_unchanged(self):
        for kind, program in (("tsan", "memcached"), ("ski", "linux_proc")):
            spec = spec_by_name(program)
            plain = run_seed(
                spec.build(), 0, kind=kind, entry=spec.entry,
                inputs=spec.workload_inputs, max_steps=spec.max_steps)
            sampled = run_seed(
                spec.build(), 0, kind=kind, entry=spec.entry,
                inputs=spec.workload_inputs, max_steps=spec.max_steps,
                profile=97)
            assert plain.profile is None
            assert sampled.profile.samples == sampled.result.steps // 97
            assert sampled.result.steps == plain.result.steps, kind
            assert ([r.uid for r in sampled.reports.reports()]
                    == [r.uid for r in plain.reports.reports()]), kind

    def test_distinct_seeds_can_produce_distinct_profiles(self):
        profiles = {profile_seed(seed=seed)[0].collapsed()
                    for seed in range(4)}
        assert len(profiles) >= 1  # all deterministic, possibly identical

    def test_default_interval_is_used_when_unspecified(self):
        from argparse import Namespace

        from repro.cli import _make_pipeline

        spec = spec_by_name("memcached")
        # `--profile` without `--profile-interval`
        pipeline, _, _ = _make_pipeline(spec, Namespace(jobs=1, profile=True))
        _, stats = run_seeds(
            "tsan", spec.build(), [0], entry=spec.entry,
            inputs=spec.workload_inputs, max_steps=spec.max_steps,
            profile=pipeline.profile)
        profile = stats[0].profile
        assert profile.interval == DEFAULT_SAMPLE_INTERVAL
        assert profile.samples == stats[0].steps // DEFAULT_SAMPLE_INTERVAL


class TestSweepRouteParity:
    @pytest.mark.parametrize("program", ["memcached", "linux_proc"])
    def test_per_seed_profiles_and_coverage_identical_on_every_route(
            self, program, tmp_path):
        """Each seed's RunStats carries the serial sweep's coverage/profile."""
        spec = spec_by_name(program)
        seeds = len(spec.detect_seeds)

        def sweep(**route):
            _, stats = run_detector(spec, coverage=True, profile=97, **route)
            return [(stat.seed, stat.coverage.to_payload(),
                     stat.profile.to_payload()) for stat in stats]

        def fixed_sweep(predict=None):
            # never saturating, never escalating: the fixed seed sweep
            return ExplorePolicy(max_seeds=seeds, saturation_k=seeds,
                                 escalate=False, predict=predict)

        plain_root = str(tmp_path / "plain")
        predict_root = str(tmp_path / "predict")
        routes = {
            "jobs=2": lambda: sweep(jobs=2),
            "cold cache": lambda: sweep(cache=ResultCache(plain_root)),
            "warm cache": lambda: sweep(cache=ResultCache(plain_root)),
            "explore": lambda: sweep(explore=fixed_sweep()),
            "predict": lambda: sweep(explore=fixed_sweep(PredictPolicy())),
            "predict, cold cache": lambda: sweep(
                explore=fixed_sweep(PredictPolicy()),
                cache=ResultCache(predict_root)),
            "predict, warm cache": lambda: sweep(
                explore=fixed_sweep(PredictPolicy()),
                cache=ResultCache(predict_root)),
        }
        serial = sweep()
        assert [seed for seed, _, _ in serial] == list(range(seeds))
        for route, run in routes.items():
            assert run() == serial, (program, route)

    def test_unrequested_coverage_and_profile_stay_off(self):
        spec = spec_by_name("memcached")
        for route in ({}, {"jobs": 2}, {"explore": ExplorePolicy(max_seeds=4)}):
            _, stats = run_detector(spec, **route)
            assert all(stat.coverage is None and stat.profile is None
                       for stat in stats), route
