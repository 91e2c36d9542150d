"""The annotated re-run replays the detect sweep's event tapes.

Schedule reduction (section 5.1) re-runs the detector with adhoc-sync
annotations; annotations change what the detector reports, never the
schedule, so the pipeline replays the tapes the detect sweep recorded
instead of executing the program again — serially and pooled alike.
Without tapes (a result cache, exploration, replayed logs, reference
mode) the stage keeps the VM re-run.  Either way the observable result is
the same.
"""

import json

import pytest

from repro.apps.registry import spec_by_name
from repro.owl import pipeline as pipeline_module
from repro.owl.cache import ResultCache
from repro.owl.integration import run_detector
from repro.owl.pipeline import OwlPipeline
from repro.runtime.diffcheck import report_fingerprints


def _stage(result, name):
    return result.metrics.stage_by_name(name)


def _observable(result):
    return {
        "parity": result.counters.parity_dict(),
        "annotated": report_fingerprints(result.annotated_reports),
        "remaining": sorted(r.uid for r in result.remaining_reports),
        "dispositions": sorted(
            [record.uid, record.disposition, record.verdicts()]
            for record in result.provenance),
    }


@pytest.fixture
def count_reruns(monkeypatch):
    """Counts the pipeline's calls into ``run_detector`` per stage."""
    calls = []
    original = pipeline_module.run_detector

    def counting(spec, annotations=None, **kwargs):
        calls.append("annotated" if annotations else "raw")
        return original(spec, annotations=annotations, **kwargs)

    monkeypatch.setattr(pipeline_module, "run_detector", counting)
    return calls


@pytest.fixture(scope="module")
def apache_serial():
    return OwlPipeline(spec_by_name("apache"), profile=251).run()


@pytest.fixture(scope="module")
def apache_pooled():
    return OwlPipeline(spec_by_name("apache"), profile=251, jobs=2).run()


class TestReplayedStage:
    def test_replayed_stage_executes_no_vm_steps(self, apache_serial):
        detect = _stage(apache_serial, "detect")
        reduction = _stage(apache_serial, "schedule_reduction")
        assert len(apache_serial.annotations) > 0
        assert detect.vm_steps > 0
        assert reduction.vm_steps == 0
        assert reduction.runs == detect.runs
        assert reduction.accesses == detect.accesses
        counters = apache_serial.telemetry["counters"]
        assert counters["stage.schedule_reduction.vm_steps"] == 0

    def test_serial_pipeline_skips_the_rerun(self, count_reruns):
        OwlPipeline(spec_by_name("mysql")).run()
        assert count_reruns == ["raw"]

    def test_pooled_pipeline_skips_the_rerun(self, count_reruns):
        OwlPipeline(spec_by_name("mysql"), jobs=2).run()
        assert count_reruns == ["raw"]


class TestJobCountParity:
    def test_annotated_reports_identical(self, apache_serial, apache_pooled):
        assert report_fingerprints(apache_serial.annotated_reports) == \
            report_fingerprints(apache_pooled.annotated_reports)
        assert _observable(apache_serial) == _observable(apache_pooled)

    def test_telemetry_identical(self, apache_serial, apache_pooled):
        assert json.dumps(apache_serial.telemetry, sort_keys=True) == \
            json.dumps(apache_pooled.telemetry, sort_keys=True)

    def test_profiles_identical(self, apache_serial, apache_pooled):
        assert apache_serial.profile is not None
        assert apache_serial.profile.to_payload() == \
            apache_pooled.profile.to_payload()


class TestFallbackToTheRerun:
    def test_cache_hit_reruns_and_matches(self, tmp_path, count_reruns):
        spec = spec_by_name("mysql")
        taped = OwlPipeline(spec).run()
        del count_reruns[:]
        cold = OwlPipeline(spec_by_name("mysql"),
                           cache=ResultCache(str(tmp_path))).run()
        warm = OwlPipeline(spec_by_name("mysql"),
                           cache=ResultCache(str(tmp_path))).run()
        assert count_reruns == ["raw", "annotated", "raw", "annotated"]
        assert _stage(warm, "detect").extra["cache_hits"] > 0
        assert _stage(warm, "schedule_reduction").extra["cache_misses"] == 0
        for result in (cold, warm):
            assert _observable(result) == _observable(taped)

    def test_cache_hits_carry_no_tape(self, tmp_path):
        spec = spec_by_name("memcached")
        cache = ResultCache(str(tmp_path))
        _, cold = run_detector(spec, cache=cache, tape=True)
        _, warm = run_detector(spec, cache=ResultCache(str(tmp_path)),
                               tape=True)
        assert all(stat.tape is not None for stat in cold)
        assert all(stat.tape is None for stat in warm)

    def test_reference_mode_reruns_and_matches(self, count_reruns):
        from repro.runtime.interpreter import reference_execution

        taped = OwlPipeline(spec_by_name("mysql")).run()
        del count_reruns[:]
        with reference_execution():
            reference = OwlPipeline(spec_by_name("mysql")).run()
        assert count_reruns == ["raw", "annotated"]
        assert _stage(reference, "schedule_reduction").vm_steps == \
            _stage(reference, "detect").vm_steps
        assert _observable(reference) == _observable(taped)


class TestVerificationSteps:
    def test_verification_stages_report_executed_steps(self, tmp_path):
        serial = OwlPipeline(spec_by_name("libsafe")).run()
        pooled = OwlPipeline(spec_by_name("libsafe"), jobs=2).run()
        for name in ("race_verification", "vulnerability_verification"):
            steps = _stage(serial, name).vm_steps
            assert steps > 0, name
            assert _stage(pooled, name).vm_steps == steps, name
        assert _stage(serial, "race_verification").vm_steps == sum(
            verification.steps for verification in serial.verifications)
        cold = OwlPipeline(spec_by_name("libsafe"),
                           cache=ResultCache(str(tmp_path))).run()
        warm = OwlPipeline(spec_by_name("libsafe"),
                           cache=ResultCache(str(tmp_path))).run()
        for name in ("race_verification", "vulnerability_verification"):
            assert _stage(cold, name).vm_steps == \
                _stage(serial, name).vm_steps, name
            assert _stage(warm, name).vm_steps == 0, name
