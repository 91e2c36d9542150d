"""Fused pipeline integration: parity and the schema-8 fuse block.

The contract under test: the pipeline fuses exactly where its scheduler
grants no-preempt windows — jobs=1 sweeps of a PCT spec such as the small
SKI kernel ``linux_proc`` — and fusion changes steps/s and nothing else.
Reports, Table-3 parity counters and the telemetry snapshot must match the
reference VM and a pooled (never fused) run bit for bit.
"""

import json

import pytest

from repro.apps.registry import spec_by_name
from repro.owl.integration import run_detector
from repro.owl.pipeline import OwlPipeline
from repro.runtime.diffcheck import diff_counters
from repro.runtime.fuse import FuseEngine
from repro.runtime.interpreter import reference_execution
from repro.runtime.metrics import load_metrics


def _keys(reports):
    return sorted(report.static_key for report in reports)


@pytest.fixture(scope="module")
def fused_result():
    return OwlPipeline(spec_by_name("linux_proc")).run()


@pytest.fixture(scope="module")
def pooled_result():
    return OwlPipeline(spec_by_name("linux_proc"), jobs=2).run()


@pytest.fixture(scope="module")
def memcached_result():
    """Random scheduling grants no window: this run never fuses."""
    return OwlPipeline(spec_by_name("memcached")).run()


class TestFusedPipelineParity:
    def test_parity_counters_identical(self, fused_result, pooled_result):
        diff = diff_counters(spec_by_name("linux_proc"))
        assert diff.divergences == []
        assert diff.identical
        assert (pooled_result.counters.parity_dict()
                == fused_result.counters.parity_dict()
                == diff.optimized_counters)

    def test_report_sets_identical(self, fused_result, pooled_result):
        assert _keys(pooled_result.raw_reports) == _keys(
            fused_result.raw_reports)
        assert _keys(pooled_result.annotated_reports) == _keys(
            fused_result.annotated_reports)
        assert _keys(pooled_result.remaining_reports) == _keys(
            fused_result.remaining_reports)

    def test_telemetry_identical_modulo_fuse_counters(self, fused_result):
        # No telemetry counter records fusion, so the fused
        # snapshot must equal the reference VM's outright.
        with reference_execution():
            reference = OwlPipeline(spec_by_name("linux_proc")).run()
        assert reference.metrics.fuse is None
        assert (json.dumps(fused_result.telemetry, sort_keys=True)
                == json.dumps(reference.telemetry, sort_keys=True))

    def test_fuse_request_counters(self, fused_result, pooled_result,
                                   memcached_result):
        for result in (fused_result, pooled_result, memcached_result):
            assert not any(key.startswith("fuse.")
                           for key in result.telemetry["counters"])

    def test_fused_telemetry_invariant_across_jobs(self, fused_result,
                                                   pooled_result):
        assert (json.dumps(pooled_result.telemetry, sort_keys=True)
                == json.dumps(fused_result.telemetry, sort_keys=True))


class TestSchema8FuseBlock:
    def test_block_shape(self, fused_result):
        block = fused_result.metrics.fuse
        assert block["compiled_blocks"] > 0
        assert block["fused_steps"] >= block["fused_runs"] > 0
        assert 0.0 < block["fused_step_share"] <= 1.0
        assert block["bailouts"] >= 0
        assert block["invalidations"] == 0

    def test_unfused_run_has_no_block(self, pooled_result, memcached_result):
        # Pooled workers track coverage through a scheduler wrapper, so
        # they never attach an engine either.
        for result in (memcached_result, pooled_result):
            assert result.metrics.fuse is None
            assert "fuse" not in result.metrics.as_dict()

    def test_save_load_round_trip(self, fused_result, tmp_path):
        path = fused_result.metrics.save(str(tmp_path / "metrics.json"))
        data = load_metrics(path)
        assert data["schema"] == 9
        assert data["fuse"] == fused_result.metrics.fuse


class TestFusedDetectorSweeps:
    def test_serial_fused_reports_identical(self):
        spec = spec_by_name("linux_proc")
        with reference_execution():
            reference, _ = run_detector(spec)
        engine = FuseEngine()
        fused, _ = run_detector(spec, fuse=engine)
        assert engine.fused_steps > 0
        assert _keys(fused) == _keys(reference)

    def test_pooled_fused_reports_identical(self):
        spec = spec_by_name("linux_proc")
        serial, _ = run_detector(spec)
        pooled, _ = run_detector(spec, jobs=2)
        assert _keys(pooled) == _keys(serial)
