"""Tests for oracle-verified automated race repair (repro.owl.repair).

The contract under test: ``repair_program`` emits a patch only when all
three gates pass (diff oracle, detector re-run, scheduler sweep); the
emitted patches agree with the ``apps/*_fixed`` ground truth; the
detector gate has teeth (a candidate that merely *silences* the detector
is rejected because the recorded attack still realizes); and the
schema-9 ``repair`` metrics block is bit-identical across job counts.
Gate (a)'s unpatched behaviour set is built at most once per session, and
the repair cache key covers every input that decides a verdict.
"""

import json

import pytest

from repro.apps.registry import spec_by_name
from repro.ir.instructions import Call
from repro.ir.patch import ModulePatcher, clone_module
from repro.ir.types import I32
from repro.ir.values import ConstantInt
from repro.owl import repair as repair_module
from repro.owl.batch import vuln_to_payload
from repro.owl.cache import ResultCache
from repro.owl.pipeline import OwlPipeline
from repro.owl.provenance import DISPOSITION_REPAIRED
from repro.owl.repair import (
    gate_detector,
    gate_oracle,
    merge_repair_telemetry,
    repair_program,
    unpatched_behaviours,
)


@pytest.fixture(scope="module")
def memcached_repair():
    spec = spec_by_name("memcached")
    result = OwlPipeline(spec).run()
    return spec, result, repair_program(spec, result=result)


@pytest.fixture(scope="module")
def apache_log_run():
    spec = spec_by_name("apache_log")
    return spec, OwlPipeline(spec).run()


class TestRepairMemcached:
    def test_every_verified_race_repaired(self, memcached_repair):
        _, result, repair = memcached_repair
        assert len(repair.targets) == len(result.remaining_reports) == 4
        assert len(repair.emitted) == 4
        assert all(target.emitted.strategy == "mutex"
                   for target in repair.targets)

    def test_emitted_patches_passed_all_three_gates(self, memcached_repair):
        _, _, repair = memcached_repair
        for target in repair.emitted:
            gates = target.emitted.gates
            assert sorted(gates) == ["detector", "oracle", "schedulers"]
            assert all(gate["passed"] for gate in gates.values())
            assert gates["detector"]["pair_reported"] is False
            assert gates["oracle"]["novel_behaviours"] == []

    def test_ground_truth_disposition_matches(self, memcached_repair):
        _, _, repair = memcached_repair
        assert repair.ground_truth_spec == "memcached_fixed"
        assert all(target.ground_truth_race_gone for target in repair.emitted)

    def test_provenance_disposition_is_repaired(self, memcached_repair):
        _, result, repair = memcached_repair
        for target in repair.emitted:
            record = result.provenance.get(target.uid)
            assert record is not None
            assert "repaired" in record.verdicts()
            assert record.disposition == DISPOSITION_REPAIRED

    def test_patch_payload_carries_evidence(self, memcached_repair):
        _, _, repair = memcached_repair
        payloads = repair.patch_payloads()
        assert len(payloads) == 4
        for payload in payloads:
            assert payload["program"] == "memcached"
            assert payload["strategy"] == "mutex"
            assert payload["ir_diff"]
            assert payload["ops"]
            assert payload["patched_digest"] != repair.original_digest
            assert payload["ground_truth_race_gone"] is True
            json.dumps(payload)  # artifacts must be JSON-serializable

    def test_metrics_block_and_counters(self, memcached_repair):
        _, _, repair = memcached_repair
        block = repair.metrics_block()
        assert block["targets"] == 4
        assert block["emitted"] == 4
        assert block["ground_truth"] == {
            "spec": "memcached_fixed", "checked": 4, "matched": 4}
        counters = block["counters"]
        assert counters["repair.targets"] == 4
        assert counters["repair.emitted"] == 4
        assert counters["repair.emitted.mutex"] == 4
        assert counters["repair.gate.oracle.pass"] >= 4
        assert "repair.unrepaired" not in counters

    def test_describe_names_each_target(self, memcached_repair):
        _, _, repair = memcached_repair
        text = repair.describe()
        assert "4/4 verified races repaired" in text
        assert "repaired via mutex" in text
        assert "oracle=ok, detector=ok, schedulers=ok" in text

    def test_merge_repair_telemetry_lands_counters(self, memcached_repair):
        _, result, repair = memcached_repair
        merge_repair_telemetry(result, repair)
        counters = result.telemetry["counters"]
        assert counters["repair.emitted"] == 4
        assert result.metrics.telemetry is result.telemetry


class TestDetectorGateTeeth:
    def test_atomic_promotion_is_rejected(self, apache_log_run):
        """A patch that silences tsan without fixing the bug must fail
        gate (b): the detector and predict legs go quiet, but re-driving
        the recorded attack still realizes it."""
        spec, result = apache_log_run
        report = sorted(result.remaining_reports,
                        key=lambda r: r.static_key)[0]
        uids = set()
        for other in result.remaining_reports:
            if other.variable == report.variable:
                uids.update(other.static_key)
        patched = clone_module(spec.build())
        patcher = ModulePatcher(patched)
        for uid in sorted(uids):
            patcher.set_atomic(patched.instruction_by_uid(uid), True)
        probes = [(vuln_to_payload(detected.vulnerability),
                   detected.ground_truth)
                  for detected in result.attacks
                  if detected.realized and detected.ground_truth is not None]
        assert probes, "pipeline did not realize the apache_log attack"
        gate = gate_detector(spec, patched, report.static_key,
                             variable=report.variable, attack_probes=probes)
        assert gate["pair_reported"] is False     # detector silenced...
        assert gate["attacks_realized"]           # ...but the attack lives
        assert gate["passed"] is False


class TestRepairApacheLog:
    def test_all_targets_repaired_and_ground_truth_agrees(
            self, apache_log_run):
        spec, result = apache_log_run
        repair = repair_program(spec, result=result)
        assert len(repair.emitted) == len(repair.targets) == 4
        assert repair.ground_truth_spec == "apache_log_fixed"
        assert all(target.ground_truth_race_gone for target in repair.emitted)

    def test_metrics_block_identical_across_job_counts(self):
        blocks = []
        for jobs in (1, 2):
            spec = spec_by_name("apache_log")
            result = OwlPipeline(spec, jobs=jobs).run()
            blocks.append(repair_program(spec, result=result).metrics_block())
        assert json.dumps(blocks[0], sort_keys=True) == \
            json.dumps(blocks[1], sort_keys=True)


class TestRepairCache:
    def test_warm_cache_replays_identical_gates(self, tmp_path):
        spec = spec_by_name("apache_log")
        result = OwlPipeline(spec).run()
        cold_cache = ResultCache(str(tmp_path))
        cold = repair_program(spec, result=result, cache=cold_cache)
        assert cold_cache.stage_counters("repair")["stores"] > 0
        warm_cache = ResultCache(str(tmp_path))
        warm = repair_program(spec, result=result, cache=warm_cache)
        assert warm_cache.stage_counters("repair")["hits"] > 0
        assert all(target.emitted.cached for target in warm.emitted)
        assert json.dumps(cold.metrics_block(), sort_keys=True) == \
            json.dumps(warm.metrics_block(), sort_keys=True)


def _shifted(name, offset):
    spec = spec_by_name(name)
    spec.detect_seeds = [seed + offset for seed in spec.detect_seeds]
    spec.verify_seeds = [seed + offset for seed in spec.verify_seeds]
    return spec


def _cached_flags(repair):
    return [attempt.cached for target in repair.targets
            for attempt in target.attempts if attempt.applicable]


class TestRepairCacheKey:
    def test_shifted_seed_window_misses_and_repeat_hits(self, tmp_path):
        """The gates depend on the detect and verify seeds: a session with
        shifted windows must not replay gate evidence computed for other
        windows, while a repeat of the same windows still replays it."""
        spec = spec_by_name("apache_log")
        base = repair_program(spec, result=OwlPipeline(spec).run(),
                              cache=ResultCache(str(tmp_path)))
        assert not any(_cached_flags(base))

        sessions = []
        for _ in range(2):
            shifted = _shifted("apache_log", 40)
            cache = ResultCache(str(tmp_path))
            sessions.append(repair_program(
                shifted, result=OwlPipeline(shifted).run(), cache=cache))
        miss, hit = sessions
        # Same targets and patched modules: only the key's seed parts differ.
        assert [t.emitted.patched_digest for t in miss.emitted] == \
            [t.emitted.patched_digest for t in base.emitted]
        assert _cached_flags(miss) and not any(_cached_flags(miss))
        assert all(_cached_flags(hit))
        assert json.dumps(miss.metrics_block(), sort_keys=True) == \
            json.dumps(hit.metrics_block(), sort_keys=True)


class TestUnpatchedSetBuiltOnce:
    def test_once_cold_never_warm_and_shared_set_is_sound(
            self, apache_log_run, tmp_path, monkeypatch):
        spec, result = apache_log_run
        builds = []
        oracle_calls = []

        def counting(spec_, original):
            allowed = unpatched_behaviours(spec_, original)
            builds.append((original, allowed))
            return allowed

        def recording(spec_, allowed, patched):
            outcome = gate_oracle(spec_, allowed, patched)
            oracle_calls.append((allowed, patched, outcome))
            return outcome

        monkeypatch.setattr(repair_module, "unpatched_behaviours", counting)
        monkeypatch.setattr(repair_module, "gate_oracle", recording)

        cold = repair_program(spec, result=result,
                              cache=ResultCache(str(tmp_path)))
        assert len(builds) == 1
        assert len(oracle_calls) == len(cold.emitted) == 4
        original, shared = builds[0]
        assert all(allowed is shared for allowed, _, _ in oracle_calls)

        warm = repair_program(spec, result=result,
                              cache=ResultCache(str(tmp_path)))
        assert len(builds) == 1            # a warm session builds nothing
        assert len(oracle_calls) == 4
        assert all(_cached_flags(warm))

        # Patched runs leak no state into the shared set: it equals a set
        # built afresh, from the same original after every patched run and
        # from a freshly built spec, and each candidate's verdict does too.
        assert unpatched_behaviours(spec, original) == shared
        fresh_spec = spec_by_name("apache_log")
        fresh = unpatched_behaviours(fresh_spec, fresh_spec.build())
        assert fresh == shared
        for _, patched, outcome in oracle_calls:
            assert gate_oracle(fresh_spec, fresh, patched) == outcome


class TestOracleGate:
    @pytest.fixture(scope="class")
    def apache_log_allowed(self):
        spec = spec_by_name("apache_log")
        original = spec.build()
        return spec, original, unpatched_behaviours(spec, original)

    def test_unmodified_clone_passes(self, apache_log_allowed):
        spec, original, allowed = apache_log_allowed
        gate = gate_oracle(spec, allowed, clone_module(original))
        assert gate["passed"] is True
        assert gate["novel_behaviours"] == []
        assert gate["unpatched_behaviours"] == len(allowed)
        assert gate["seeds_checked"] == len(spec.detect_seeds) + 1

    def test_added_observable_behaviour_fails_and_is_named(
            self, apache_log_allowed):
        """A clone that drops privileges on entry shows a privilege-log
        entry no unpatched schedule shows, so every behaviour it exhibits
        is novel, each named by the first schedule that showed it."""
        spec, original, allowed = apache_log_allowed
        patched = clone_module(original)
        patcher = ModulePatcher(patched)
        setuid = patcher.ensure_external("setuid")
        entry = patched.get_function(spec.entry).first_instruction()
        patcher.insert_before(entry, Call(setuid, [ConstantInt(I32, 0)]))
        gate = gate_oracle(spec, allowed, patched)
        assert gate["passed"] is False
        novel = gate["novel_behaviours"]
        assert "serial" in novel
        assert len(novel) == gate["patched_behaviours"]
        assert all(label == "serial" or label.startswith("seed=")
                   for label in novel)
