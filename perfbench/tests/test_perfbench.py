"""Self-tests of the benchmark runner, on tiny stand-in programs.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402

#: The smallest program that exercises each workload's code path.
STAND_INS = {
    "tsan-apps": ("libsafe",),
    "ski-linux": ("libsafe",),
    "fix-cached": ("apache_log",),
}


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "0",
                     "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_runner_prints():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.per_layer_names()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_prints_every_metric_with_its_unit(capsys, monkeypatch,
                                                 workload, trace):
    monkeypatch.setitem(workloads.PROGRAMS, workload, STAND_INS[workload])
    result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = _benchmark_json()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in expected}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_libsafe_attributes_every_step_to_a_stage(capsys, monkeypatch):
    from layers import OUTSIDE, STAGES

    monkeypatch.setitem(workloads.PROGRAMS, "tsan-apps", ("libsafe",))
    metrics = _run(capsys, "tsan-apps", 1)["metrics"]
    stages = sum(metrics["stage.%s.vm_steps" % stage]["value"]
                 for stage in STAGES + (OUTSIDE,))
    assert stages == metrics["interpreter.steps"]["value"] > 0
    assert metrics["stage.vulnerability_verification.vm_steps"]["value"] > 0


def test_tracer_restores_every_wrapped_name():
    from layers import LayerTracer

    import repro.owl.integration as integration
    import repro.owl.pipeline as pipeline
    from repro.runtime.interpreter import VM

    before = (pipeline.run_detector, integration.run_detector, VM.run,
              VM.__dict__.get("__del__"))
    with LayerTracer():
        assert pipeline.run_detector is not before[0]
        assert integration.run_detector is pipeline.run_detector
    assert (pipeline.run_detector, integration.run_detector, VM.run,
            VM.__dict__.get("__del__")) == before


def _pipeline_pass(program):
    from hostspeed import HostSpeed

    run_ = workloads.Pass(HostSpeed())
    spec = workloads.shifted_spec(program, 0)
    operation, _ = workloads._run_pipeline(spec, program)
    run_.add(operation)
    return run_


def test_committed_reference_row_passes():
    checker = run.Checker(0, workloads.load_reference(ROOT))
    checker.check(_pipeline_pass("libsafe"))
    assert (checker.attempted, checker.failed) == (1, 0)


@pytest.mark.parametrize("column, value", [
    ("R.V.E.", 1),
    ("# OWL reports", 2),
    ("# atks found", 0),
])
def test_doctored_reference_row_is_a_failed_operation(column, value):
    reference = copy.deepcopy(workloads.load_reference(ROOT))
    reference["libsafe"][column] = value
    checker = run.Checker(0, reference)
    checker.check(_pipeline_pass("libsafe"))
    assert (checker.attempted, checker.failed) == (1, 1)
    assert any(column in problem for problem in checker.problems)


def test_reference_applies_only_at_the_paper_offset():
    reference = copy.deepcopy(workloads.load_reference(ROOT))
    reference["libsafe"]["R.R."] = 99
    checker = run.Checker(workloads.OFFSETS[1], reference)
    checker.check(_pipeline_pass("libsafe"))
    assert checker.failed == 0


def test_a_repetition_that_differs_is_a_failed_operation():
    checker = run.Checker(0, None)
    checker.check(_pipeline_pass("libsafe"))
    second = _pipeline_pass("libsafe")
    second.operations[0].observation["parity"]["remaining"] += 1
    checker.check(second)
    assert (checker.attempted, checker.failed) == (2, 1)


def test_seed_zero_is_the_paper_window():
    assert workloads.offset_for_seed(0) == 0
    spec = workloads.shifted_spec("linux", workloads.offset_for_seed(0))
    assert spec.detect_seeds == list(range(16))


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tsan-apps",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
