"""Tests of the benchmark's own checks and tracing.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    ResponseCapture,
    record_counts,
    record_digest,
)

from repro.array.controller import ArrayController  # noqa: E402
from repro.runner.execute import BatchedTrialExecutor  # noqa: E402

REFERENCE = run.load_reference()


@pytest.fixture
def capture():
    capture = ResponseCapture()
    capture.install()
    yield capture
    capture.uninstall()


def canary_record(name: str, capture) -> dict:
    workload = WORKLOADS[name]
    spec = workload.specs(run.CANARY_SEED, 1)[0]
    outcome = run.Outcome()
    result = run.execute_checked(
        BatchedTrialExecutor(), workload, spec, capture, outcome, "test"
    )
    assert result is not None, outcome.problems
    return result[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_canary_record_matches_reference(name, capture):
    record = canary_record(name, capture)
    wanted = REFERENCE["workloads"][name][str(run.CANARY_SEED)][0]
    assert record_digest(record) == wanted
    assert WORKLOADS[name].check(record) == []


PERTURBATIONS = {
    "closed-read": lambda r: r["point"].update(samples=r["point"]["samples"] - 1),
    "rebuild-write": lambda r: r["openloop"].update(shed=1),
    "nemesis-trials": lambda r: r["nemesis_trial"]["oracle"].update(
        corruption_events=1
    ),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_perturbed_record_fails_the_checks(name, capture):
    workload = WORKLOADS[name]
    record = canary_record(name, capture)
    bad = copy.deepcopy(record)
    PERTURBATIONS[name](bad)
    assert workload.check(bad), "the workload check missed the perturbation"
    outcome = run.Outcome()
    run.check_digests(workload, run.CANARY_SEED, [bad], REFERENCE, outcome)
    assert outcome.failed == 1
    outcome = run.Outcome()
    run.check_digests(workload, run.CANARY_SEED, [record], REFERENCE, outcome)
    assert outcome.failed == 0


def test_nemesis_batch_check_counts_classifications(capture):
    record = canary_record("nemesis-trials", capture)
    workload = WORKLOADS["nemesis-trials"]
    assert run.batch_problems(workload, [record, record]) == []
    bad = copy.deepcopy(record)
    bad["nemesis_trial"]["classification"] = "silent_corruption"
    assert run.batch_problems(workload, [record, bad])


def test_tracing_leaves_records_identical_and_times_add_up(capture):
    workload = WORKLOADS["rebuild-write"]
    specs = workload.specs(3, 2)
    plain = [record_digest(BatchedTrialExecutor().execute(s)) for s in specs]
    plain_responses = capture.take()
    original_submit = ArrayController.__dict__["submit"]
    tr = tracer.Tracer()
    tr.install()
    try:
        executor = BatchedTrialExecutor()
        traced = [record_digest(executor.execute(s)) for s in specs]
    finally:
        tr.uninstall()
    assert ArrayController.__dict__["submit"] is original_submit
    assert traced == plain
    assert capture.take() == plain_responses
    layers = tr.layer_self_s()
    assert sum(layers.values()) == pytest.approx(tr.root_s, abs=1e-9)
    assert tr.calls["runner.execute"] == len(specs)
    for layer in ("sim", "disk", "layouts", "array", "traffic"):
        assert layers[layer] > 0, layer
    assert tr.recorder.locate_args and tr.recorder.pending_depths


def test_record_counts_read_the_instrumentation_block(capture):
    record = canary_record("nemesis-trials", capture)
    counts = record_counts(record)
    block = record["nemesis_trial"]["instrumentation"]
    assert counts["events"] == block["engine"]["events_processed"] > 0
    assert counts["accesses"] == block["completed_accesses"] > 0


def test_callback_labels_follow_the_defining_module():
    from repro.array.controller import DiskServer

    assert tracer.callback_label(DiskServer._complete) == "array"
    assert tracer.callback_label(run.metric) == "other"
    assert tracer.module_label("repro.array.raidops") == "array.plan"
    assert tracer.module_label("repro.experiments.openloop") == "runner"


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert run.percentile(values, 50) == 100
    assert run.percentile(values, 95) == 190
    assert run.percentile([7.5], 99) == 7.5


def test_mid_quantile_moves_with_the_proportions_of_tied_values():
    assert run.mid_quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert run.mid_quantile([1.0] * 5 + [2.0] * 5, 0.5) == 1.5
    assert run.mid_quantile([1.0] * 6 + [2.0] * 4, 0.5) == pytest.approx(1.4)
    assert run.mid_quantile([3.0], 0.99) == 3.0


def test_normalise_scales_by_the_local_calibration():
    ref = run.calibrate.REFERENCE_MS
    assert run.normalise([0.1, 0.2], [ref, ref]) == pytest.approx([0.1, 0.2])
    slow = run.normalise([0.2] * 3, [2 * ref] * 3)
    assert slow == pytest.approx([0.1] * 3)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
