"""Layer-attributed benchmark of the PDDL array simulator.

Run from the repository root:

    python3 perfbench/run.py --workload closed-read --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics (host throughput, per-spec
wall time, set-up time, memory, and the simulated response time of the
modelled array); ``--trace 1`` runs a fixed slice of the workload once
untraced and once traced and reports per-layer metrics, including
isolated microbenchmarks replaying inputs recorded while tracing.
``--workload all`` runs every workload in turn.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"

#: Set-up probes per run (each a fresh interpreter); the median counts.
SETUP_PROBES = {0: 5, 1: 3}
#: Leading specs of a stream whose digests the reference table holds.
REFERENCE_SPECS = 3
#: Seeds the reference table covers; seed 0 doubles as the canary.
REFERENCE_SEEDS = range(32)
CANARY_SEED = 0
PROBE_TIMEOUT_S = 60
#: Calibrations on each side of a spec that set its host-speed factor.
CAL_HALF_WINDOW = 5
#: Calibration runs in a set-up probe (median).
PROBE_CALIBRATIONS = 5


class BenchError(Exception):
    """The benchmark cannot run here (no sources, broken set-up)."""


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of ``values`` (exact sample, no buckets)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def mid_quantile(values, q: float) -> float:
    """Parzen's mid-quantile of ``values`` at probability ``q``.

    Simulated response times are discrete (small-region accesses land on
    a handful of rotational positions), so an order statistic jumps
    between support points as the seed changes.  The mid-quantile
    interpolates linearly between support points placed at their
    mid-distribution values ``F(x) - p(x)/2``: it moves continuously with
    the sample proportions and, for samples without ties, falls between
    the two order statistics around rank ``q * n``.  Values that agree
    to 1e-9 ms are one support point.
    """
    ordered = sorted(round(v, 9) for v in values)
    n = len(ordered)
    support, mids = [], []
    seen = 0
    for value, group in itertools.groupby(ordered):
        count = sum(1 for _ in group)
        support.append(value)
        mids.append((seen + count / 2.0) / n)
        seen += count
    if q <= mids[0]:
        return support[0]
    if q >= mids[-1]:
        return support[-1]
    k = bisect.bisect_left(mids, q)
    lo, hi = mids[k - 1], mids[k]
    return support[k - 1] + (support[k] - support[k - 1]) * (q - lo) / (hi - lo)


def normalise(walls, cal_ms):
    """Host seconds -> reference-machine seconds.

    Each spec's wall time is scaled by ``REFERENCE_MS`` over the mean
    calibration time of the specs around it, so a stretch where the host
    ran slow scales back by the slowdown the calibration kernel saw in
    that same stretch.
    """
    out = []
    for i, wall in enumerate(walls):
        window = cal_ms[max(0, i - CAL_HALF_WINDOW):i + CAL_HALF_WINDOW + 1]
        out.append(wall * calibrate.REFERENCE_MS / statistics.fmean(window))
    return out


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# Set-up probe (child process).
# ----------------------------------------------------------------------


def probe_setup(workload_name: str) -> dict:
    """Import, then build the workload's layouts and measured specs.

    Runs in a fresh interpreter, so the import is cold; the timer starts
    before the first import of the simulator.
    """
    started = perf_counter()
    import importlib

    from workloads import WORKLOADS

    from repro.experiments.config import layout_for
    from repro.runner.execute import BatchedTrialExecutor

    workload = WORKLOADS[workload_name]
    for module in workload.harness_modules:
        importlib.import_module(module)
    imported = perf_counter()
    executor = BatchedTrialExecutor()
    for spec in workload.specs(0, workload.rotation):
        if spec.kind in executor.BATCHABLE:
            executor.shared_layout(spec)
        else:
            layout_for(spec.layout, disks=spec.disks, width=spec.width)
    built = perf_counter()
    workload.specs(0, workload.measured)
    done = perf_counter()
    import calibrate

    cal = calibrate.measure_ms(PROBE_CALIBRATIONS)
    scale = calibrate.REFERENCE_MS / cal
    return {
        "setup_s": (done - started) * scale,
        "import_s": (imported - started) * scale,
        "layout_build_s": (built - imported) * scale,
        "raw_setup_s": done - started,
        "calibration_ms": cal,
    }


def run_probes(workload_name: str, count: int) -> list:
    results = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--probe-setup",
             "--workload", workload_name],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(
                f"set-up probe failed ({proc.returncode}):"
                f" {proc.stderr.strip()[-2000:]}"
            )
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


# ----------------------------------------------------------------------
# Spec execution and checking.
# ----------------------------------------------------------------------


class Outcome:
    """Tally of executed specs and what their checks found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def fail(self, where: str, problems) -> None:
        self.failed += 1
        for problem in problems:
            if len(self.problems) < 50:
                self.problems.append(f"{where}: {problem}")

    def problem(self, text: str) -> None:
        """A run-level check failed (no single spec to blame)."""
        if len(self.problems) < 50:
            self.problems.append(text)


def execute_checked(executor, workload, spec, capture, outcome, where):
    """Run one spec; returns ``(record, wall_s, responses)`` or None."""
    from workloads import record_counts

    outcome.attempted += 1
    started = perf_counter()
    try:
        record = executor.execute(spec)
    except Exception:  # the benchmark must count a crashing spec, not die
        capture.take()
        outcome.fail(where, [traceback.format_exc(limit=3).strip()])
        return None
    wall = perf_counter() - started
    responses = capture.take()
    problems = workload.check(record)
    accesses = record_counts(record)["accesses"]
    if len(responses) != accesses:
        problems.append(
            f"{len(responses)} captured responses != {accesses}"
            " completed accesses"
        )
    if problems:
        outcome.fail(where, problems)
        return None
    return record, wall, responses


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def check_digests(workload, seed, records, reference, outcome) -> None:
    """Compare the leading records of a stream with the stored digests."""
    from workloads import record_digest

    wanted = reference["workloads"][workload.name].get(str(seed))
    if wanted is None:
        return
    for index, (record, want) in enumerate(zip(records, wanted)):
        if record is None:
            continue
        if record_digest(record) != want:
            outcome.fail(
                f"{workload.name} seed {seed} spec {index}",
                ["record digest differs from the reference"],
            )


def run_canary(executor, workload, capture, reference, outcome) -> None:
    """Reference-seed specs, untimed: output check plus warm caches."""
    records = []
    for index, spec in enumerate(
        workload.specs(CANARY_SEED, REFERENCE_SPECS)
    ):
        result = execute_checked(
            executor, workload, spec, capture, outcome,
            f"canary spec {index}",
        )
        records.append(result[0] if result else None)
    check_digests(workload, CANARY_SEED, records, reference, outcome)


def batch_problems(workload, records) -> list:
    """Whole-pass checks (nemesis: outcome counts add up, no corruption)."""
    if workload.name != "nemesis-trials" or not records:
        return []
    from repro.experiments.nemesistrial import summarize_nemesis

    summary = summarize_nemesis([r["nemesis_trial"] for r in records])
    problems = []
    outcomes = (
        summary["survived"] + summary["data_loss"]
        + summary["silent_corruption"]
    )
    if outcomes != summary["trials"] or summary["trials"] != len(records):
        problems.append(
            f"classification counts {outcomes} != trials {len(records)}"
        )
    if summary["silent_corruption"] or summary["corruption_events"]:
        problems.append(
            f"{summary['silent_corruption']} silent corruption trial(s),"
            f" {summary['corruption_events']} corruption event(s)"
        )
    return problems


# ----------------------------------------------------------------------
# The two kinds of run.
# ----------------------------------------------------------------------


def measure(workload, seed: int, seconds: float, capture, reference):
    """Untraced run: the end-to-end metrics."""
    from repro.runner.execute import BatchedTrialExecutor
    from workloads import record_counts

    outcome = Outcome()
    executor = BatchedTrialExecutor()
    run_canary(executor, workload, capture, reference, outcome)

    walls, cal_ms, accesses, responses, measured, leading = (
        [], [], 0, [], [], []
    )
    peak_rss_mb = None
    index = 0
    deadline = perf_counter() + seconds
    while index < workload.measured or perf_counter() < deadline:
        spec = workload.make_spec(seed, index)
        result = execute_checked(
            executor, workload, spec, capture, outcome, f"spec {index}"
        )
        cal = calibrate.measure_ms()
        if index < REFERENCE_SPECS:
            leading.append(result[0] if result else None)
        if result is not None:
            record, wall, spec_responses = result
            walls.append(wall)
            cal_ms.append(cal)
            accesses += record_counts(record)["accesses"]
            if index < workload.measured:
                responses.extend(spec_responses)
                measured.append(record)
        index += 1
        if index == workload.measured:
            # Fixed work so far: later specs only grow the program's own
            # memo tables, by however many specs the host had time for.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0
    check_digests(workload, seed, leading, reference, outcome)
    for problem in batch_problems(workload, measured):
        outcome.problem(problem)
    if len(measured) < workload.measured:
        outcome.problem(
            f"only {len(measured)} of {workload.measured} measured specs"
            " passed their checks"
        )
    if not walls or not responses:
        return outcome, {}, {"specs": len(walls)}
    scaled = normalise(walls, cal_ms)
    busy = sum(scaled)
    metrics = {
        "sim_accesses_per_s": metric(accesses / busy, "1/s"),
        "trials_per_s": metric(len(scaled) / busy, "1/s"),
        "trial_wall_ms.p50": metric(percentile(scaled, 50) * 1e3, "ms"),
        "trial_wall_ms.p95": metric(percentile(scaled, 95) * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "ok_frac": metric(
            (outcome.attempted - outcome.failed) / outcome.attempted,
            "fraction",
        ),
        "sim_resp_ms.p50": metric(mid_quantile(responses, 0.50), "ms"),
        "sim_resp_ms.p99": metric(mid_quantile(responses, 0.99), "ms"),
    }
    detail = {
        "specs": len(walls),
        "busy_s": busy,
        "raw_busy_s": sum(walls),
        "raw_trial_wall_ms.p50": percentile(walls, 50) * 1e3,
        "raw_trial_wall_ms.p95": percentile(walls, 95) * 1e3,
        "calibration_ms.p50": percentile(cal_ms, 50),
        "accesses": accesses,
        "measured_specs": len(measured),
        "measured_responses": len(responses),
    }
    return outcome, metrics, detail


def traced(workload, seed: int, capture, reference):
    """Traced run: per-layer metrics over a fixed slice of the stream."""
    import micro
    from repro.runner.execute import BatchedTrialExecutor
    from tracer import Tracer
    from workloads import record_counts, record_digest, rebuild_steps

    outcome = Outcome()
    specs = workload.specs(seed, workload.traced)

    def one_pass(tracer=None):
        """``(record, responses)`` per spec (None if it failed), wall_s."""
        executor = BatchedTrialExecutor()
        results, wall = [], 0.0
        for index, spec in enumerate(specs):
            if tracer is not None:
                tracer.trace_id = index
            result = execute_checked(
                executor, workload, spec, capture, outcome,
                f"{'traced' if tracer else 'untraced'} spec {index}",
            )
            if result is None:
                results.append(None)
                continue
            record, spec_wall, spec_responses = result
            wall += spec_wall
            results.append((record, spec_responses))
        return results, wall

    def fingerprint(results):
        return [
            (record_digest(r[0]), r[1]) if r else None for r in results
        ]

    plain, plain_wall = one_pass()
    check_digests(
        workload, seed, [r[0] if r else None for r in plain], reference,
        outcome,
    )
    tracer = Tracer()
    tracer.install()
    try:
        traced_results, traced_wall = one_pass(tracer)
    finally:
        tracer.uninstall()
    if fingerprint(traced_results) != fingerprint(plain):
        outcome.problem("traced records differ from the untraced run's")
    records = [r[0] for r in traced_results if r]
    unattributed = traced_wall - tracer.root_s
    layer_self = tracer.layer_self_s()
    if abs(sum(layer_self.values()) + unattributed - traced_wall) > 1e-6:
        outcome.problem("self times plus unattributed != traced wall time")
    if unattributed < -1e-6:
        outcome.problem("spans cover more than the traced wall time")

    replay = micro.run_all(tracer.recorder)
    for name in ("drive", "sstf"):
        if replay[name]["mismatches"]:
            outcome.problem(
                f"{name} replay diverged from the recorded outputs in"
                f" {replay[name]['mismatches']} call(s)"
            )

    counts = [record_counts(r) for r in records]
    events = sum(c["events"] for c in counts)
    accesses = sum(c["accesses"] for c in counts) or 1
    self_s, calls = tracer.self_s, tracer.calls
    n_specs = max(1, len(records))
    execute_s = tracer.total_s["runner.execute"]
    engine_s = tracer.total_s["sim.run"]
    offered = shed = 0
    oracle_checks = scrub_cells = 0
    for record in records:
        if "openloop" in record:
            offered += record["openloop"]["offered"]
            shed += record["openloop"]["shed"]
        trial = record.get("nemesis_trial")
        if trial is not None:
            oracle = trial["oracle"]
            oracle_checks += (
                oracle["reconstructed_reads"] + oracle["rebuild_checks"]
                + oracle["escalation_checks"]
            )
            scrub_cells += trial["scrub"]["cells_read"]
    layouts_s = layer_self["layouts"]
    array_s = layer_self["array"]
    metrics = {
        "sim.events": metric(events, "count"),
        "sim.events_per_access": metric(events / accesses, "ratio"),
        "sim.self_s": metric(layer_self["sim"], "s"),
        "sim.pending_high_water": metric(
            max(c["pending_high_water"] for c in counts) if counts else 0,
            "count",
        ),
        "sim.hold_ns_per_op": metric(replay["hold_ns_per_op"], "ns"),
        "disk.service_calls": metric(calls["disk.service"], "count"),
        "disk.service_self_s": metric(self_s["disk.service"], "s"),
        "disk.sched_self_s": metric(self_s["disk.sched"], "s"),
        "disk.ops_per_access": metric(
            sum(c["disk_ops"] for c in counts) / accesses, "ratio"
        ),
        "disk.queue_high_water": metric(
            max(c["queue_high_water"] for c in counts) if counts else 0,
            "count",
        ),
        "disk.service_ns_per_op": metric(replay["drive"]["ns_per_op"], "ns"),
        "disk.sstf_ns_per_op": metric(replay["sstf"]["ns_per_op"], "ns"),
        "layouts.calls": metric(calls["layouts"], "count"),
        "layouts.self_s": metric(layouts_s, "s"),
        "layouts.ns_per_call": metric(
            layouts_s / calls["layouts"] * 1e9 if calls["layouts"] else 0.0,
            "ns",
        ),
        "array.submit_calls": metric(calls["array.submit"], "count"),
        "array.self_s": metric(array_s, "s"),
        "array.ns_per_access": metric(array_s / accesses * 1e9, "ns"),
        "array.plan_self_s": metric(self_s["array.plan"], "s"),
        "array.rebuild_steps": metric(
            sum(rebuild_steps(r) for r in records), "count"
        ),
        "array.rebuild_self_s": metric(self_s["array.rebuild"], "s"),
        "traffic.offers": metric(calls["traffic.offer"], "count"),
        "traffic.self_s": metric(layer_self["traffic"], "s"),
        "traffic.shed_frac": metric(shed / offered if offered else 0.0,
                                    "fraction"),
        "faults.self_s": metric(layer_self["faults"], "s"),
        "faults.oracle_checks": metric(oracle_checks, "count"),
        "faults.scrub_cells_read": metric(scrub_cells, "count"),
        "runner.trial_setup_ms": metric(
            (execute_s - engine_s) / n_specs * 1e3, "ms"
        ),
        "runner.self_s": metric(layer_self["runner"], "s"),
        "workload.self_s": metric(layer_self["workload"], "s"),
        "stats.self_s": metric(layer_self["stats"], "s"),
        "trace.overhead_frac": metric(
            traced_wall / plain_wall if plain_wall else 0.0, "ratio"
        ),
        "trace.unattributed_s": metric(unattributed, "s"),
        "trace.other_self_s": metric(layer_self["other"], "s"),
    }
    for name, entry in replay["layouts"].items():
        for key, value in entry.items():
            metrics[f"layouts.{name}.{key}"] = metric(value, "ns")
    detail = {
        "specs": len(records),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": plain_wall,
        "root_span_s": tracer.root_s,
        "layer_self_s": layer_self,
        "label_self_s": dict(tracer.self_s),
        "label_calls": dict(tracer.calls),
        "hold_depth": replay["hold_depth"],
        "replayed_ops": {
            "drive": replay["drive"]["ops"], "sstf": replay["sstf"]["ops"],
        },
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped_spans,
    }
    return outcome, metrics, detail, tracer.span_records()


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------


def provenance() -> dict:
    from repro.runner.provenance import source_version
    from repro.sim.engine import engine_kind

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        nproc = os.cpu_count()
    return {
        "engine": engine_kind(),
        "python": platform.python_version(),
        "nproc": nproc,
        "source_version": source_version(str(SRC)),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int):
    from workloads import WORKLOADS, ResponseCapture

    workload = WORKLOADS[name]
    probes = run_probes(name, SETUP_PROBES[trace])
    reference = load_reference()
    capture = ResponseCapture()
    capture.install()
    try:
        if trace:
            outcome, metrics, detail, spans = traced(
                workload, seed, capture, reference
            )
            metrics["core.layout_build_s"] = metric(
                statistics.median(p["layout_build_s"] for p in probes), "s"
            )
        else:
            outcome, metrics, detail = measure(
                workload, seed, seconds, capture, reference
            )
            spans = None
            metrics["setup_s"] = metric(
                statistics.median(p["setup_s"] for p in probes), "s"
            )
    finally:
        capture.uninstall()
    detail["setup_probes"] = probes
    return outcome, metrics, detail, spans


def write_reference() -> int:
    """Regenerate ``reference.json`` from this source tree."""
    from repro.runner.execute import BatchedTrialExecutor
    from workloads import WORKLOADS, record_digest

    table = {"schema": 1, "specs_per_seed": REFERENCE_SPECS, "workloads": {}}
    for name, workload in WORKLOADS.items():
        executor = BatchedTrialExecutor()
        table["workloads"][name] = {
            str(seed): [
                record_digest(executor.execute(spec))
                for spec in workload.specs(seed, REFERENCE_SPECS)
            ]
            for seed in REFERENCE_SEEDS
        }
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate perfbench/reference.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        print(json.dumps(probe_setup(args.workload)))
        return 0
    from workloads import WORKLOADS

    if args.write_reference:
        return write_reference()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from"
              f" {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2

    info = provenance()
    print("provenance: " + json.dumps(info, sort_keys=True))
    attempted = failed = 0
    correct = True
    all_metrics = {}
    for name in names:
        try:
            outcome, metrics, detail, spans = run_workload(
                name, args.seed, args.seconds, args.trace
            )
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        attempted += outcome.attempted
        failed += outcome.failed
        ok = not outcome.failed and not outcome.problems and bool(metrics)
        correct = correct and ok
        print(f"== {name} (seed {args.seed}, trace {args.trace}):"
              f" {'ok' if ok else 'FAILED'}, {outcome.attempted} specs")
        for problem in outcome.problems:
            print(f"   check: {problem}")
        for key in sorted(metrics):
            entry = metrics[key]
            print(f"   {key:36s} {entry['value']:>16.6g} {entry['unit']}")
        OUT_DIR.mkdir(exist_ok=True)
        report = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        with open(report, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": name, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "provenance": info, "correct": ok,
                    "problems": outcome.problems, "metrics": metrics,
                    "detail": detail, "spans": spans,
                },
                handle, sort_keys=True,
            )
        prefix = f"{name}/" if len(names) > 1 else ""
        all_metrics.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": all_metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
