"""Spec execution: one spec in, one JSON-able result record out.

The record is a plain dict of JSON scalars/containers, so it is
picklable across worker processes, cacheable on disk, and — crucially —
*byte-identical* whether computed serially, in a worker, or read back
from the cache (floats round-trip exactly through ``json``).  Use
:func:`canonical_json` to compare record lists bit-for-bit.
"""

from __future__ import annotations

import importlib
import json
from typing import List

from repro.errors import ConfigurationError
from repro.runner.spec import (
    MODES,
    CampaignTrialSpec,
    CorruptionTrialSpec,
    CrashTrialSpec,
    ExperimentSpec,
    FailSlowTrialSpec,
    LifecycleSpec,
    NemesisTrialSpec,
    OpenLoopSpec,
    Spec,
    Table1Spec,
    spec_hash,
    spec_to_dict,
)

#: Bump together with result-record layout changes.
RESULT_SCHEMA_VERSION = 1


def _execute_response(spec: ExperimentSpec, layout=None) -> dict:
    from repro.experiments.response import run_response_point_instrumented
    from repro.workload.spec import AccessSpec

    run = run_response_point_instrumented(
        spec.layout,
        AccessSpec(spec.size_kb, spec.is_write),
        spec.clients,
        mode=MODES[spec.mode],
        failed_disk=spec.failed_disk,
        seed=spec.seed,
        max_samples=spec.max_samples,
        warmup=spec.warmup,
        use_stopping_rule=spec.use_stopping_rule,
        coalesce=spec.coalesce,
        disks=spec.disks,
        width=spec.width,
        record_timelines=spec.timelines,
        layout=layout,
    )
    point = run.point
    mix = point.seek_mix
    return {
        "point": {
            "layout": point.layout,
            "spec_label": point.spec_label,
            "clients": point.clients,
            "mode": point.mode,
            "mean_response_ms": point.mean_response_ms,
            "throughput_per_s": point.throughput_per_s,
            "samples": point.samples,
            "converged": point.converged,
            "seek_mix": {
                "non_local": mix.non_local,
                "cylinder_switch": mix.cylinder_switch,
                "track_switch": mix.track_switch,
                "no_switch": mix.no_switch,
            },
        },
        "histogram": run.histogram.to_dict(),
        "instrumentation": run.instrumentation,
    }


def _execute_table1(spec: Table1Spec, layout=None) -> dict:
    from repro.experiments.table1 import solve_cell

    cell = solve_cell(
        spec.k,
        spec.g,
        seed=spec.seed,
        restarts=spec.restarts,
        max_steps=spec.max_steps,
        p_max=spec.p_max,
    )
    return {
        "cell": {
            "k": cell.k,
            "g": cell.g,
            "n": cell.n,
            "group_size": cell.group_size,
            "method": cell.method,
            "paper_value": cell.paper_value,
        }
    }


def _execute_lifecycle(spec: LifecycleSpec, layout=None) -> dict:
    from repro.experiments.lifecycle import run_lifecycle
    from repro.workload.spec import AccessSpec

    run = run_lifecycle(
        spec.layout,
        AccessSpec(spec.size_kb, spec.is_write),
        spec.clients,
        spec.scenario(),
        seed=spec.seed,
        max_samples=spec.max_samples,
        post_samples=spec.post_samples,
        disks=spec.disks,
        width=spec.width,
        record_timelines=spec.timelines,
        oracle=spec.oracle,
    )
    record = {
        "lifecycle": {
            "layout": run.layout,
            "spec_label": run.spec_label,
            "clients": run.clients,
            "fault_time_ms": run.fault_time_ms,
            "fault_disk": run.fault_disk,
            "transitions": [list(t) for t in run.transitions],
            "complete": run.complete,
            "rebuild_duration_ms": run.rebuild_duration_ms,
            "rebuild_steps": run.rebuild_steps,
            "rebuild_total_steps": run.rebuild_total_steps,
            "rebuild_fraction": run.rebuild_fraction,
            "samples": run.samples,
            "mode_means_ms": {
                mode: run.by_mode.mean(mode) for mode in run.by_mode.modes()
            },
        },
        "histograms": run.by_mode.to_dict(),
        "progress": list(run.progress.points),
        "instrumentation": run.instrumentation,
    }
    if run.oracle is not None:
        record["lifecycle"]["oracle"] = run.oracle
    return record


#: Trial kinds: the key their record nests under, and the module and
#: name of their trial function, ``run(spec, layout=None) -> dict``.
#: Modules load on first use, so importing the runner loads no harness.
_TRIALS = {
    OpenLoopSpec.kind: (
        "openloop", "repro.experiments.openloop", "run_openloop_trial"
    ),
    FailSlowTrialSpec.kind: (
        "failslow", "repro.experiments.failslow", "run_failslow_trial"
    ),
    CorruptionTrialSpec.kind: (
        "corruption", "repro.experiments.corruption", "run_corruption_trial"
    ),
    NemesisTrialSpec.kind: (
        "nemesis_trial",
        "repro.experiments.nemesistrial",
        "run_nemesis_trial",
    ),
    CrashTrialSpec.kind: (
        "crash_trial", "repro.experiments.crashtrial", "run_crash_trial"
    ),
    CampaignTrialSpec.kind: (
        "trial", "repro.experiments.campaign", "run_campaign_trial"
    ),
}


#: The other kinds' record builders.  Each takes ``(spec, layout=None)``;
#: only a batchable kind is ever handed a layout.
_EXECUTORS = {
    ExperimentSpec.kind: _execute_response,
    Table1Spec.kind: _execute_table1,
    LifecycleSpec.kind: _execute_lifecycle,
}


def _run(spec: Spec, layout=None, **extra) -> dict:
    """A spec's unfinalized record; trials nest theirs under their key."""
    trial = _TRIALS.get(spec.kind)
    if trial is None:
        executor = _EXECUTORS.get(spec.kind)
        if executor is None:
            raise ConfigurationError(
                f"no executor for spec kind {spec.kind!r}"
            )
        return executor(spec, layout)
    key, module, name = trial
    run = getattr(importlib.import_module(module), name)
    return {key: run(spec, layout, **extra)}


def _finalize(record: dict, spec: Spec) -> dict:
    record["schema"] = RESULT_SCHEMA_VERSION
    record["kind"] = spec.kind
    record["spec"] = spec_to_dict(spec)
    record["spec_hash"] = spec_hash(spec)
    return record


def execute_spec(spec: Spec) -> dict:
    """Run one spec to completion and return its result record."""
    return _finalize(_run(spec), spec)


def _record_events(record: dict) -> int:
    """Engine events a trial record's instrumentation block reports.

    The block sits at the top level or one level down, under the
    record's kind key (``{"nemesis_trial": {"instrumentation": ...}}``).
    """
    block = record.get("instrumentation")
    if block is None:
        block = next(
            value["instrumentation"]
            for value in record.values()
            if isinstance(value, dict) and "instrumentation" in value
        )
    return block["engine"]["events_processed"]


class BatchedTrialExecutor:
    """Executes trial and response specs with per-batch setup amortized.

    Monte-Carlo campaigns run thousands of trials that differ only in
    their seeds; rebuilding the layout mapping for every trial is pure
    overhead.  This executor memoizes one layout instance per
    ``(layout, disks, width)`` and hands it to the trial functions.
    Sharing is safe because layouts are immutable mappings — a
    controller that fails a disk *wraps* its layout in a relocation
    view rather than mutating it — so batched records are byte-identical
    to :func:`execute_spec` output (pinned by a unit test).  Their
    caches (in-period stripes, fault-free read runs) are pure functions
    of the geometry, so they carry over from spec to spec; response
    specs need that, as one spec sees each read shape only a few times.

    Spec kinds without a batchable function fall through to
    :func:`execute_spec` unchanged, so the executor is a drop-in
    replacement anywhere specs are executed one at a time.

    ``events_processed`` accumulates the engine event count of every
    batched spec.  Campaign trials report theirs out-of-band (their
    records carry no instrumentation block, so record bytes stay
    pinned); every other batchable kind carries an ``instrumentation``
    block at the top of its record or one level down
    (:func:`_record_events`).
    """

    #: Kinds whose functions accept a shared ``layout``.
    BATCHABLE = frozenset(_TRIALS) | {ExperimentSpec.kind}

    def __init__(self) -> None:
        self._layouts: dict = {}
        self.events_processed = 0
        self.trials_executed = 0

    def shared_layout(self, spec: Spec):
        """The memoized layout instance for a batchable spec."""
        key = (spec.layout, spec.disks, spec.width)
        layout = self._layouts.get(key)
        if layout is None:
            from repro.experiments.config import layout_for

            layout = layout_for(
                spec.layout, disks=spec.disks, width=spec.width
            )
            self._layouts[key] = layout
        return layout

    def execute(self, spec: Spec) -> dict:
        """Run one spec; byte-identical to :func:`execute_spec`."""
        kind = spec.kind
        if kind not in self.BATCHABLE:
            return execute_spec(spec)
        layout = self.shared_layout(spec)
        if kind == CampaignTrialSpec.kind:
            counters: dict = {}
            record = _run(spec, layout, instrument_out=counters)
            self.events_processed += counters.get("events_processed", 0)
        else:
            record = _run(spec, layout)
            self.events_processed += _record_events(record)
        self.trials_executed += 1
        return _finalize(record, spec)

    def run(self, specs: List[Spec]) -> List[dict]:
        """Execute a batch in order."""
        return [self.execute(spec) for spec in specs]


def point_from_record(record: dict):
    """Rebuild the :class:`ResponsePoint` a response record encodes."""
    from repro.experiments.response import ResponsePoint
    from repro.stats.seekcount import SeekMix

    data = dict(record["point"])
    data["seek_mix"] = SeekMix(**data["seek_mix"])
    return ResponsePoint(**data)


def cell_from_record(record: dict):
    """Rebuild the :class:`Table1Cell` a table1 record encodes."""
    from repro.experiments.table1 import Table1Cell

    return Table1Cell(**record["cell"])


def canonical_json(records: List[dict]) -> str:
    """Deterministic serialization for byte-level record comparison."""
    return json.dumps(records, sort_keys=True, separators=(",", ":"))
