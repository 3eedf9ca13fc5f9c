"""Span tracing of the simulator's layers, installed from outside ``src/``.

:meth:`Tracer.install` wraps the layers' public entry points at class
level (so it must run before the objects it should see are built) and
:meth:`Tracer.uninstall` restores every original.  Each wrapped call is
a span; a span's *self* time is its duration minus the time of the
spans it encloses, so the self times of all spans add up to the time of
the root spans exactly.  Callbacks handed to the engine or to the
controller get a span labelled by the module that defines them; code
that runs through private paths lands in its caller's span.

Spans are kept in memory (per-label totals for all of them, raw records
for the first :data:`KEEP_SPANS`) and written out by the caller at the end.
While installed, the tracer also records the inputs the isolated
microbenchmarks in :mod:`micro` replay.
"""

from __future__ import annotations

import copy
import functools
import inspect
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

#: Module prefix -> span label, most specific first.  A label's layer is
#: the part before the first dot.
MODULE_LABELS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "sim"),
    ("repro.disk.drive", "disk.service"),
    ("repro.disk.scheduler", "disk.sched"),
    ("repro.disk", "disk"),
    ("repro.layouts", "layouts"),
    ("repro.array.raidops", "array.plan"),
    ("repro.array.reconstructor", "array.rebuild"),
    ("repro.array.journal", "array.journal"),
    ("repro.array.resync", "array.journal"),
    ("repro.array", "array"),
    ("repro.traffic", "traffic"),
    ("repro.faults", "faults"),
    ("repro.runner", "runner"),
    ("repro.experiments", "runner"),
    ("repro.core", "core"),
    ("repro.designs", "core"),
    ("repro.gf", "core"),
    ("repro.workload", "workload"),
    ("repro.stats", "stats"),
)

LAYERS = (
    "sim", "disk", "layouts", "array", "traffic", "faults", "runner",
    "core", "workload", "stats", "other",
)

#: Public inverse/forward mapping methods of a layout.
LAYOUT_METHODS = (
    "stripe_units",
    "stripe_of_data_unit",
    "data_unit_cell",
    "data_unit_cells",
    "data_unit_address",
    "data_units_of_stripe",
    "locate",
    "relocation_target",
)

#: Cap on each recorded microbenchmark input stream.
RECORD_CAP = 50_000
#: Raw span records kept; every span still counts in the totals.
KEEP_SPANS = 20_000


def module_label(module: str) -> str:
    for prefix, label in MODULE_LABELS:
        if module == prefix or module.startswith(prefix + "."):
            return label
    return "other"


def layer_of(label: str) -> str:
    return label.split(".", 1)[0]


def callback_label(callback) -> str:
    """Label of the module that defines ``callback`` (through wrappers)."""
    while True:
        if isinstance(callback, functools.partial):
            callback = callback.func
            continue
        inner = getattr(callback, "__wrapped__", None)
        if inner is None:
            break
        callback = inner
    return module_label(getattr(callback, "__module__", None) or "")


def _subclasses(cls) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


def _public_methods(cls) -> List[str]:
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


class Recorder:
    """Inputs seen at layer boundaries, for the isolated replays."""

    def __init__(self) -> None:
        #: Engine pending depth and delay at every ``schedule`` call.
        self.pending_depths: List[int] = []
        self.delays: List[float] = []
        #: id(drive) -> [drive, snapshot-before-first-call, [(req, now, out)], ok]
        self.drives: Dict[int, list] = {}
        self.drive_calls = 0
        #: id(scheduler) -> [scheduler, (geometry, window), [ops]]
        self.schedulers: Dict[int, list] = {}
        self.scheduler_ops = 0
        self.locate_args: List[Tuple[int, int]] = []
        self.cells_args: List[Tuple[int, int]] = []
        #: Units the write path translated (``stripe_of_data_unit``).
        self.units: List[int] = []


class Tracer:
    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.root_s = 0.0
        #: Identifier shared by every span of one spec (its stream index).
        self.trace_id = 0
        self.spans: List[tuple] = []
        self.dropped_spans = 0
        self.recorder = Recorder()
        self._stack: List[list] = []
        self._next_id = 0
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # Spans.
    # ------------------------------------------------------------------

    def span(self, label: str, fn, args, kwargs):
        stack = self._stack
        self._next_id += 1
        frame = [0.0, self._next_id]
        parent = stack[-1][1] if stack else 0
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[label] += duration - frame[0]
            self.total_s[label] += duration
            self.calls[label] += 1
            if stack:
                stack[-1][0] += duration
            else:
                self.root_s += duration
            if len(self.spans) < KEEP_SPANS:
                self.spans.append(
                    (frame[1], parent, self.trace_id, label, start, end)
                )
            else:
                self.dropped_spans += 1

    def wrap(self, label: str, fn):
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return span(label, fn, args, kwargs)

        return traced

    def traced_callback(self, callback):
        label = callback_label(callback)
        span = self.span

        def fire(*args, **kwargs):
            return span(label, callback, args, kwargs)

        fire.__wrapped__ = callback
        return fire

    def wrap_with_callbacks(self, label: str, fn):
        """Span ``fn`` and give every callable argument its own span."""
        span = self.span
        traced_callback = self.traced_callback

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            args = tuple(
                traced_callback(a) if i and callable(a) else a
                for i, a in enumerate(args)
            )
            kwargs = {
                k: traced_callback(v) if callable(v) else v
                for k, v in kwargs.items()
            }
            return span(label, fn, args, kwargs)

        return traced

    # ------------------------------------------------------------------
    # Installation.
    # ------------------------------------------------------------------

    def patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def patch_all(self, classes, names, label: str) -> None:
        for cls in classes:
            for name in names:
                if name in vars(cls):
                    self.patch(cls, name, self.wrap(label, vars(cls)[name]))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def install(self) -> None:
        from repro.array import controller as controller_module
        from repro.array.controller import ArrayController
        from repro.array.journal import StripeJournal
        from repro.array.reconstructor import Reconstructor
        from repro.disk.drive import DiskDrive
        from repro.disk.scheduler import Scheduler, SstfScheduler
        from repro.experiments import config as config_module
        from repro.faults.lifecycle import ArrayLifecycle
        from repro.faults.oracle import IntegrityOracle, StripeParityModel
        from repro.faults.scrubber import Scrubber
        from repro.layouts import registry  # noqa: F401 (loads every layout)
        from repro.layouts.base import Layout
        from repro.layouts.relocated import RelocatedView
        from repro.runner.execute import BatchedTrialExecutor
        from repro.sim.engine import SimulationEngine
        from repro.stats.histogram import LatencyHistogram
        from repro.traffic.admission import AdmissionQueue
        from repro.traffic.sla import SlaTracker

        self.patch_all(
            _subclasses(SimulationEngine), ("run", "run_until"), "sim.run"
        )
        for cls in _subclasses(SimulationEngine):
            for name in ("schedule", "schedule_at"):
                if name in vars(cls):
                    self.patch(
                        cls, name,
                        self._recording_schedule(vars(cls)[name], name),
                    )
        self.patch(
            ArrayController, "submit",
            self.wrap_with_callbacks(
                "array.submit", vars(ArrayController)["submit"]
            ),
        )
        self.patch(
            ArrayController, "submit_raw",
            self.wrap_with_callbacks(
                "array.submit_raw", vars(ArrayController)["submit_raw"]
            ),
        )
        self.patch(
            controller_module, "plan_access",
            self.wrap("array.plan", controller_module.plan_access),
        )
        self.patch_all(
            [Reconstructor], _public_methods(Reconstructor), "array.rebuild"
        )
        self.patch_all(
            [StripeJournal], _public_methods(StripeJournal), "array.journal"
        )
        for cls in _subclasses(Scheduler):
            for name in ("push", "pop", "clear"):
                if name in vars(cls):
                    self.patch(
                        cls, name,
                        self._recording_scheduler(
                            vars(cls)[name], name, SstfScheduler
                        ),
                    )
        self.patch(
            DiskDrive, "service",
            self._recording_service(vars(DiskDrive)["service"]),
        )
        for cls in _subclasses(Layout) + [RelocatedView]:
            for name in LAYOUT_METHODS:
                if name in vars(cls):
                    self.patch(
                        cls, name,
                        self._recording_layout(vars(cls)[name], name),
                    )
        self.patch(
            config_module, "make_layout",
            self.wrap("core", config_module.make_layout),
        )
        self.patch_all([AdmissionQueue], ["offer"], "traffic.offer")
        self.patch_all([SlaTracker], ["record"], "traffic")
        for cls in (IntegrityOracle, StripeParityModel, Scrubber,
                    ArrayLifecycle):
            self.patch_all([cls], _public_methods(cls), "faults")
        self.patch_all([LatencyHistogram], ["record"], "stats")
        self.patch_all([BatchedTrialExecutor], ["execute"], "runner.execute")

    # ------------------------------------------------------------------
    # Wrappers that also record microbenchmark inputs.
    # ------------------------------------------------------------------

    def _recording_schedule(self, original, name: str):
        span = self.span
        traced_callback = self.traced_callback
        rec = self.recorder
        depths = rec.pending_depths
        delays = rec.delays
        relative = name == "schedule"

        @functools.wraps(original)
        def schedule(engine, when, callback):
            if len(depths) < RECORD_CAP:
                depths.append(engine.pending())
                delays.append(when if relative else when - engine.now)
            return span(
                "sim", original, (engine, when, traced_callback(callback)), {}
            )

        return schedule

    def _recording_scheduler(self, original, name: str, sstf_cls):
        span = self.span
        rec = self.recorder

        @functools.wraps(original)
        def traced(scheduler, *args):
            out = span("disk.sched", original, (scheduler,) + args, {})
            if type(scheduler) is sstf_cls and rec.scheduler_ops < RECORD_CAP:
                entry = rec.schedulers.get(id(scheduler))
                if entry is None:
                    entry = [
                        scheduler, (scheduler.geometry, scheduler.window), []
                    ]
                    rec.schedulers[id(scheduler)] = entry
                entry[2].append((name, args, out))
                rec.scheduler_ops += 1
            return out

        return traced

    def _recording_service(self, original):
        span = self.span
        rec = self.recorder

        @functools.wraps(original)
        def service(drive, request, now_ms):
            entry = None
            if rec.drive_calls < RECORD_CAP:
                entry = rec.drives.get(id(drive))
                if entry is None:
                    entry = [drive, copy.copy(drive), [], True]
                    rec.drives[id(drive)] = entry
            out = span("disk.service", original, (drive, request, now_ms), {})
            if entry is not None:
                if (
                    drive.fail_slow is not None
                    or drive.transient_errors is not None
                    or drive.track_buffer
                ):
                    entry[3] = False  # not reproducible by a bare drive
                entry[2].append((request, now_ms, out))
                rec.drive_calls += 1
            return out

        return service

    def _recording_layout(self, original, name: str):
        span = self.span
        streams = {
            "locate": self.recorder.locate_args,
            "data_unit_cells": self.recorder.cells_args,
            "stripe_of_data_unit": self.recorder.units,
        }
        stream = streams.get(name)
        if stream is None:
            return self.wrap("layouts", original)

        @functools.wraps(original)
        def traced(layout, *args):
            if len(stream) < RECORD_CAP:
                stream.append(args if len(args) > 1 else args[0])
            return span("layouts", original, (layout,) + args, {})

        return traced

    # ------------------------------------------------------------------
    # Summaries.
    # ------------------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for label, seconds in self.self_s.items():
            out[layer_of(label)] += seconds
        return out

    def span_records(self) -> List[dict]:
        return [
            {
                "id": sid, "parent": parent, "trace": trace, "label": label,
                "start_s": start, "end_s": end,
            }
            for sid, parent, trace, label, start, end in self.spans
        ]
