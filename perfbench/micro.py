"""Isolated per-layer microbenchmarks over inputs recorded while tracing.

Each replay runs with the tracer uninstalled, times only the layer's own
call, and checks that the layer returns what it returned in situ where
the recorded inputs determine the answer.  Every figure is the median of
``REPEATS`` timed passes, in nanoseconds per operation.
"""

from __future__ import annotations

import copy
import statistics
from time import perf_counter
from typing import Dict, List

from tracer import Recorder

REPEATS = 3
#: Events fired per engine hold-model pass.
HOLD_EVENTS = 40_000
#: Operations per layout replay pass.
LAYOUT_OPS = 20_000


def _median_ns(timings: List[float], ops: int) -> float:
    return statistics.median(timings) / max(1, ops) * 1e9


def engine_hold(depth: int, delays: List[float]) -> float:
    """ns per schedule+pop in a hold model at a fixed pending depth.

    ``depth`` self-rescheduling events circulate through the engine in
    use; each firing draws its next delay from the recorded delays.
    """
    from repro.sim.engine import make_engine

    if not delays:
        delays = [1.0]
    delays = [d for d in delays if d >= 0] or [1.0]
    timings = []
    for _ in range(REPEATS):
        engine = make_engine()
        state = {"fired": 0, "next": 0}
        count = len(delays)

        def hold() -> None:
            state["fired"] += 1
            if state["fired"] + depth > HOLD_EVENTS:
                return
            i = state["next"]
            state["next"] = i + 1
            engine.schedule(delays[i % count], hold)

        for i in range(depth):
            engine.schedule(delays[i % count], hold)
        started = perf_counter()
        engine.run()
        timings.append(perf_counter() - started)
    return _median_ns(timings, HOLD_EVENTS)


def drive_replay(recorder: Recorder) -> Dict[str, float]:
    """ns per :meth:`DiskDrive.service` over the recorded streams."""
    streams = [e for e in recorder.drives.values() if e[3] and e[2]]
    ops = sum(len(e[2]) for e in streams)
    timings = []
    mismatches = 0
    for _ in range(REPEATS):
        drives = [copy.copy(e[1]) for e in streams]
        elapsed = 0.0
        outputs = []
        for drive, entry in zip(drives, streams):
            service = drive.service
            calls = entry[2]
            started = perf_counter()
            out = [service(request, now) for request, now, _ in calls]
            elapsed += perf_counter() - started
            outputs.append(out)
        timings.append(elapsed)
        mismatches = sum(
            got != want[2]
            for out, entry in zip(outputs, streams)
            for got, want in zip(out, entry[2])
        )
    return {
        "ns_per_op": _median_ns(timings, ops) if ops else 0.0,
        "ops": ops,
        "mismatches": mismatches,
    }


def sstf_replay(recorder: Recorder) -> Dict[str, float]:
    """ns per SSTF push/pop over the recorded per-queue streams."""
    from repro.disk.scheduler import SstfScheduler

    streams = [e for e in recorder.schedulers.values() if e[2]]
    ops = sum(len(e[2]) for e in streams)
    timings = []
    mismatches = 0
    for _ in range(REPEATS):
        elapsed = 0.0
        mismatches = 0
        for _, (geometry, window), calls in streams:
            scheduler = SstfScheduler(geometry, window=window)
            push, pop = scheduler.push, scheduler.pop
            methods = {"push": push, "pop": pop, "clear": scheduler.clear}
            args = [(methods[name], arg) for name, arg, _ in calls]
            started = perf_counter()
            out = [method(*arg) for method, arg in args]
            elapsed += perf_counter() - started
            mismatches += sum(
                got != want[2] for got, want in zip(out, calls)
            )
        timings.append(elapsed)
    return {
        "ns_per_op": _median_ns(timings, ops) if ops else 0.0,
        "ops": ops,
        "mismatches": mismatches,
    }


def layout_replay(recorder: Recorder) -> Dict[str, Dict[str, float]]:
    """ns per ``locate`` and ``data_unit_cells`` for the paper layouts.

    Replays the recorded argument streams.  Where a workload never makes
    one of the calls, the replay stands in the same traffic's other
    view: the write path translates units one at a time through
    ``stripe_of_data_unit`` (replayed as one-unit ``data_unit_cells``),
    and the fused read path never calls ``locate`` (replayed as the
    inverse lookups of the cells its ``data_unit_cells`` calls return).
    """
    from repro.experiments.config import PAPER_LAYOUT_NAMES, layout_for

    cells_args = recorder.cells_args[:LAYOUT_OPS] or [
        (unit, 1) for unit in recorder.units[:LAYOUT_OPS]
    ]
    locate_args = recorder.locate_args[:LAYOUT_OPS]
    if not locate_args:
        probe = layout_for("pddl")
        for first, count in cells_args:
            locate_args.extend(probe.data_unit_cells(first, count))
            if len(locate_args) >= LAYOUT_OPS:
                break
    out = {}
    for name in PAPER_LAYOUT_NAMES:
        layout = layout_for(name)
        layout.locate(0, 0)  # build the flat tables outside the timing
        locate, cells = layout.locate, layout.data_unit_cells
        locate_t, cells_t = [], []
        for _ in range(REPEATS):
            started = perf_counter()
            for disk, offset in locate_args:
                locate(disk, offset)
            locate_t.append(perf_counter() - started)
            started = perf_counter()
            for first, count in cells_args:
                cells(first, count)
            cells_t.append(perf_counter() - started)
        out[name] = {
            "locate_ns_per_op": _median_ns(locate_t, len(locate_args)),
            "cells_ns_per_op": _median_ns(cells_t, len(cells_args)),
        }
    return out


def run_all(recorder: Recorder) -> dict:
    depths = sorted(recorder.pending_depths) or [1]
    depth = max(1, depths[len(depths) // 2])
    return {
        "hold_depth": depth,
        "hold_ns_per_op": engine_hold(depth, recorder.delays),
        "drive": drive_replay(recorder),
        "sstf": sstf_replay(recorder),
        "layouts": layout_replay(recorder),
    }
