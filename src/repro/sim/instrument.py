"""Lightweight simulation instrumentation.

Always-on counters live on the simulated objects themselves (engine heap
high-water mark, per-drive busy time, per-server queue depth high-water);
this module turns them into plain JSON-able records, and provides the
physical-operation :class:`TraceRecorder` behind the golden-trace
regression tests.  Everything here is pure data — built-in containers,
no pickling surprises — so records survive multiprocessing boundaries and the on-disk
result cache byte-identically.
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.engine import SimulationEngine


class TraceRecorder:
    """Ordered log of every physical operation the array services.

    Attach with :meth:`ArrayController.attach_trace`; each serviced
    request appends one entry at service-start time.  Entries are plain
    dicts so a trace can be dumped to JSON and compared exactly —
    floats round-trip through ``json`` without loss, which is what makes
    golden-trace tests byte-stable.
    """

    def __init__(self):
        self.entries: List[dict] = []

    def record(self, disk_id: int, now_ms: float, request, service) -> None:
        self.entries.append(
            {
                "disk": disk_id,
                "start_ms": now_ms,
                "lba": request.lba,
                "sectors": request.sectors,
                "op": "W" if request.is_write else "R",
                "access_id": request.access_id,
                "seek_ms": service.seek_ms,
                "latency_ms": service.latency_ms,
                "transfer_ms": service.transfer_ms,
            }
        )

    def __len__(self) -> int:
        return len(self.entries)


class ProgressTimeline:
    """``(time_ms, fraction)`` samples of a background process.

    The lifecycle experiment hooks one into the reconstructor's per-step
    callback to get the rebuild-progress-over-time curve; entries are
    plain two-element lists so the timeline drops into a result record
    (and the on-disk cache) byte-identically.

    >>> timeline = ProgressTimeline()
    >>> timeline.record(10.0, 0.5)
    >>> timeline.record(20.0, 1.0)
    >>> timeline.points
    [[10.0, 0.5], [20.0, 1.0]]
    """

    def __init__(self):
        self.points: List[list] = []

    def record(self, time_ms: float, fraction: float) -> None:
        self.points.append([time_ms, fraction])

    def __len__(self) -> int:
        return len(self.points)


class DepthTimeline:
    """``(time_ms, depth)`` samples of a queue, recorded on change only.

    The open-loop admission queue feeds one of these; consecutive
    samples at the same depth collapse into the first, so a saturated
    queue does not grow the record linearly with arrivals.  Entries are
    plain two-element lists (same contract as
    :class:`ProgressTimeline`), so the timeline drops into result
    records byte-identically.

    >>> t = DepthTimeline()
    >>> t.record(1.0, 0); t.record(2.0, 1); t.record(3.0, 1)
    >>> t.points
    [[1.0, 0], [2.0, 1]]
    """

    def __init__(self):
        self.points: List[list] = []
        self.high_water = 0

    def record(self, time_ms: float, depth: int) -> None:
        if depth > self.high_water:
            self.high_water = depth
        if self.points and self.points[-1][1] == depth:
            return
        self.points.append([time_ms, depth])

    def __len__(self) -> int:
        return len(self.points)


def engine_snapshot(engine: SimulationEngine) -> Dict[str, float]:
    """The engine-level counters as a JSON-able record."""
    return {
        "events_processed": engine.events_processed,
        "heap_high_water": engine.heap_high_water,
        "pending": engine.pending(),
        "now_ms": engine.now,
    }
