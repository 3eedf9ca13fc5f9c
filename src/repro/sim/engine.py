"""The event loop.

Deterministic: events at equal times fire in scheduling order.  Time is a
float in milliseconds (matching the disk model's units).

One scheduler, a binary heap (``heapq`` of ``(time, seq, callback)``
tuples): the total order is ``(time, seq)`` with ``seq`` a monotonic
per-engine tie-break counter.  DESIGN.md §5.1 says why it is the only
one.

This is the innermost loop of every experiment — millions of events per
figure — so the common cases are deliberately lean: :meth:`run` with no
arguments drains the queue through a tight loop with bound-method
locals, the tie-break counter is a plain integer (no ``itertools.count``
indirection), and the horizon/budget bookkeeping only exists on the
paths that asked for it (:meth:`run_until`, ``max_events``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError

Callback = Callable[[], None]


class SimulationEngine:
    """A binary-heap discrete-event scheduler.

    >>> engine = SimulationEngine()
    >>> fired = []
    >>> engine.schedule(5.0, lambda: fired.append(engine.now))
    >>> engine.schedule(1.0, lambda: fired.append(engine.now))
    >>> engine.run()
    2
    >>> fired
    [1.0, 5.0]
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callback]] = []
        self._seq = 0  # monotonic tie-break: equal times fire in push order
        self._stopped = False
        self.events_processed = 0
        #: Largest pending-event count ever reached (memory footprint probe).
        self.heap_high_water = 0

    def schedule(self, delay: float, callback: Callback) -> None:
        """Run ``callback`` ``delay`` ms from the current time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past ({delay})")
        heap = self._heap
        self._seq += 1
        heappush(heap, (self.now + delay, self._seq, callback))
        if len(heap) > self.heap_high_water:
            self.heap_high_water = len(heap)

    def schedule_at(self, time: float, callback: Callback) -> None:
        """Run ``callback`` at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before now = {self.now}"
            )
        heap = self._heap
        self._seq += 1
        heappush(heap, (time, self._seq, callback))
        if len(heap) > self.heap_high_water:
            self.heap_high_water = len(heap)

    def stop(self) -> None:
        """Stop the run loop after the current event."""
        self._stopped = True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Process events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired (whichever comes first).

        Returns the number of events processed by *this* call.  A
        :meth:`stop` issued from inside a callback halts the loop before
        the next event fires — including one scheduled at the very same
        timestamp — and leaves the remainder on the heap (visible via
        :meth:`pending`).  A stop requested before ``run`` is discarded:
        each call starts fresh.
        """
        self._stopped = False
        if until is None and max_events is None:
            return self._drain()
        if max_events is None:
            return self._run_until(until)
        return self._run_general(until, max_events)

    def run_until(self, horizon: float) -> int:
        """Batched horizon run: process every event with ``time <=
        horizon``.

        Identical semantics to ``run(until=horizon)`` — the clock
        advances to ``horizon`` (never rewound) when a later event is
        still pending, and stays at the last fired event when the heap
        drains first — but skips the per-event ``max_events``
        bookkeeping: the runner's timeslicing path.
        """
        self._stopped = False
        return self._run_until(horizon)

    # ------------------------------------------------------------------
    # Loop bodies.  All three fire identical events in identical order;
    # they differ only in which stop conditions they check per event.
    # ------------------------------------------------------------------

    def _drain(self) -> int:
        heap = self._heap
        pop = heappop
        processed = 0
        try:
            while heap:
                time, _, callback = pop(heap)
                self.now = time
                callback()
                processed += 1
                if self._stopped:
                    break
        finally:
            self.events_processed += processed
        return processed

    def _run_until(self, until: float) -> int:
        heap = self._heap
        pop = heappop
        processed = 0
        try:
            while heap:
                if heap[0][0] > until:
                    # Never rewind: run(until=...) with a past horizon is
                    # a no-op on the clock, not a time machine.
                    if until > self.now:
                        self.now = until
                    break
                time, _, callback = pop(heap)
                self.now = time
                callback()
                processed += 1
                if self._stopped:
                    break
        finally:
            self.events_processed += processed
        return processed

    def _run_general(
        self, until: Optional[float], max_events: int
    ) -> int:
        heap = self._heap
        pop = heappop
        processed = 0
        try:
            while heap:
                if processed >= max_events:
                    break
                if until is not None and heap[0][0] > until:
                    if until > self.now:
                        self.now = until
                    break
                time, _, callback = pop(heap)
                self.now = time
                callback()
                processed += 1
                if self._stopped:
                    break
        finally:
            self.events_processed += processed
        return processed

    def pending(self) -> int:
        return len(self._heap)

    def clear_pending(self) -> int:
        """Drop every scheduled event (power loss): nothing pending fires.

        Returns the number of events dropped.  The clock and counters are
        untouched — a restarted simulation continues from ``now``.
        """
        dropped = len(self._heap)
        self._heap.clear()
        return dropped


def engine_kind() -> str:
    """The event-engine implementation name recorded in provenance."""
    return "heap"


def make_engine() -> SimulationEngine:
    """Build an event engine (the binary-heap :class:`SimulationEngine`)."""
    return SimulationEngine()
