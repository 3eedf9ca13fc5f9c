"""A fixed reference workload that measures how fast the host runs now.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes.  This kernel is the benchmark's own code and never
changes with the simulator.  It is a miniature closed-loop disk-queue
simulation written in the same style as the real one: a ``heapq`` event
loop of ``(time, seq, callback)`` tuples, bound-method and closure
callbacks, per-disk objects, FIFO deques, dict bookkeeping and float
arithmetic.  Timing it between specs gives the host's current speed;
:data:`REFERENCE_MS` is its median time on the reference machine, so
``REFERENCE_MS / measured`` converts host seconds into reference-machine
seconds.
"""

from __future__ import annotations

import heapq
from collections import deque
from time import perf_counter

#: Median kernel time (ms) on the reference machine (2-vCPU VM,
#: Python 3.11).  A constant: it only sets the scale of normalised times.
REFERENCE_MS = 3.0

_REV_MS = 11.1
_SEEK_MS = [0.0] + [1.0 + 0.05 * d ** 0.5 for d in range(1, 2048)]


class _Disk:
    def __init__(self, loop, ident: int):
        self.loop = loop
        self.ident = ident
        self.cylinder = 0
        self.busy = False
        self.queue = deque()
        self.ops = 0

    def submit(self, cylinder: int, done) -> None:
        if self.busy:
            self.queue.append((cylinder, done))
            return
        self.busy = True
        self._service(cylinder, done)

    def _service(self, cylinder: int, done) -> None:
        distance = abs(cylinder - self.cylinder)
        seek = _SEEK_MS[distance]
        latency = (cylinder * 0.37 - (self.loop.now + seek)) % _REV_MS
        self.cylinder = cylinder
        self.ops += 1
        self.loop.schedule(seek + latency + 0.4, lambda: self._complete(done))

    def _complete(self, done) -> None:
        done()
        if self.queue:
            cylinder, nxt = self.queue.popleft()
            self._service(cylinder, nxt)
        else:
            self.busy = False


class _Loop:
    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.seq = 0

    def schedule(self, delay: float, callback) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, callback))

    def run(self, budget: int) -> int:
        heap = self.heap
        fired = 0
        while heap and fired < budget:
            self.now, _, callback = heapq.heappop(heap)
            callback()
            fired += 1
        return fired


def kernel(events: int = 1500) -> int:
    """Run the reference simulation for ``events`` events."""
    loop = _Loop()
    disks = [_Disk(loop, i) for i in range(13)]
    inflight = {}
    state = {"next": 0, "lba": 12345}

    def next_access(client: int) -> None:
        access = state["next"]
        state["next"] = access + 1
        lba = state["lba"] = (state["lba"] * 1103515245 + 12345) % 2147483648
        first = lba % 13
        parts = [(first + k) % 13 for k in range(3)]
        inflight[access] = [len(parts), loop.now]

        def part_done() -> None:
            entry = inflight[access]
            entry[0] -= 1
            if entry[0] == 0:
                del inflight[access]
                next_access(client)

        for disk in parts:
            disks[disk].submit((lba >> 4) % 2000, part_done)

    for client in range(8):
        next_access(client)
    return loop.run(events)


def measure_ms(repeats: int = 1) -> float:
    """Median wall time of ``repeats`` kernel runs, in milliseconds."""
    times = []
    for _ in range(repeats):
        started = perf_counter()
        kernel()
        times.append((perf_counter() - started) * 1e3)
    times.sort()
    return times[len(times) // 2]
