"""Tests for disk-op classification and counters."""

import random

from repro.array.controller import ArrayController, LogicalAccess
from repro.disk.stats import DiskOpClass, DiskStats
from repro.layouts import make_layout
from repro.sim.engine import SimulationEngine
from tests.disk.reference_stats import classify_operation, record, replay


class TestClassification:
    def test_non_local_always_wins(self):
        for cyl in (False, True):
            for head in (False, True):
                assert (
                    classify_operation(False, cyl, head)
                    is DiskOpClass.NON_LOCAL_SEEK
                )

    def test_local_cylinder_switch(self):
        assert (
            classify_operation(True, True, True)
            is DiskOpClass.CYLINDER_SWITCH
        )
        assert (
            classify_operation(True, True, False)
            is DiskOpClass.CYLINDER_SWITCH
        )

    def test_local_track_switch(self):
        assert (
            classify_operation(True, False, True) is DiskOpClass.TRACK_SWITCH
        )

    def test_local_no_switch(self):
        assert classify_operation(True, False, False) is DiskOpClass.NO_SWITCH


class TestDiskStats:
    def test_record_accumulates(self):
        s = DiskStats()
        record(s, DiskOpClass.NO_SWITCH, 0.0, 3.0, 1.5)
        record(s, DiskOpClass.NON_LOCAL_SEEK, 8.0, 2.0, 1.5)
        assert s.operations == 2
        assert s.busy_ms == 16.0
        assert s.by_class[DiskOpClass.NO_SWITCH] == 1
        assert s.by_class[DiskOpClass.NON_LOCAL_SEEK] == 1

    def test_merge(self):
        a, b = DiskStats(), DiskStats()
        record(a, DiskOpClass.TRACK_SWITCH, 0.8, 1.0, 1.0)
        record(b, DiskOpClass.TRACK_SWITCH, 0.8, 2.0, 1.0)
        a.merge(b)
        assert a.operations == 2
        assert a.by_class[DiskOpClass.TRACK_SWITCH] == 2
        assert a.latency_ms == 3.0


class _ServiceLog:
    """Trace hook that keeps every service record the array produces."""

    def __init__(self):
        self.services = []

    def record(self, disk_id, now_ms, request, service):
        self.services.append((disk_id, request.access_id, service))


def test_server_counters_match_the_reference_replay():
    """The disk server's inline classify-and-count equals the reference
    functions replayed over the same service records, exactly."""
    engine = SimulationEngine()
    controller = ArrayController(engine, make_layout("pddl", 13, 4))
    log = controller.attach_trace(_ServiceLog())
    rng = random.Random(7)
    for access_id in range(60):
        controller.submit(
            LogicalAccess(
                access_id,
                rng.randrange(200_000),
                rng.choice((1, 6, 12, 42)),
                is_write=rng.random() < 0.4,
            ),
            lambda access, response_ms: None,
        )
    engine.run()

    expected = replay(log.services)
    actual = controller.disk_stats()
    assert sorted(expected) == list(range(13))
    for disk, stats in enumerate(actual):
        reference = expected[disk]
        assert stats.operations == reference.operations
        assert stats.by_class == reference.by_class
        assert stats.seek_ms == reference.seek_ms
        assert stats.latency_ms == reference.latency_ms
        assert stats.transfer_ms == reference.transfer_ms
        assert stats.busy_ms == reference.busy_ms
    classes = {
        cls for stats in actual for cls, n in stats.by_class.items() if n
    }
    assert classes == set(DiskOpClass)  # every class is exercised
