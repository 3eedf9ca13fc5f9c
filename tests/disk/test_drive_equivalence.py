"""Property test: ``DiskDrive.service`` equals the reference drive model.

The production service path reads its state-independent arithmetic
(start and end track, rotation target angle, transfer walk) from the
shared :class:`~repro.disk.drive.ServiceTables`; the reference model in
``tests/disk/reference_drive.py`` recomputes everything from the
geometry on every call.  Two identical drives, one served through each
path, must return equal records and end in the same state (arm,
buffered track, buffer hits, transient and fail-slow counters) after
every request.  Drawn: request streams over LBAs that cross tracks,
cylinders and zones, reads and writes, the track buffer on and off, a
fail-slow model, and a nonzero transient error rate.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.drive import DiskDrive, DiskRequest, TransientErrorModel
from repro.disk.geometry import DiskGeometry, Zone
from repro.disk.hp2247 import make_hp2247
from repro.disk.seek import SeekModel
from repro.faults.failslow import FailSlowModel

from tests.disk.reference_drive import service_reference

#: Three zones of short tracks: small requests already cross tracks,
#: cylinders and zone boundaries.
SMALL_GEOMETRY = DiskGeometry(
    heads=3, zones=[Zone(0, 4, 12), Zone(4, 3, 9), Zone(7, 3, 7)]
)
SMALL_SEEK = SeekModel(10, 2.0, 0.5, 0.1)


def _small_drive(track_buffer: bool) -> DiskDrive:
    return DiskDrive(
        SMALL_GEOMETRY, SMALL_SEEK, rpm=6000, head_switch_ms=0.8,
        cylinder_switch_ms=2.0, track_buffer=track_buffer,
        buffer_hit_ms=0.3,
    )


_DRIVES = {
    "small": (_small_drive, 40),
    "hp2247": (make_hp2247, 400),
}


@st.composite
def _streams(draw):
    name = draw(st.sampled_from(sorted(_DRIVES)))
    factory, max_sectors = _DRIVES[name]
    total = factory(False).geometry.total_sectors
    requests = []
    lba = end = draw(st.integers(0, total - 1))
    for _ in range(draw(st.integers(1, 25))):
        # Requests jump anywhere, start near the previous one, or
        # re-read the tail of the previous one (a buffered-track hit
        # when it stays on the last track read).
        where = draw(st.sampled_from(["jump", "near", "tail"]))
        if where == "jump":
            lba = draw(st.integers(0, total - 1))
        elif where == "near":
            lba = draw(st.integers(max(lba - 2 * max_sectors, 0),
                                   min(lba + 2 * max_sectors, total - 1)))
        else:
            lba = max(end - draw(st.integers(1, 8)), 0)
        limit = 6 if where == "tail" else max_sectors
        sectors = draw(st.integers(1, min(limit, total - lba)))
        end = lba + sectors
        is_write = draw(st.integers(0, 3)) == 0
        gap_ms = draw(st.floats(0.0, 40.0, allow_nan=False))
        requests.append((lba, sectors, is_write, gap_ms))
    track_buffer = draw(st.booleans())
    fail_slow = draw(
        st.none()
        | st.tuples(
            st.floats(1.0, 6.0, allow_nan=False),
            st.floats(0.0, 200.0, allow_nan=False),
            st.sampled_from(["constant", "intermittent"]),
        )
    )
    transient_rate = draw(st.sampled_from([0.0, 0.3]))
    return name, requests, track_buffer, fail_slow, transient_rate


def _armed(name, track_buffer, fail_slow, transient_rate):
    drive = _DRIVES[name][0](track_buffer)
    if fail_slow is not None:
        multiplier, onset_ms, profile = fail_slow
        drive.fail_slow = FailSlowModel(
            multiplier, onset_ms=onset_ms, profile=profile,
            period_ms=30.0, duty=0.5,
        )
    if transient_rate:
        drive.transient_errors = TransientErrorModel(transient_rate, 7)
    return drive


def _state(drive: DiskDrive):
    return (
        drive.cylinder,
        drive.head,
        drive._buffered_track,
        drive.buffer_hits,
        None
        if drive.transient_errors is None
        else (drive.transient_errors.draws, drive.transient_errors.injected),
        None if drive.fail_slow is None else drive.fail_slow.applications,
    )


@settings(max_examples=300, deadline=None)
@given(_streams())
def test_service_matches_reference_model(stream):
    name, requests, track_buffer, fail_slow, transient_rate = stream
    drive = _armed(name, track_buffer, fail_slow, transient_rate)
    reference = _armed(name, track_buffer, fail_slow, transient_rate)
    now = 0.0
    for i, (lba, sectors, is_write, gap_ms) in enumerate(requests):
        request = DiskRequest(lba, sectors, is_write, access_id=i)
        got = drive.service(request, now)
        want = service_reference(reference, request, now)
        assert got == want, (i, request, now)
        assert _state(drive) == _state(reference), (i, request, now)
        now += got.total_ms + gap_ms


@pytest.mark.parametrize("name", sorted(_DRIVES))
def test_seek_table_equals_seek_curve(name):
    drive = _DRIVES[name][0](False)
    seek_model = drive.seek_model
    table = drive.tables.seek_by_distance
    assert len(table) == seek_model.cylinders
    for d in range(seek_model.cylinders):
        assert table[d] == seek_model.seek_time(d), d


@pytest.mark.parametrize("name", sorted(_DRIVES))
def test_angle_tables_equal_sector_angles(name):
    drive = _DRIVES[name][0](False)
    rev = drive.revolution_ms
    for zone in drive.geometry.zones:
        spt = zone.sectors_per_track
        assert drive.tables.angle_by_spt[spt] == [
            (sector / spt) * rev for sector in range(spt)
        ], zone

