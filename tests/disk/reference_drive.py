"""Reference model of :meth:`repro.disk.drive.DiskDrive.service`.

The per-request geometry walk the table-backed service path replaced:
everything (start address, seek, rotation target, track-crossing
transfer, track-buffer hit test) is recomputed from the drive's
geometry and seek model on every call, with no precomputed table.  It
reads and updates the same drive state as ``DiskDrive.service`` (arm
position, buffered track, buffer-hit count, fail-slow and transient
models), so a test can drive two identical drives — one through each
path — and compare them record for record.
"""

from repro.disk.drive import DiskDrive, DiskRequest, ServiceRecord
from repro.errors import ConfigurationError


def service_reference(
    drive: DiskDrive, request: DiskRequest, now_ms: float
) -> ServiceRecord:
    """Serve ``request`` on ``drive`` at ``now_ms`` by the scalar walk."""
    sectors = request.sectors
    if sectors < 1:
        raise ConfigurationError(f"empty transfer: {request}")
    geometry = drive.geometry
    cylinder, head, sector = geometry.lba_to_chs(request.lba)
    cylinder_changed = cylinder != drive.cylinder
    head_changed = head != drive.head

    # Track-buffer hit: a read entirely within the cached track is served
    # from the buffer at electronic speed — no arm or platter involvement,
    # arm position unchanged.
    if drive.track_buffer and not request.is_write:
        last = geometry.lba_to_chs(request.lba + sectors - 1)
        if (
            drive._buffered_track == (cylinder, head)
            and (last.cylinder, last.head) == drive._buffered_track
        ):
            drive.buffer_hits += 1
            return ServiceRecord(
                seek_ms=0.0,
                latency_ms=0.0,
                transfer_ms=drive.buffer_hit_ms,
                cylinder_changed=False,
                head_changed=False,
            )

    if cylinder_changed:
        seek_ms = drive.seek_model.seek_time(abs(cylinder - drive.cylinder))
    elif head_changed:
        seek_ms = drive.head_switch_ms
    else:
        seek_ms = 0.0

    rev = drive.revolution_ms
    spt_of = geometry.sectors_per_track
    spt = spt_of(cylinder)
    # Rotational wait for `sector` from the end of the seek.
    latency_ms = ((sector / spt) * rev - (now_ms + seek_ms) % rev) % rev

    transfer_ms = 0.0
    remaining = sectors
    heads = geometry.heads
    while remaining > 0:
        # spt only changes when the transfer crosses a cylinder boundary
        # (updated below) — head switches stay in-zone.
        chunk = min(spt - sector, remaining)
        transfer_ms += chunk * rev / spt
        remaining -= chunk
        sector += chunk
        if remaining > 0:
            sector = 0
            head += 1
            if head == heads:
                head = 0
                cylinder += 1
                transfer_ms += drive.cylinder_switch_ms
                spt = spt_of(cylinder)
            else:
                transfer_ms += drive.head_switch_ms

    # Fail-slow inflation covers mechanical service only — a track buffer
    # hit is electronic and returned above.
    if drive.fail_slow is not None:
        m = drive.fail_slow.scale(now_ms)
        if m != 1.0:
            seek_ms *= m
            latency_ms *= m
            transfer_ms *= m
    drive.cylinder = cylinder
    drive.head = head
    # Transient failure draw covers mechanical transfers only.
    failed = (
        drive.transient_errors.draw()
        if drive.transient_errors is not None
        else False
    )
    if drive.track_buffer:
        # Reading fills the buffer with the final track touched; writes
        # invalidate it, and a failed read caches nothing trustworthy.
        if request.is_write or failed:
            drive._buffered_track = None
        else:
            drive._buffered_track = (cylinder, head)
    return ServiceRecord(
        seek_ms=seek_ms,
        latency_ms=latency_ms,
        transfer_ms=transfer_ms,
        cylinder_changed=cylinder_changed,
        head_changed=head_changed,
        failed=failed,
    )
