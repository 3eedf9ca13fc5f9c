"""Reference model of the per-disk counters ``DiskServer._service``
maintains inline.

Each physical operation is classified by locality and head movement
(Figures 4/7/15/16) and added to its disk's :class:`DiskStats`.  The
server does both inline on its hot path; these are the plain functions
it replaced, so a test can replay a run's service records through them
and require the same counters.
"""

from repro.disk.stats import DiskOpClass, DiskStats


def classify_operation(
    local: bool, cylinder_changed: bool, head_changed: bool
) -> DiskOpClass:
    """Classify one physical operation."""
    if not local:
        return DiskOpClass.NON_LOCAL_SEEK
    if cylinder_changed:
        return DiskOpClass.CYLINDER_SWITCH
    if head_changed:
        return DiskOpClass.TRACK_SWITCH
    return DiskOpClass.NO_SWITCH


def record(
    stats: DiskStats,
    op_class: DiskOpClass,
    seek_ms: float,
    latency_ms: float,
    transfer_ms: float,
) -> None:
    """Count one operation of ``op_class`` into ``stats``."""
    stats.operations += 1
    stats.by_class[op_class] += 1
    stats.seek_ms += seek_ms
    stats.latency_ms += latency_ms
    stats.transfer_ms += transfer_ms
    stats.busy_ms += seek_ms + latency_ms + transfer_ms


def replay(services) -> dict:
    """Per-disk counters of ``(disk, access_id, service_record)`` tuples,
    in service order."""
    by_disk: dict = {}
    for disk, access_id, service in services:
        stats = by_disk.setdefault(disk, DiskStats())
        seek_ms, latency_ms, transfer_ms, cyl_changed, head_changed, _ = (
            service
        )
        local = stats.last_access_id == access_id
        stats.last_access_id = access_id
        record(
            stats,
            classify_operation(local, cyl_changed, head_changed),
            seek_ms,
            latency_ms,
            transfer_ms,
        )
    return by_disk
