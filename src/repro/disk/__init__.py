"""Mechanical disk model.

Implements the drive side of the paper's Table 2: zoned CHS geometry, a
calibrated seek-time curve, rotational position tracking, per-sector zoned
transfer rates, and head scheduling (SSTF on a bounded queue).  The HP 2247
instance used by every experiment lives in :mod:`~repro.disk.hp2247`.
"""

from repro.disk.drive import DiskDrive, DiskRequest, ServiceRecord
from repro.disk.geometry import DiskGeometry, Zone
from repro.disk.hp2247 import HP2247_GEOMETRY, HP2247_SEEK, make_hp2247
from repro.disk.scheduler import (
    FifoScheduler,
    LookScheduler,
    Scheduler,
    SstfScheduler,
    make_scheduler,
)
from repro.disk.seek import SeekModel
from repro.disk.stats import DiskOpClass, DiskStats

__all__ = [
    "DiskDrive",
    "DiskGeometry",
    "DiskOpClass",
    "DiskRequest",
    "DiskStats",
    "FifoScheduler",
    "HP2247_GEOMETRY",
    "HP2247_SEEK",
    "LookScheduler",
    "Scheduler",
    "SeekModel",
    "ServiceRecord",
    "SstfScheduler",
    "Zone",
    "make_hp2247",
    "make_scheduler",
]
