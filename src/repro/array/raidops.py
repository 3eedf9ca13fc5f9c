"""Pure RAID operation planning.

Translates a logical access into phases of per-unit physical operations,
with no reference to time or devices — the simulator executes plans, and the
analytic tools (disk working sets of Figure 3, operation counts of Figures
4/7/15/16) evaluate the *same* plans, which is what keeps the two views of
each experiment consistent.

Write handling follows §4.2:

- *full-stripe write*: every data unit of the stripe is written — no
  pre-reads, write data + new parity;
- *small write* (read-modify-write): read old data of the written units and
  the old parity, then write new data and parity; chosen when at most half
  of the stripe's data units change;
- *large write* (reconstruct write): read the untouched data units, then
  write new data and parity; chosen above half.

Degraded mode (one disk failed, lost data not yet in spare space):

- reads of lost units fan out to the stripe's surviving units;
- a write whose stripe lost a *written* data unit is forced large (paper:
  "every logical write must be implemented as a large write"); a stripe
  that lost an *untouched* data unit is forced small; a stripe that lost
  its parity writes data only.

Reconstruction mode (rebuild in progress): the background sweep has copied
*some* lost units back to redundancy.  A ``rebuilt(offset)`` predicate —
the reconstructor's rebuild frontier — decides per cell: units already
swept are read from (written to) their rebuilt copies exactly as after
the rebuild completes, un-rebuilt units are handled as in degraded mode
(on-the-fly reconstruction, forced write variants).  For layouts with
distributed sparing the rebuilt copy lives in the same-row spare cell;
for layouts without sparing it lives at the original address on a
*replacement* spindle.

Post-reconstruction mode (PDDL's distributed sparing): lost units have been
rebuilt into the same-row spare units, so accesses are simply redirected.

Writes are planned on each stripe's cached in-period cells
(:meth:`~repro.layouts.base.Layout.stripe_units_and_shift`): layouts are
periodic, so a global stripe's members sit on the disks of its in-period
stripe at offsets shifted by ``cycle * period``, and relocation keeps a
cell in its own cycle.  The failed-disk member, the rebuild-frontier
test and the degraded variants are decided on in-period cells; the shift
is added only as each :class:`UnitOp` is built, so a write plan
allocates nothing but the ops it returns.
"""

from __future__ import annotations

import enum
from typing import Callable, List, NamedTuple, Optional, Set, Tuple

from repro.errors import ConfigurationError, MappingError
from repro.layouts.address import PhysicalAddress, StripeUnits
from repro.layouts.base import Layout


class ArrayMode(enum.Enum):
    """Operating condition of the array (paper's ff / f1 / post-recon)."""

    FAULT_FREE = "fault-free"
    DEGRADED = "degraded"                      # f1, rebuild not yet started
    RECONSTRUCTION = "reconstruction"          # rebuild sweep in progress
    POST_RECONSTRUCTION = "post-reconstruction"  # spare space holds rebuilt data
    DATA_LOSS = "data-loss"                    # terminal: a unit has no copy left


#: ``rebuilt(offset) -> bool``: has the failed disk's cell at ``offset``
#: already been rebuilt into its spare cell?  (The reconstruction-mode
#: rebuild frontier.)
RebuiltPredicate = Callable[[int], bool]


class UnitOp(NamedTuple):
    """One stripe-unit-sized physical operation."""

    disk: int
    offset: int
    is_write: bool


class AccessPlan(NamedTuple):
    """Phased operation graph; phase i+1 starts when phase i completes."""

    phases: List[List[UnitOp]]

    def all_ops(self) -> List[UnitOp]:
        return [op for phase in self.phases for op in phase]

    def disks_touched(self) -> Set[int]:
        """The paper's *disk working set* of the access."""
        return {op.disk for op in self.all_ops()}

    def operation_count(self) -> int:
        return sum(len(phase) for phase in self.phases)


def plan_access(
    layout: Layout,
    first_unit: int,
    unit_count: int,
    is_write: bool,
    mode: ArrayMode = ArrayMode.FAULT_FREE,
    failed_disk: Optional[int] = None,
    rebuilt: Optional[RebuiltPredicate] = None,
) -> AccessPlan:
    """Plan a logical access of ``unit_count`` contiguous data units.

    ``failed_disk`` is required (and only allowed) outside fault-free mode;
    ``rebuilt`` is the reconstruction-mode rebuild frontier and is required
    (and only allowed) in :attr:`ArrayMode.RECONSTRUCTION`.
    """
    if unit_count < 1:
        raise ConfigurationError(f"access needs >= 1 unit, got {unit_count}")
    if first_unit < 0:
        raise ConfigurationError(f"negative start unit {first_unit}")
    if mode is ArrayMode.DATA_LOSS:
        raise MappingError(
            "the array has lost data; accesses can no longer be planned"
        )
    if mode is ArrayMode.FAULT_FREE:
        if failed_disk is not None:
            raise ConfigurationError("fault-free mode has no failed disk")
    else:
        if failed_disk is None or not 0 <= failed_disk < layout.n:
            raise ConfigurationError(
                f"mode {mode.value} needs a valid failed disk"
            )
    if mode is ArrayMode.RECONSTRUCTION:
        if rebuilt is None:
            raise ConfigurationError(
                "reconstruction mode needs a rebuilt(offset) predicate"
            )
    elif rebuilt is not None:
        raise ConfigurationError(
            f"mode {mode.value} takes no rebuild frontier"
        )
    if mode is ArrayMode.POST_RECONSTRUCTION and not layout.has_sparing:
        raise MappingError(
            f"{layout.name} has no spare space for post-reconstruction mode"
        )

    if not is_write and mode is ArrayMode.FAULT_FREE:
        # Hot path (the vast majority of Figure 5/6 traffic): straight
        # translation.  The data-unit mapping is injective — distinct
        # units land in distinct cells — so dedupe has nothing to do.
        cells = layout.data_unit_cells(first_unit, unit_count)
        return AccessPlan(
            phases=[[UnitOp(d, o, False) for d, o in cells]]
        )
    planner = _plan_write if is_write else _plan_read
    return _dedupe(
        planner(layout, first_unit, unit_count, mode, failed_disk, rebuilt)
    )


# ----------------------------------------------------------------------
# Reads.
# ----------------------------------------------------------------------


def _plan_read(
    layout: Layout,
    first_unit: int,
    unit_count: int,
    mode: ArrayMode,
    failed_disk: Optional[int],
    rebuilt: Optional[RebuiltPredicate],
) -> List[List[UnitOp]]:
    ops: List[UnitOp] = []
    for unit in range(first_unit, first_unit + unit_count):
        addr = layout.data_unit_address(unit)
        if addr.disk != failed_disk:
            ops.append(UnitOp(addr.disk, addr.offset, False))
        elif mode is ArrayMode.POST_RECONSTRUCTION or (
            mode is ArrayMode.RECONSTRUCTION and rebuilt(addr.offset)
        ):
            # Lost unit already swept: read the rebuilt copy — the spare
            # cell (distributed sparing) or the replacement spindle.
            if layout.has_sparing:
                spare = layout.relocation_target(addr)
                ops.append(UnitOp(spare.disk, spare.offset, False))
            else:
                ops.append(UnitOp(addr.disk, addr.offset, False))
        else:  # DEGRADED or un-rebuilt: reconstruct on the fly from survivors
            stripe = layout.stripe_of_data_unit(unit)
            for other in layout.stripe_units(stripe).all_units():
                if other.disk != failed_disk:
                    ops.append(UnitOp(other.disk, other.offset, False))
    return [ops]


# ----------------------------------------------------------------------
# Writes.
# ----------------------------------------------------------------------


def _member_on(units: StripeUnits, disk: int) -> Optional[Tuple[int, int]]:
    """``(position, row)`` of the stripe member on ``disk``, or None.

    Positions count data members first, then check members (the
    :class:`~repro.layouts.address.UnitInfo` convention).  A stripe
    never places two members on one disk, and a member's disk is the
    same in every cycle, so the in-period cells decide for all cycles.
    """
    for position, (member_disk, row) in enumerate(units.data + units.check):
        if member_disk == disk:
            return position, row
    return None


def _plan_write(
    layout: Layout,
    first_unit: int,
    unit_count: int,
    mode: ArrayMode,
    failed_disk: Optional[int],
    rebuilt: Optional[RebuiltPredicate],
) -> List[List[UnitOp]]:
    """Phases of a write, planned on each stripe's in-period cells.

    A contiguous access writes data positions ``[lo, hi)`` of every
    stripe it touches.  Each stripe's cells come from the layout's
    cached in-period stripe; the stripe's offset shift is added only as
    each op is built.
    """
    dps = layout.data_per_stripe
    in_period = layout.stripe_units_and_shift
    # Behind the rebuild frontier a stripe with sparing behaves
    # post-reconstruction (spare redirect); without sparing the
    # replacement spindle serves the original addresses.
    redirect = mode is ArrayMode.POST_RECONSTRUCTION or (
        mode is ArrayMode.RECONSTRUCTION and layout.has_sparing
    )
    end = first_unit + unit_count
    reads: List[UnitOp] = []
    writes: List[UnitOp] = []
    for stripe in range(first_unit // dps, (end - 1) // dps + 1):
        units, shift = in_period(stripe)
        data, check = units.data, units.check
        start = stripe * dps
        lo = first_unit - start if first_unit > start else 0
        hi = end - start if end - start < dps else dps
        # Small (read-modify-write) at most half the data units, large
        # (reconstruct) write above; a full-stripe write is a large
        # write with nothing left to read.
        small = hi - lo <= dps // 2
        skip = None
        lost = None if failed_disk is None else _member_on(units, failed_disk)
        if lost is not None:
            position, row = lost
            if mode is ArrayMode.DEGRADED or (
                mode is ArrayMode.RECONSTRUCTION and not rebuilt(row + shift)
            ):
                # §4.2's degraded variants.
                skip = failed_disk
                if position >= dps:
                    # Parity lost: write the surviving data, nothing to
                    # maintain.
                    writes += [
                        UnitOp(d, o + shift, True) for d, o in data[lo:hi]
                    ]
                    continue
                # A lost written unit forces a large write (every
                # untouched unit survives); a lost untouched unit forces
                # a small one (its old value is unreadable, but the
                # parity delta needs only written units and parity).
                small = not lo <= position < hi
                if small and hi - lo == dps:  # unreachable: all are written
                    raise MappingError("inconsistent degraded write planning")
            elif redirect:
                # Rebuilt into the same-row spare cell; stored relative
                # to the stripe's cycle like every other in-period cell.
                target = layout.relocation_target(
                    PhysicalAddress(failed_disk, row + shift)
                )
                cell = (target.disk, target.offset - shift)
                if position < dps:
                    data = data.copy()
                    data[position] = cell
                else:
                    check = check.copy()
                    check[position - dps] = cell
        written = data[lo:hi]
        writes += [
            UnitOp(d, o + shift, True) for d, o in written if d != skip
        ]
        if small:
            reads += [UnitOp(d, o + shift, False) for d, o in written]
            reads += [UnitOp(d, o + shift, False) for d, o in check]
        else:
            reads += [
                UnitOp(d, o + shift, False) for d, o in data[:lo] + data[hi:]
            ]
        writes += [UnitOp(d, o + shift, True) for d, o in check]
    return [reads, writes] if reads else [writes]


def _dedupe(phases: List[List[UnitOp]]) -> AccessPlan:
    """The plan of ``phases`` with duplicate operations dropped within
    each phase, preserving order."""
    return AccessPlan(
        [
            list(dict.fromkeys(phase)) if len(phase) > 1 else phase
            for phase in phases
        ]
    )
