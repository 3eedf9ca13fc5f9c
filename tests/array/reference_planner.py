"""Reference model of RAID access planning for the planner equivalence test.

This is the stripe-materialising planner that
:mod:`repro.array.raidops` used before it switched to planning on the
cached in-period stripe: it groups units by stripe through a dict,
fetches every stripe through ``layout.stripe_units`` (shifted addresses
included), redirects cells through a closure and dedupes each phase
through a set.  Its read planner is a frozen copy of the production
one.  ``tests/array/test_planner_equivalence.py`` requires
``plan_access`` to match it phase for phase and op for op.

:func:`reference_phase_requests` is the controller's request coalescer
as it was before it became one single-direction function for the fused
read and the planned path: it keys groups by ``(disk, is_write)`` and
takes each op's own direction.  The same test requires
:func:`repro.array.controller.coalesce_phase` to match it request for
request, in order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.array.raidops import AccessPlan, ArrayMode, RebuiltPredicate, UnitOp
from repro.disk.drive import DiskRequest
from repro.errors import MappingError
from repro.layouts.address import PhysicalAddress


def reference_plan(
    layout,
    first_unit: int,
    unit_count: int,
    is_write: bool,
    mode: ArrayMode = ArrayMode.FAULT_FREE,
    failed_disk: Optional[int] = None,
    rebuilt: Optional[RebuiltPredicate] = None,
) -> AccessPlan:
    """``plan_access`` without its argument checks, on the reference
    planners."""
    units = range(first_unit, first_unit + unit_count)
    if not is_write and mode is ArrayMode.FAULT_FREE:
        return AccessPlan(
            phases=[
                [
                    UnitOp(*layout.data_unit_address(u), False)
                    for u in units
                ]
            ]
        )
    if is_write:
        plan = _plan_write(layout, units, mode, failed_disk, rebuilt)
    else:
        plan = _plan_read(layout, units, mode, failed_disk, rebuilt)
    return _dedupe(plan)


def _plan_read(
    layout,
    units: range,
    mode: ArrayMode,
    failed_disk: Optional[int],
    rebuilt: Optional[RebuiltPredicate],
) -> AccessPlan:
    ops: List[UnitOp] = []
    for unit in units:
        addr = layout.data_unit_address(unit)
        if addr.disk != failed_disk:
            ops.append(UnitOp(addr.disk, addr.offset, False))
        elif mode is ArrayMode.POST_RECONSTRUCTION or (
            mode is ArrayMode.RECONSTRUCTION and rebuilt(addr.offset)
        ):
            if layout.has_sparing:
                spare = layout.relocation_target(addr)
                ops.append(UnitOp(spare.disk, spare.offset, False))
            else:
                ops.append(UnitOp(addr.disk, addr.offset, False))
        else:
            stripe = layout.stripe_of_data_unit(unit)
            for other in layout.stripe_units(stripe).all_units():
                if other.disk != failed_disk:
                    ops.append(UnitOp(other.disk, other.offset, False))
    return AccessPlan(phases=[ops])


def _stripe_groups(
    layout, units: range
) -> Dict[int, List[Tuple[int, int]]]:
    """Group accessed units by stripe: stripe -> [(position, unit), ...]."""
    groups: Dict[int, List[Tuple[int, int]]] = {}
    for unit in units:
        stripe = layout.stripe_of_data_unit(unit)
        position = unit % layout.data_per_stripe
        groups.setdefault(stripe, []).append((position, unit))
    return groups


def _redirect(
    layout, addr: PhysicalAddress, mode: ArrayMode, failed: Optional[int]
) -> PhysicalAddress:
    if mode is ArrayMode.POST_RECONSTRUCTION and addr.disk == failed:
        return layout.relocation_target(addr)
    return addr


def _plan_write(
    layout,
    units: range,
    mode: ArrayMode,
    failed_disk: Optional[int],
    rebuilt: Optional[RebuiltPredicate],
) -> AccessPlan:
    pre_reads: List[UnitOp] = []
    writes: List[UnitOp] = []
    for stripe, touched in _stripe_groups(layout, units).items():
        stripe_units = layout.stripe_units(stripe)
        written_positions = {position for position, _ in touched}
        stripe_mode = mode
        if mode is ArrayMode.RECONSTRUCTION:
            lost = next(
                (
                    a
                    for a in stripe_units.all_units()
                    if a.disk == failed_disk
                ),
                None,
            )
            if lost is None or rebuilt(lost.offset):
                stripe_mode = (
                    ArrayMode.POST_RECONSTRUCTION
                    if layout.has_sparing
                    else ArrayMode.FAULT_FREE
                )
            else:
                stripe_mode = ArrayMode.DEGRADED
        if stripe_mode is ArrayMode.DEGRADED:
            reads, wr = _plan_stripe_write_degraded(
                layout, stripe_units, written_positions, failed_disk
            )
        else:
            reads, wr = _plan_stripe_write_clean(
                layout, stripe_units, written_positions, stripe_mode,
                failed_disk,
            )
        pre_reads.extend(reads)
        writes.extend(wr)
    if pre_reads:
        return AccessPlan(phases=[pre_reads, writes])
    return AccessPlan(phases=[writes])


def _plan_stripe_write_clean(
    layout,
    stripe_units,
    written: Set[int],
    mode: ArrayMode,
    failed: Optional[int],
) -> Tuple[List[UnitOp], List[UnitOp]]:
    """Fault-free and post-reconstruction stripe write planning."""
    dps = layout.data_per_stripe
    m = len(written)

    def addr(a: PhysicalAddress) -> PhysicalAddress:
        return _redirect(layout, a, mode, failed)

    check = [addr(a) for a in stripe_units.check]
    reads: List[UnitOp] = []
    writes: List[UnitOp] = [
        UnitOp(*addr(stripe_units.data[p]), True) for p in sorted(written)
    ]
    if m == dps:
        writes.extend(UnitOp(*a, True) for a in check)
    elif m <= dps // 2:
        reads.extend(
            UnitOp(*addr(stripe_units.data[p]), False) for p in sorted(written)
        )
        reads.extend(UnitOp(*a, False) for a in check)
        writes.extend(UnitOp(*a, True) for a in check)
    else:
        reads.extend(
            UnitOp(*addr(stripe_units.data[p]), False)
            for p in range(dps)
            if p not in written
        )
        writes.extend(UnitOp(*a, True) for a in check)
    return reads, writes


def _plan_stripe_write_degraded(
    layout,
    stripe_units,
    written: Set[int],
    failed: int,
) -> Tuple[List[UnitOp], List[UnitOp]]:
    """Degraded-mode stripe write planning (§4.2's forced large writes)."""
    dps = layout.data_per_stripe
    m = len(written)
    check_failed = any(a.disk == failed for a in stripe_units.check)
    failed_data_position = next(
        (
            p
            for p in range(dps)
            if stripe_units.data[p].disk == failed
        ),
        None,
    )

    reads: List[UnitOp] = []
    writes: List[UnitOp] = [
        UnitOp(*stripe_units.data[p], True)
        for p in sorted(written)
        if stripe_units.data[p].disk != failed
    ]

    if check_failed:
        return reads, writes

    check_writes = [UnitOp(*a, True) for a in stripe_units.check]
    if failed_data_position is None:
        return _plan_stripe_write_clean(
            layout, stripe_units, written, ArrayMode.FAULT_FREE, None
        )
    if failed_data_position in written:
        reads.extend(
            UnitOp(*stripe_units.data[p], False)
            for p in range(dps)
            if p not in written
        )
        writes.extend(check_writes)
    else:
        reads.extend(
            UnitOp(*stripe_units.data[p], False) for p in sorted(written)
        )
        reads.extend(UnitOp(*a, False) for a in stripe_units.check)
        writes.extend(check_writes)
        if m == dps:
            raise MappingError("inconsistent degraded write planning")
    return reads, writes


def _dedupe(plan: AccessPlan) -> AccessPlan:
    """Drop duplicate operations within each phase, preserving order."""
    phases: List[List[UnitOp]] = []
    for phase in plan.phases:
        if len(phase) < 2:
            phases.append(phase)
            continue
        seen: Set[UnitOp] = set()
        unique: List[UnitOp] = []
        for op in phase:
            if op not in seen:
                seen.add(op)
                unique.append(op)
        phases.append(unique)
    return AccessPlan(phases=phases)


def reference_phase_requests(
    phase, unit_sectors: int, access_id: int, tag: object, coalesce: bool
) -> List[Tuple[int, DiskRequest]]:
    """Per-disk requests for ``phase``, merging physically contiguous
    stripe-unit operations of the same type when ``coalesce`` is set."""
    if not coalesce:
        return [
            (
                op[0],
                DiskRequest(
                    op[1] * unit_sectors, unit_sectors, op[2], access_id, tag
                ),
            )
            for op in phase
        ]
    seen = set()
    requests = []
    distinct = True
    for disk, offset, is_write in phase:
        pair = (disk, is_write)
        if pair in seen:
            distinct = False
            break
        seen.add(pair)
        requests.append(
            (
                disk,
                DiskRequest(
                    offset * unit_sectors,
                    unit_sectors,
                    is_write,
                    access_id,
                    tag,
                ),
            )
        )
    if distinct:
        return requests
    by_disk: Dict[tuple, List[int]] = {}
    for disk, offset, is_write in phase:
        by_disk.setdefault((disk, is_write), []).append(offset)
    requests = []
    for (disk, is_write), offsets in by_disk.items():
        offsets.sort()
        run_start = offsets[0]
        previous = offsets[0]
        for offset in offsets[1:] + [None]:
            if offset is not None and offset == previous + 1:
                previous = offset
                continue
            requests.append(
                (
                    disk,
                    DiskRequest(
                        run_start * unit_sectors,
                        (previous - run_start + 1) * unit_sectors,
                        is_write,
                        access_id,
                        tag,
                    ),
                )
            )
            if offset is not None:
                run_start = offset
                previous = offset
    return requests
