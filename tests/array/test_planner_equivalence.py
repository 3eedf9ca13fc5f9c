"""Property test: ``plan_access`` equals the reference planner exactly.

The production write planner works on each stripe's cached in-period
cells plus an offset shift; the reference model in
``tests/array/reference_planner.py`` materialises every global stripe.
The plans must match phase for phase and op for op, in order — the
coalescer groups ops by first occurrence, so order reaches the
simulated records.  Drawn: every registry layout, a ``RelocatedView``
over each sparing layout, every planning mode (reconstruction with
random rebuild frontiers), reads and writes over unit ranges that cross
stripe and period boundaries.

The same drawn plans pin the controller's request coalescer: every
phase is single-direction (all reads or all writes), and
``coalesce_phase`` returns the same requests, in the same order, as the
``(disk, is_write)``-keyed reference coalescer, with merging on and
off — for the planned phase and, on fault-free reads, for the fused
read path's flat cell list.

The fused read builds its requests from ``data_unit_runs``, the cached
runs of one in-period read shape plus a cycle shift.  Those requests
must equal the reference coalescer applied to ``data_unit_cells``, for
every registry layout and ``RelocatedView``, with merging on and off,
for reads that wrap a period cycle and for the last addressable units,
whether the shape is cached yet or not.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.array.controller import coalesce_phase
from repro.array.raidops import ArrayMode, UnitOp, plan_access
from repro.disk.drive import DiskRequest
from repro.disk.hp2247 import make_hp2247
from repro.layouts.address import PhysicalAddress, StripeUnits
from repro.layouts.base import Layout
from repro.layouts.registry import available_layouts, make_layout
from repro.layouts.relocated import RelocatedView

from tests.array.reference_planner import (
    reference_phase_requests,
    reference_plan,
)

#: Canonical (n, k): the paper's 13-disk array, stripe width 4 for the
#: declustered schemes and the whole array for RAID-5.
_CONFIGS = {"raid5": (13, 13)}
_DEFAULT_CONFIG = (13, 4)
_SPARING = ("pddl", "pseudo-random")
#: Periods an access may start in.
_CYCLES = 3


@lru_cache(maxsize=None)
def _layout(name: str):
    n, k = _CONFIGS.get(name, _DEFAULT_CONFIG)
    return make_layout(name, n, k)


@lru_cache(maxsize=None)
def _view(name: str, relocated_disk: int):
    return RelocatedView(_layout(name), relocated_disk)


_LAYOUT_KEYS = [(name, None) for name in available_layouts()] + [
    (name, disk) for name in _SPARING for disk in (0, 5, 12)
]


def _resolve(key):
    name, relocated = key
    return _layout(name) if relocated is None else _view(name, relocated)


@st.composite
def _accesses(draw):
    key = draw(st.sampled_from(_LAYOUT_KEYS))
    layout = _resolve(key)
    per_period = layout.data_units_per_period
    dps = layout.data_per_stripe
    # Half the starts sit within two stripes of a period boundary.
    boundary = draw(st.integers(1, _CYCLES)) * per_period
    first_unit = draw(
        st.one_of(
            st.integers(0, _CYCLES * per_period),
            st.integers(max(boundary - 2 * dps, 0), boundary + dps),
        )
    )
    unit_count = draw(st.integers(1, 3 * dps + 2))
    is_write = draw(st.booleans())
    modes = [ArrayMode.FAULT_FREE, ArrayMode.DEGRADED,
             ArrayMode.RECONSTRUCTION]
    if layout.has_sparing:
        modes.append(ArrayMode.POST_RECONSTRUCTION)
    mode = draw(st.sampled_from(modes))
    failed_disk = rebuilt = None
    if mode is not ArrayMode.FAULT_FREE:
        disks = [d for d in range(layout.n) if d != key[1]]
        failed_disk = draw(st.sampled_from(disks))
    if mode is ArrayMode.RECONSTRUCTION:
        fraction = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
        rng = random.Random(draw(st.integers(0, 2**32)))
        horizon = (_CYCLES + 2) * layout.period
        frontier = frozenset(
            o for o in range(horizon) if rng.random() < fraction
        )
        rebuilt = frontier.__contains__
    return layout, (first_unit, unit_count, is_write, mode, failed_disk,
                    rebuilt)


@settings(
    max_examples=600,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_accesses())
def test_plan_access_matches_reference_model(case):
    layout, args = case
    got = plan_access(layout, *args)
    want = reference_plan(layout, *args)
    assert got.phases == want.phases, (layout.name, args)


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_accesses(), st.booleans(), st.sampled_from([1, 16]))
def test_coalescer_matches_reference_coalescer(case, merge, unit_sectors):
    layout, args = case
    plan = plan_access(layout, *args)
    for tag, phase in enumerate(plan.phases):
        directions = {op.is_write for op in phase}
        assert len(directions) <= 1, (layout.name, args, tag)
        if not phase:
            continue
        got = coalesce_phase(
            phase, phase[0].is_write, unit_sectors, 9, tag, merge
        )
        want = reference_phase_requests(phase, unit_sectors, 9, tag, merge)
        assert got == want, (layout.name, args, tag)
    first_unit, unit_count, is_write, mode = args[:4]
    if not is_write and mode is ArrayMode.FAULT_FREE:
        cells = layout.data_unit_cells(first_unit, unit_count)
        fused = coalesce_phase(cells, False, unit_sectors, 9, 0, merge)
        assert fused == reference_phase_requests(
            plan.phases[0], unit_sectors, 9, 0, merge
        ), (layout.name, args)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 12)),
        max_size=14,
        unique=True,
    ),
    st.booleans(),
    st.booleans(),
)
def test_coalescer_matches_reference_on_arbitrary_ops(cells, is_write, merge):
    """Distinct cells in any order on a few disks, with gaps and runs —
    not only the shapes the planner emits."""
    phase = [UnitOp(disk, offset, is_write) for disk, offset in cells]
    assert coalesce_phase(phase, is_write, 16, 3, 1, merge) == (
        reference_phase_requests(phase, 16, 3, 1, merge)
    )


#: Sectors per 8 KB stripe unit, as the paper's array uses.
_UNIT_SECTORS = 16


@lru_cache(maxsize=None)
def _units_per_disk() -> int:
    return make_hp2247().geometry.total_sectors // _UNIT_SECTORS


def _addressable_units(layout) -> int:
    """The data units an HP 2247 array addresses (as the controller
    computes them)."""
    return _units_per_disk() // layout.period * layout.data_units_per_period


class _ReversedRows(Layout):
    """RAID-5 on 4 disks with stripe ``s`` of the pattern on row ``3 -
    s``.  Consecutive data units on one disk sit on ever lower rows, so a
    read's per-disk rows arrive unsorted; every registry layout lays
    them out ascending, where the coalescer's sort is a no-op."""

    name = "reversed-rows"
    period = 4
    stripes_per_period = 4

    def __init__(self):
        super().__init__(n=4, k=4)

    def stripe_units_in_period(self, stripe_index: int) -> StripeUnits:
        row = self.period - 1 - stripe_index
        check = stripe_index % self.n
        return StripeUnits(
            data=[
                PhysicalAddress(d, row) for d in range(self.n) if d != check
            ],
            check=[PhysicalAddress(check, row)],
        )


_REVERSED = ("reversed-rows", None)


@lru_cache(maxsize=None)
def _read_layout(key):
    return _ReversedRows() if key == _REVERSED else _resolve(key)


def _requests_from_runs(layout, first_unit, count, merge):
    runs, shift = layout.data_unit_runs(first_unit, count, merge)
    return [
        (
            disk,
            DiskRequest(
                (row + shift) * _UNIT_SECTORS,
                rows * _UNIT_SECTORS,
                False,
                9,
                0,
            ),
        )
        for disk, row, rows in runs
    ]


def _reference_read_requests(layout, first_unit, count, merge):
    cells = layout.data_unit_cells(first_unit, count)
    phase = [UnitOp(disk, offset, False) for disk, offset in cells]
    return reference_phase_requests(phase, _UNIT_SECTORS, 9, 0, merge)


@st.composite
def _read_shapes(draw):
    layout = _read_layout(draw(st.sampled_from(_LAYOUT_KEYS + [_REVERSED])))
    per_period = layout.data_units_per_period
    count = draw(
        st.one_of(
            st.integers(1, 3 * layout.data_per_stripe + 2),
            st.integers(per_period - 2, per_period + 2),
        )
    )
    last = _addressable_units(layout) - count
    boundary = draw(st.integers(1, _CYCLES)) * per_period
    first_unit = draw(
        st.one_of(
            st.integers(0, _CYCLES * per_period),
            # Reads that end just past a period boundary.
            st.integers(max(boundary - count, 0), boundary - 1),
            # The last addressable units.
            st.integers(max(last - per_period, 0), last),
        )
    )
    return layout, first_unit, count, draw(st.booleans())


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_read_shapes(), st.integers(1, _CYCLES))
def test_read_runs_match_reference_coalescer(case, cycles):
    layout, first_unit, count, merge = case
    # The same shape one or more cycles away must be served from the
    # same cache entry with a different shift; and both merge settings
    # must be kept apart.
    later = first_unit + cycles * layout.data_units_per_period
    for start in (first_unit, later, first_unit):
        for flag in (merge, not merge):
            got = _requests_from_runs(layout, start, count, flag)
            want = _reference_read_requests(layout, start, count, flag)
            assert got == want, (layout.name, start, count, flag)
    slots = {slot for slot, _, _ in layout._runs_cache}
    assert max(slots) < layout.data_units_per_period


@pytest.mark.parametrize("key", _LAYOUT_KEYS, ids=str)
def test_every_stripe_write_matches_across_modes(key):
    """Exhaustive companion: every single-stripe write shape of the
    first two periods, in every mode, against one failed disk."""
    layout = _resolve(key)
    dps = layout.data_per_stripe
    failed = 1  # no view in _LAYOUT_KEYS relocates disk 1
    frontier = frozenset(range(0, 2 * layout.period, 2))
    cases = [(ArrayMode.FAULT_FREE, None, None),
             (ArrayMode.DEGRADED, failed, None),
             (ArrayMode.RECONSTRUCTION, failed, frontier.__contains__)]
    if layout.has_sparing:
        cases.append((ArrayMode.POST_RECONSTRUCTION, failed, None))
    for stripe in range(2 * layout.stripes_per_period):
        for lo in range(dps):
            for hi in range(lo + 1, dps + 1):
                for mode, disk, rebuilt in cases:
                    args = (stripe * dps + lo, hi - lo, True, mode, disk,
                            rebuilt)
                    assert (
                        plan_access(layout, *args).phases
                        == reference_plan(layout, *args).phases
                    ), (layout.name, args)
