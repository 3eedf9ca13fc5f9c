"""Layouts are periodic: the invariant in-period write planning rests on.

Global stripe ``s + c * stripes_per_period`` must be in-period stripe
``s`` with every offset moved ``c * period`` rows down the same disks,
data and check lists in order, and ``stripe_units_and_shift`` must
return exactly that decomposition.  For layouts with distributed
sparing, ``relocation_target`` must commute with the same shift, which
is what lets a ``RelocatedView`` redirect in-period cells once and
reuse them in every cycle.  Checked for every registry layout and for a
``RelocatedView`` over each sparing layout.
"""

import pytest

from repro.layouts.address import PhysicalAddress, Role
from repro.layouts.registry import available_layouts, make_layout
from repro.layouts.relocated import RelocatedView

_CONFIGS = {"raid5": (13, 13)}
_DEFAULT_CONFIG = (13, 4)
_SPARING = ("pddl", "pseudo-random")
_CYCLES = (1, 2, 7)


def _make(name):
    n, k = _CONFIGS.get(name, _DEFAULT_CONFIG)
    return make_layout(name, n, k)


_LAYOUTS = [(name, None) for name in available_layouts()] + [
    (name, 4) for name in _SPARING
]


@pytest.fixture(params=_LAYOUTS, ids=str, scope="module")
def layout(request):
    name, relocated = request.param
    base = _make(name)
    return base if relocated is None else RelocatedView(base, relocated)


def _shifted(cells, shift):
    return [PhysicalAddress(d, o + shift) for d, o in cells]


def test_stripes_repeat_down_the_disks(layout):
    per_period = layout.stripes_per_period
    for s in range(per_period):
        first = layout.stripe_units(s)
        units, shift = layout.stripe_units_and_shift(s)
        assert shift == 0
        assert (units.data, units.check) == (first.data, first.check)
        for c in _CYCLES:
            shift = c * layout.period
            later = layout.stripe_units(s + c * per_period)
            assert later.data == _shifted(first.data, shift), (s, c)
            assert later.check == _shifted(first.check, shift), (s, c)
            units, got_shift = layout.stripe_units_and_shift(
                s + c * per_period
            )
            assert got_shift == shift
            assert (units.data, units.check) == (first.data, first.check)


@pytest.mark.parametrize("name", _SPARING)
def test_relocation_commutes_with_the_shift(name):
    layout = _make(name)
    for disk in range(layout.n):
        for row in range(layout.period):
            if layout.locate(disk, row).role is Role.SPARE:
                continue
            target = layout.relocation_target(PhysicalAddress(disk, row))
            assert 0 <= target.offset < layout.period
            for c in _CYCLES:
                shift = c * layout.period
                assert layout.relocation_target(
                    PhysicalAddress(disk, row + shift)
                ) == (target.disk, target.offset + shift), (disk, row, c)
