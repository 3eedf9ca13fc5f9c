"""Registry-wide property test: flat fast-path tables == dict reference.

``Layout.locate`` and ``Layout.data_unit_address`` index flat per-period
tables (see the module docstring of ``src/repro/layouts/base.py``); the
dict-keyed reference model in ``reference_layout.py`` answers the same
questions from the layout's forward map.  This test pins the two
cell-for-cell equal for *every* registered layout, across multiple
periods, including the error cases — so any new layout added to the
registry is automatically held to the same contract.  A malformed
layout must fail the table build with a named error.
"""

import pytest

from repro.errors import MappingError
from repro.layouts.address import PhysicalAddress, Role, StripeUnits
from repro.layouts.base import Layout
from repro.layouts.registry import available_layouts, make_layout
from tests.layouts.reference_layout import ReferenceLayout

#: Canonical (n, k) per layout; the paper's 13-disk array, stripe width
#: 4 for the declustered schemes (PDDL needs n = g*k + 1) and the whole
#: array for RAID-5.
_CONFIGS = {"raid5": (13, 13)}
_DEFAULT_CONFIG = (13, 4)

#: How far past the first period to check (in periods).
_PERIODS = 2.5


@pytest.fixture(params=available_layouts(), scope="module")
def layout(request):
    n, k = _CONFIGS.get(request.param, _DEFAULT_CONFIG)
    return make_layout(request.param, n, k)


def test_data_unit_address_matches_reference(layout):
    reference = ReferenceLayout(layout)
    units = int(layout.data_units_per_period * _PERIODS)
    for unit in range(units):
        assert layout.data_unit_address(unit) == (
            reference.data_unit_address(unit)
        ), f"{layout.name}: data unit {unit} diverged"


def test_locate_matches_reference(layout):
    reference = ReferenceLayout(layout)
    offsets = int(layout.period * _PERIODS)
    for disk in range(layout.n):
        for offset in range(offsets):
            assert layout.locate(disk, offset) == (
                reference.locate(disk, offset)
            ), f"{layout.name}: cell ({disk}, {offset}) diverged"


def test_locate_roundtrips_data_units(layout):
    """Forward map and inverse map agree through the fast path."""
    for unit in range(layout.data_units_per_period * 2):
        addr = layout.data_unit_address(unit)
        info = layout.locate(*addr)
        assert info.role is Role.DATA
        assert info.stripe == layout.stripe_of_data_unit(unit)
        assert info.position == unit % layout.data_per_stripe


def test_error_cases_match_reference(layout):
    reference = ReferenceLayout(layout)
    for call in (layout.data_unit_address, reference.data_unit_address):
        with pytest.raises(MappingError):
            call(-1)
    for disk, offset in ((-1, 0), (layout.n, 0), (0, -1)):
        for call in (layout.locate, reference.locate):
            with pytest.raises(MappingError):
                call(disk, offset)


def test_data_unit_cell_is_address_core(layout):
    """The tuple-returning hot-path variant equals the address path."""
    for unit in range(layout.data_units_per_period + 3):
        addr = layout.data_unit_address(unit)
        assert layout.data_unit_cell(unit) == (addr.disk, addr.offset)


class _OneRowLayout(Layout):
    """Three disks, one row: a single two-unit stripe plus the cells
    handed in as spares — well formed only when they cover the rest."""

    name = "one-row"

    def __init__(self, stripe, spares):
        super().__init__(3, 2)
        self._stripe = stripe
        self._spares = spares

    @property
    def period(self) -> int:
        return 1

    @property
    def stripes_per_period(self) -> int:
        return 1

    def stripe_units_in_period(self, stripe_index: int) -> StripeUnits:
        data, check = self._stripe
        return StripeUnits(
            data=[PhysicalAddress(*data)], check=[PhysicalAddress(*check)]
        )

    def spare_addresses_in_period(self):
        return [PhysicalAddress(*cell) for cell in self._spares]


def test_well_formed_one_row_layout_builds():
    layout = _OneRowLayout(((0, 0), (1, 0)), [(2, 0)])
    layout.validate()
    assert layout.locate(2, 0).role is Role.SPARE
    assert layout.data_unit_cell(1) == (0, 1)


@pytest.mark.parametrize(
    "stripe, spares, message",
    [
        (((0, 0), (3, 0)), [(2, 0)], "outside the layout pattern"),
        (((0, 0), (0, 1)), [(2, 0)], "outside the layout pattern"),
        (((0, 0), (1, 0)), [(1, 0)], "mapped twice"),
        (((0, 0), (1, 0)), [], "pattern covers 2 cells, expected 3"),
    ],
    ids=["disk-outside", "row-outside", "mapped-twice", "uncovered"],
)
def test_malformed_layout_fails_the_table_build(stripe, spares, message):
    layout = _OneRowLayout(stripe, spares)
    with pytest.raises(MappingError, match=message):
        layout.validate()
    with pytest.raises(MappingError, match=message):
        layout.locate(0, 0)
