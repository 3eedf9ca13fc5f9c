"""Dict-keyed reference model of a layout's address maps.

``Layout.locate`` and ``Layout.data_unit_address`` index flat per-period
tables (see ``src/repro/layouts/base.py``).  This model answers the same
questions the slow, obvious way — a ``Dict[PhysicalAddress, UnitInfo]``
over one pattern, and whole materialised stripes — straight from the
layout's forward map, so ``test_flat_fast_path.py`` compares the flat
tables against an independent construction.
"""

from typing import Dict

from repro.errors import MappingError
from repro.layouts.address import PhysicalAddress, Role, UnitInfo
from repro.layouts.base import Layout


class ReferenceLayout:
    """The reference answers for one layout."""

    def __init__(self, layout: Layout):
        self.layout = layout
        #: What lives at each cell of one pattern.
        self.table: Dict[PhysicalAddress, UnitInfo] = {}
        for s in range(layout.stripes_per_period):
            units = layout.stripe_units_in_period(s)
            for j, addr in enumerate(units.data):
                self.table[addr] = UnitInfo(Role.DATA, s, j)
            for j, addr in enumerate(units.check):
                self.table[addr] = UnitInfo(
                    Role.CHECK, s, layout.data_per_stripe + j
                )
        for addr in layout.spare_addresses_in_period():
            self.table[addr] = UnitInfo(Role.SPARE, -1, -1)

    def locate(self, disk: int, offset: int) -> UnitInfo:
        """Reference for :meth:`Layout.locate`."""
        layout = self.layout
        if not 0 <= disk < layout.n:
            raise MappingError(f"disk {disk} outside 0..{layout.n - 1}")
        if offset < 0:
            raise MappingError(f"negative offset {offset}")
        cycle, row = divmod(offset, layout.period)
        info = self.table[PhysicalAddress(disk, row)]
        if info.role is Role.SPARE:
            return info
        return UnitInfo(
            role=info.role,
            stripe=info.stripe + cycle * layout.stripes_per_period,
            position=info.position,
        )

    def data_unit_address(self, unit: int) -> PhysicalAddress:
        """Reference for :meth:`Layout.data_unit_address`: materialise
        the whole stripe and index its data list."""
        layout = self.layout
        stripe = layout.stripe_of_data_unit(unit)
        position = unit % layout.data_per_stripe
        return layout.stripe_units(stripe).data[position]
