"""The abstract layout interface.

Every layout in this library is a deterministic, pure mapping between the
client's linear data-unit address space and array cells ``(disk, offset)``.
Layouts are periodic: a *layout pattern* of ``period`` rows repeats down the
disks.  Within one period there are ``stripes_per_period`` stripes, each
holding ``data_per_stripe`` contiguous client data units plus check unit(s),
and optionally distributed spare cells.

The shared machinery here (global/periodic address translation, the inverse
``locate`` table, structural validation) is what lets the simulator, the
analytic working-set tool, and the property checker treat PDDL and every
baseline uniformly.

Hot-path representation: the forward and inverse maps are served from
*flat* tables built once per layout — ``locate`` indexes a
list-of-lists ``[disk][row]`` grid and ``data_unit_address`` a flat
per-period array of ``(disk, row)`` cells — so the simulator's millions
of address translations are two integer indexings each, with no
namedtuple hashing and no per-call stripe materialisation.  Both tables
are built straight from :meth:`Layout.stripe_units_in_period` and
:meth:`Layout.spare_addresses_in_period`; the registry-wide property
test in ``tests/layouts/test_flat_fast_path.py`` pins them cell-for-cell
equal to an independent dict-keyed reference model across multiple
periods.

Stripes are cached only for the first period.  The planner reads a later
period's stripe as its in-period cells plus an offset shift
(:meth:`Layout.stripe_units_and_shift`); :meth:`Layout.stripe_units`
builds a shifted stripe on each call, for callers off the fault-free
path (degraded reads, hedges, resync, the oracle, analytic tools).
Fault-free reads work the same way: :meth:`Layout.data_unit_runs`
caches the coalesced runs of each in-period read shape (start slot,
length, merging on or off) and returns them with the shift.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, MappingError
from repro.layouts.address import PhysicalAddress, Role, StripeUnits, UnitInfo

#: A run of physically contiguous cells: ``(disk, first_row, rows)``.
Run = Tuple[int, int, int]


def coalesce_runs(cells: Sequence[tuple], merge: bool) -> List[Run]:
    """``(disk, first_row, rows)`` runs covering distinct ``(disk, row,
    ...)`` cells — the array's one request coalescer.

    With ``merge`` (RAIDframe-style coalescing) the cells are grouped by
    disk in first-occurrence order, each group's rows sorted, and
    physically contiguous rows merged into one run; without it each
    cell is its own one-row run, in input order.  Order matters: the
    controller submits one disk request per run, in run order.
    """
    if not merge or len({cell[0] for cell in cells}) == len(cells):
        # Nothing to merge; with no two cells on one disk, first-
        # occurrence order is input order.  Most small-write phases
        # on a declustered layout take this branch.
        return [(cell[0], cell[1], 1) for cell in cells]
    by_disk: Dict[int, List[int]] = {}
    get = by_disk.get
    for cell in cells:
        rows = get(cell[0])
        if rows is None:
            by_disk[cell[0]] = [cell[1]]
        else:
            rows.append(cell[1])
    runs: List[Run] = []
    append = runs.append
    for disk, rows in by_disk.items():
        if len(rows) == 1:
            # Declustered layouts put most cells on a disk of their own.
            append((disk, rows[0], 1))
            continue
        rows.sort()
        rows.append(rows[-1] + 2)  # a sentinel that ends the last run
        start = previous = rows[0]
        for row in rows:
            if row > previous + 1:
                append((disk, start, previous - start + 1))
                start = row
            previous = row
    return runs


class Layout(abc.ABC):
    """Abstract data layout over ``n`` disks with stripe width ``k``.

    Subclasses implement :meth:`stripe_units_in_period` (the forward map for
    one layout pattern) and :meth:`spare_addresses_in_period`; everything
    else — global stripe addressing, client data-unit translation, the
    inverse map — derives from those.
    """

    #: Human-readable scheme name, overridden per subclass.
    name: str = "abstract"

    def __init__(self, n: int, k: int):
        if k < 2:
            raise ConfigurationError(f"stripe width must be >= 2, got {k}")
        if n < k:
            raise ConfigurationError(
                f"need at least k = {k} disks, got n = {n}"
            )
        self.n = n
        self.k = k
        self._stripe_cache: Dict[int, StripeUnits] = {}
        # (slot, count, merge) -> coalesced in-period runs of that read
        # shape (see data_unit_runs).  Shapes share most of their runs,
        # so each distinct run tuple is kept once, in _run_tuples.
        self._runs_cache: Dict[Tuple[int, int, bool], List[Run]] = {}
        self._run_tuples: Dict[Run, Run] = {}
        # Flat fast-path tables (built lazily, see _build_flat_tables).
        self._locate_grid: Optional[List[List[UnitInfo]]] = None
        self._data_cells: Optional[List[Tuple[int, int]]] = None
        # (period, stripes_per_period, data_per_stripe) snapshot: several
        # layouts compute these properties through non-trivial chains
        # (PDDL walks its permutation group), so the translation hot path
        # reads them once.  Layout geometry is immutable after
        # construction, which is what makes the snapshot sound.
        self._consts: Optional[Tuple[int, int, int]] = None
        # has_sparing memo: sits on degraded/rebuild planning hot paths
        # (every stripe decision consults it) and the spare list it is
        # derived from is fixed at construction.
        self._sparing: Optional[bool] = None

    # ------------------------------------------------------------------
    # Quantities subclasses must define.
    # ------------------------------------------------------------------

    @property
    @abc.abstractmethod
    def period(self) -> int:
        """Rows (offsets) in one layout pattern."""

    @property
    @abc.abstractmethod
    def stripes_per_period(self) -> int:
        """Number of stripes in one layout pattern."""

    @abc.abstractmethod
    def stripe_units_in_period(self, stripe_index: int) -> StripeUnits:
        """Physical cells of stripe ``stripe_index`` (0-based within the
        pattern); all offsets must lie in ``range(period)``."""

    def spare_addresses_in_period(self) -> List[PhysicalAddress]:
        """Distributed-spare cells of one pattern (empty if no sparing)."""
        return []

    # ------------------------------------------------------------------
    # Derived quantities.
    # ------------------------------------------------------------------

    @property
    def data_per_stripe(self) -> int:
        """Contiguous client data units per stripe (goal #4)."""
        return self.k - 1

    @property
    def checks_per_stripe(self) -> int:
        return self.k - self.data_per_stripe

    @property
    def data_units_per_period(self) -> int:
        return self.stripes_per_period * self.data_per_stripe

    @property
    def has_sparing(self) -> bool:
        cached = self._sparing
        if cached is None:
            cached = self._sparing = bool(self.spare_addresses_in_period())
        return cached

    @property
    def parity_overhead(self) -> float:
        """Fraction of array cells holding check units."""
        checks = self.stripes_per_period * self.checks_per_stripe
        return checks / (self.period * self.n)

    @property
    def spare_overhead(self) -> float:
        """Fraction of array cells holding spare units."""
        return len(self.spare_addresses_in_period()) / (self.period * self.n)

    # ------------------------------------------------------------------
    # Global (multi-period) addressing.
    # ------------------------------------------------------------------

    def _layout_consts(self) -> Tuple[int, int, int]:
        """Snapshot ``(period, stripes_per_period, data_per_stripe)``."""
        consts = self._consts
        if consts is None:
            consts = (
                self.period,
                self.stripes_per_period,
                self.data_per_stripe,
            )
            self._consts = consts
        return consts

    def stripe_units_and_shift(
        self, stripe_id: int
    ) -> Tuple[StripeUnits, int]:
        """A global stripe as its cached in-period cells plus a shift.

        Layouts are periodic: global stripe ``cycle * stripes_per_period
        + index`` sits on the disks of in-period stripe ``index``, at
        offsets ``cycle * period`` further down.  Returns that in-period
        :class:`StripeUnits` (shared and cached — do not mutate it) and
        the offset shift ``cycle * period``; a caller adds the shift to
        each offset it uses instead of materialising shifted addresses.
        """
        if stripe_id < 0:
            raise MappingError(f"negative stripe id {stripe_id}")
        period, stripes_per_period, _ = self._layout_consts()
        cycle, index = divmod(stripe_id, stripes_per_period)
        base = self._stripe_cache.get(index)
        if base is None:
            base = self.stripe_units_in_period(index)
            self._stripe_cache[index] = base
        return base, cycle * period

    def stripe_units(self, stripe_id: int) -> StripeUnits:
        """Physical cells of a global stripe (period-extended).

        A later period's stripe is built on each call; write planning
        reads :meth:`stripe_units_and_shift` instead.
        """
        base, shift = self.stripe_units_and_shift(stripe_id)
        if shift == 0:
            return base
        return StripeUnits(
            data=[PhysicalAddress(d, o + shift) for d, o in base.data],
            check=[PhysicalAddress(d, o + shift) for d, o in base.check],
        )

    def stripe_of_data_unit(self, unit: int) -> int:
        """Global stripe holding client data unit ``unit``."""
        if unit < 0:
            raise MappingError(f"negative data unit {unit}")
        return unit // self.data_per_stripe

    def data_unit_cell(self, unit: int) -> Tuple[int, int]:
        """Physical cell of a client data unit as a plain ``(disk,
        offset)`` tuple — the allocation-free core of
        :meth:`data_unit_address` (the planner builds its own op tuples
        from it)."""
        if unit < 0:
            raise MappingError(f"negative data unit {unit}")
        cells = self._data_cells
        if cells is None:
            cells = self._build_flat_tables()[1]
        consts = self._consts
        if consts is None:
            consts = self._layout_consts()
        period, stripes_per_period, per_stripe = consts
        stripe, position = divmod(unit, per_stripe)
        cycle, index = divmod(stripe, stripes_per_period)
        disk, row = cells[index * per_stripe + position]
        return disk, row + cycle * period

    def data_unit_cells(
        self, first_unit: int, count: int
    ) -> List[Tuple[int, int]]:
        """Cells of ``count`` consecutive data units starting at
        ``first_unit`` — :meth:`data_unit_cell` batched, with the bounds
        check and table lookups hoisted out of the per-unit loop and the
        two divmods replaced by an incrementing flat-table index (a unit
        step moves one slot through the period's flat cell array,
        wrapping into the next cycle)."""
        if first_unit < 0:
            raise MappingError(f"negative data unit {first_unit}")
        cells = self._data_cells
        if cells is None:
            cells = self._build_flat_tables()[1]
        period, stripes_per_period, per_stripe = self._layout_consts()
        units_per_cycle = stripes_per_period * per_stripe
        cycle, slot = divmod(first_unit, units_per_cycle)
        shift = cycle * period
        out = []
        append = out.append
        for _ in range(count):
            if slot == units_per_cycle:
                slot = 0
                shift += period
            disk, row = cells[slot]
            append((disk, row + shift))
            slot += 1
        return out

    def data_unit_runs(
        self, first_unit: int, count: int, merge: bool
    ) -> Tuple[List[Run], int]:
        """A fault-free read as its cached in-period runs plus a shift.

        The cells of ``count`` units from ``first_unit`` are those from
        its start slot within the period (``first_unit`` modulo the
        data units of one period), ``cycle * period`` rows further
        down.  So a read's runs (:func:`coalesce_runs` of its cells)
        depend only on ``(slot, count, merge)``: they are built once per
        shape from :meth:`data_unit_cells` and cached, at most one entry
        per slot, read length and ``merge``.  Returns the runs (shared —
        do not mutate them) and the offset shift ``cycle * period`` a
        caller adds to each run's first row.  Merging is shift-invariant, so a
        read that wraps into the next cycle is covered too.
        """
        if first_unit < 0:
            raise MappingError(f"negative data unit {first_unit}")
        period, stripes_per_period, per_stripe = self._layout_consts()
        cycle, slot = divmod(first_unit, stripes_per_period * per_stripe)
        key = (slot, count, merge)
        runs = self._runs_cache.get(key)
        if runs is None:
            share = self._run_tuples.setdefault
            runs = [
                share(run, run)
                for run in coalesce_runs(
                    self.data_unit_cells(slot, count), merge
                )
            ]
            self._runs_cache[key] = runs
        return runs, cycle * period

    def data_unit_address(self, unit: int) -> PhysicalAddress:
        """Physical cell of a client data unit."""
        return PhysicalAddress(*self.data_unit_cell(unit))

    def data_units_of_stripe(self, stripe_id: int) -> range:
        """Client data units stored in the given global stripe."""
        lo = stripe_id * self.data_per_stripe
        return range(lo, lo + self.data_per_stripe)

    # ------------------------------------------------------------------
    # Inverse mapping.
    # ------------------------------------------------------------------

    def locate(self, disk: int, offset: int) -> UnitInfo:
        """What lives at cell ``(disk, offset)``.

        Returns the unit's role, its global stripe id (-1 for spares), and
        its position within the stripe.
        """
        grid = self._locate_grid
        if grid is None:
            grid = self._build_flat_tables()[0]
        if not 0 <= disk < self.n:
            raise MappingError(f"disk {disk} outside 0..{self.n - 1}")
        if offset < 0:
            raise MappingError(f"negative offset {offset}")
        cycle, row = divmod(offset, self.period)
        info = grid[disk][row]
        if cycle == 0 or info.role is Role.SPARE:
            return info
        return UnitInfo(
            role=info.role,
            stripe=info.stripe + cycle * self.stripes_per_period,
            position=info.position,
        )

    def _build_flat_tables(
        self,
    ) -> Tuple[List[List[UnitInfo]], List[Tuple[int, int]]]:
        """Build and cache the flat fast-path tables from the forward map.

        - ``grid[disk][row]``: the :class:`UnitInfo` of every cell of one
          pattern (the inverse map, minus hashing);
        - ``data_cells[stripe_index * data_per_stripe + position]``: the
          ``(disk, row)`` cell of every client data unit of one pattern
          (the forward map, minus stripe materialisation).

        Every cell of the ``n x period`` pattern must hold exactly one
        unit: a cell outside the pattern, a cell mapped twice, or an
        uncovered cell raises :class:`MappingError`.
        """
        n = self.n
        period = self.period
        per_stripe = self.data_per_stripe
        grid: List[List[UnitInfo]] = [
            [None] * period for _ in range(n)  # type: ignore[list-item]
        ]
        data_cells: List[Tuple[int, int]] = [
            None  # type: ignore[list-item]
        ] * (self.stripes_per_period * per_stripe)
        covered = 0

        def place(addr: PhysicalAddress, info: UnitInfo) -> None:
            nonlocal covered
            disk, row = addr
            if not 0 <= disk < n or not 0 <= row < period:
                raise MappingError(
                    f"{self.name}: cell {addr} outside the layout pattern"
                )
            if grid[disk][row] is not None:
                raise MappingError(f"{self.name}: cell {addr} mapped twice")
            grid[disk][row] = info
            covered += 1

        for s in range(self.stripes_per_period):
            units = self.stripe_units_in_period(s)
            for j, addr in enumerate(units.data):
                place(addr, UnitInfo(Role.DATA, s, j))
                data_cells[s * per_stripe + j] = (addr.disk, addr.offset)
            for j, addr in enumerate(units.check):
                place(addr, UnitInfo(Role.CHECK, s, per_stripe + j))
        for addr in self.spare_addresses_in_period():
            place(addr, UnitInfo(Role.SPARE, -1, -1))
        expected = period * n
        if covered != expected:
            raise MappingError(
                f"{self.name}: pattern covers {covered} cells,"
                f" expected {expected}"
            )
        self._locate_grid = grid
        self._data_cells = data_cells
        return grid, data_cells

    # ------------------------------------------------------------------
    # Sparing hooks (overridden by layouts with distributed spare space).
    # ------------------------------------------------------------------

    def relocation_target(self, addr: PhysicalAddress) -> PhysicalAddress:
        """Spare cell that receives the reconstructed copy of ``addr``.

        Only meaningful for layouts with distributed sparing; the default
        raises.
        """
        raise MappingError(f"{self.name} has no spare space")

    # ------------------------------------------------------------------
    # Validation and reporting.
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural sanity of one full pattern.

        - every cell of the ``period x n`` grid is used exactly once,
        - no stripe places two units on the same disk (goal #1).
        """
        if self._locate_grid is None:
            self._build_flat_tables()
        for s in range(self.stripes_per_period):
            disks = self.stripe_units_in_period(s).disks()
            if len(set(disks)) != len(disks):
                raise MappingError(
                    f"{self.name}: stripe {s} uses a disk twice (goal #1)"
                )

    def mapping_table_entries(self) -> int:
        """Entries of persistent state the mapping needs (Table 3 metric).

        0 for purely arithmetic schemes; subclasses override.
        """
        return 0

    def describe(self) -> str:
        return (
            f"{self.name}(n={self.n}, k={self.k}, period={self.period},"
            f" stripes/period={self.stripes_per_period},"
            f" sparing={self.has_sparing})"
        )

    def __repr__(self) -> str:
        return self.describe()
