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
"""

import random
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.array.raidops import ArrayMode, plan_access
from repro.layouts.registry import available_layouts, make_layout
from repro.layouts.relocated import RelocatedView

from tests.array.reference_planner import reference_plan

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
