"""Controller crash / power-loss injection.

A crash halts the array mid-plan: every scheduled engine event vanishes
(the electronics lost power — seeks in progress never complete and no
callback fires), every in-flight write becomes a *torn write* whose
stripes may be parity-inconsistent, and all queued operations are gone.
What survives is exactly what real NVRAM survives: the dirty-stripe
journal, the media state, and the platters themselves.

:class:`CrashInjector` fires in one of three ways, exactly one of which
must be configured:

* ``at_time_ms`` — scripted: crash at a fixed simulation time.
* ``at_boundary`` — scripted: crash at the Nth write-plan phase
  boundary observed across all in-flight accesses (boundary 0 is the
  first time any access finishes a phase).  This is the surgical mode
  the property/regression tests use to place the crash *between* a
  write's data and parity phases.
* ``seed`` — drawn: the boundary index is drawn from the named stream
  ``"{seed}/crash"`` over ``range(max_boundary)``, so campaigns get
  reproducible but varied crash placement.

After firing, :attr:`torn_stripes` holds the simulator's omniscient set
of stripes the torn writes had touched — the ground truth a
:class:`~repro.array.resync.Resynchronizer` is measured against.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from repro.array.controller import ArrayController
from repro.errors import ConfigurationError, SimulationError


class CrashInjector:
    """Crashes one controller at a scripted or drawn instant."""

    def __init__(
        self,
        controller: ArrayController,
        at_time_ms: Optional[float] = None,
        at_boundary: Optional[int] = None,
        seed: Optional[int] = None,
        max_boundary: int = 64,
        on_crash: Optional[Callable[["CrashInjector"], None]] = None,
    ):
        self.check_trigger(at_time_ms, at_boundary, seed, max_boundary)
        self.controller = controller
        self.at_time_ms = at_time_ms
        self.on_crash = on_crash
        if seed is not None:
            rng = random.Random(f"{seed}/crash")
            self.at_boundary: Optional[int] = rng.randrange(max_boundary)
        else:
            self.at_boundary = at_boundary
        self.boundaries_seen = 0
        self.fired = False
        self.crashed_at_ms: Optional[float] = None
        self.torn_accesses = 0
        self.torn_stripes: List[int] = []
        self.dropped_events = 0
        self._armed = False

    @staticmethod
    def check_trigger(
        at_time_ms: Optional[float],
        at_boundary: Optional[int],
        seed: Optional[int],
        max_boundary: int,
    ) -> None:
        """Reject a trigger configuration the injector cannot fire."""
        configured = sum(
            x is not None for x in (at_time_ms, at_boundary, seed)
        )
        if configured != 1:
            raise ConfigurationError(
                "configure exactly one of at_time_ms, at_boundary, seed"
                f" (got {configured})"
            )
        if at_time_ms is not None and at_time_ms < 0:
            raise ConfigurationError(f"negative crash time {at_time_ms}")
        if at_boundary is not None and at_boundary < 0:
            raise ConfigurationError(
                f"negative crash boundary {at_boundary}"
            )
        if max_boundary < 1:
            raise ConfigurationError(
                f"max_boundary must be >= 1, got {max_boundary}"
            )

    def arm(self) -> None:
        """Install the trigger (schedule the time, or hook boundaries)."""
        if self._armed:
            raise SimulationError("crash injector already armed")
        self._armed = True
        if self.at_time_ms is not None:
            self.controller.engine.schedule_at(self.at_time_ms, self._fire)
        else:
            self.controller.on_phase_boundary = self._boundary

    def _boundary(self, access, phase: int, total_phases: int) -> None:
        if self.fired:
            return
        boundary = self.boundaries_seen
        self.boundaries_seen += 1
        if boundary == self.at_boundary:
            self._fire()

    def _fire(self) -> None:
        if self.fired:
            return
        self.fired = True
        controller = self.controller
        controller.on_phase_boundary = None
        self.crashed_at_ms = controller.engine.now
        # Power loss first: no scheduled completion survives.  Then tear
        # the controller's volatile state (in-flight plans, queues).
        self.dropped_events = controller.engine.clear_pending()
        torn = controller.crash()
        self.torn_accesses = torn["accesses"]
        self.torn_stripes = torn["stripes"]
        if self.on_crash is not None:
            self.on_crash(self)

    def to_dict(self) -> dict:
        return {
            "fired": self.fired,
            "crashed_at_ms": self.crashed_at_ms,
            "boundary": self.at_boundary,
            "boundaries_seen": self.boundaries_seen,
            "torn_accesses": self.torn_accesses,
            "torn_stripes": list(self.torn_stripes),
            "dropped_events": self.dropped_events,
        }
