"""The event engine against a list-based reference model.

:class:`ListModel` is the contract written as plainly as possible: an
unsorted list of ``(time, seq, callback)`` entries, popped at its
``(time, seq)`` minimum by a linear scan.  The property tests interpret
random scheduling programs (nested scheduling, ties, stops from inside
callbacks, discarded stops, horizons, event budgets, power-loss
clears) against both and demand every observable output match exactly:
fire order and clocks, per-call return values, and the
``events_processed`` / ``heap_high_water`` / ``pending()`` counters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationEngine
from repro.sim.instrument import engine_snapshot


class ListModel:
    """Reference scheduler: a list scanned for its ``(time, seq)`` minimum."""

    def __init__(self):
        self.now = 0.0
        self.events = []
        self.seq = 0
        self.stopped = False
        self.events_processed = 0
        self.heap_high_water = 0

    def schedule(self, delay, callback):
        self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time, callback):
        self.seq += 1
        self.events.append((time, self.seq, callback))
        self.heap_high_water = max(self.heap_high_water, len(self.events))

    def run(self, until=None, max_events=None):
        self.stopped = False
        processed = 0
        while self.events and (max_events is None or processed < max_events):
            i = min(range(len(self.events)), key=lambda j: self.events[j][:2])
            if until is not None and self.events[i][0] > until:
                self.now = max(self.now, until)
                break
            self.now, _, callback = self.events.pop(i)
            callback()
            processed += 1
            self.events_processed += 1
            if self.stopped:
                break
        return processed

    def run_until(self, horizon):
        return self.run(until=horizon)

    def stop(self):
        self.stopped = True

    def pending(self):
        return len(self.events)

    def clear_pending(self):
        dropped = len(self.events)
        self.events.clear()
        return dropped


# Delays drawn from a small grid on purpose: collisions (equal fire
# times) exercise the FIFO tie-break, and a continuous float strategy
# almost never produces them.
_DELAYS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 4.0, 7.25, 64.0, 1000.0]),
    st.floats(min_value=0.0, max_value=500.0,
              allow_nan=False, allow_infinity=False),
)

# (delay, absolute?) — absolute spawns go through schedule_at(now + delay).
_SPAWNS = st.lists(st.tuples(_DELAYS, st.booleans()), max_size=2)

# Horizon offsets from the current clock; negative ones are past
# horizons, which must leave the clock where it is.
_OFFSETS = st.one_of(_DELAYS, st.sampled_from([-0.5, -64.0]))

_SEGMENT = st.fixed_dictionaries(
    {
        # (delay, child spawns, stop?) — stop callbacks exercise the
        # halt-before-same-timestamp contract.
        "schedule": st.lists(
            st.tuples(_DELAYS, _SPAWNS, st.booleans()), max_size=8
        ),
        # A stop requested before the run must be discarded.
        "stop_first": st.booleans(),
        "run": st.one_of(
            st.just(("drain", None, None)),
            st.tuples(st.just("until"), _OFFSETS, st.none()),
            st.tuples(st.just("run_until"), _OFFSETS, st.none()),
            st.tuples(st.just("max"), st.none(), st.integers(0, 12)),
            st.tuples(st.just("general"), _OFFSETS, st.integers(0, 12)),
        ),
        "clear": st.booleans(),
    }
)

_PROGRAM = st.lists(_SEGMENT, min_size=1, max_size=4)


def _interpret(engine, program):
    """Run ``program`` on ``engine``; return every observable output."""
    fired = []

    def make_callback(tag, spawns, stop):
        def callback():
            fired.append((engine.now, tag))
            for j, (delay, absolute) in enumerate(spawns):
                child = make_callback((tag, j), [], False)
                if absolute:
                    engine.schedule_at(engine.now + delay, child)
                else:
                    engine.schedule(delay, child)
            if stop:
                engine.stop()

        return callback

    outputs = []
    for index, segment in enumerate(program):
        for k, (delay, spawns, stop) in enumerate(segment["schedule"]):
            engine.schedule(delay, make_callback((index, k), spawns, stop))
        if segment["stop_first"]:
            engine.stop()
        mode, until, max_events = segment["run"]
        # Horizons are absolute times; offset from the current clock so
        # later segments still have events in range.
        if mode == "drain":
            returned = engine.run()
        elif mode == "until":
            returned = engine.run(until=engine.now + until)
        elif mode == "run_until":
            returned = engine.run_until(engine.now + until)
        elif mode == "max":
            returned = engine.run(max_events=max_events)
        else:
            returned = engine.run(
                until=engine.now + until, max_events=max_events
            )
        dropped = engine.clear_pending() if segment["clear"] else None
        outputs.append((returned, dropped, engine_snapshot(engine)))
    return {"fired": fired, "outputs": outputs}


class TestProgramEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(program=_PROGRAM)
    def test_engine_matches_reference_model(self, program):
        assert _interpret(SimulationEngine(), program) == _interpret(
            ListModel(), program
        )

    @settings(max_examples=50, deadline=None)
    @given(program=_PROGRAM)
    def test_clear_pending_drops_the_same_events(self, program):
        outputs = []
        for engine in (SimulationEngine(), ListModel()):
            _interpret(engine, program)
            dropped = engine.clear_pending()
            outputs.append(
                (dropped, engine.pending(), engine.run(), engine_snapshot(engine))
            )
        assert outputs[0] == outputs[1]


class TestInstrumentationIdentity:
    def test_engine_snapshot_fields_match(self):
        engine, model = SimulationEngine(), ListModel()
        for scheduler in (engine, model):
            scheduler.schedule(2.0, lambda: None)
            scheduler.schedule(2.0, lambda: None)
            scheduler.schedule(9.0, lambda: None)
            scheduler.run(until=5.0)
        assert engine_snapshot(engine) == engine_snapshot(model) == {
            "events_processed": 2,
            "heap_high_water": 3,
            "pending": 1,
            "now_ms": 5.0,
        }
