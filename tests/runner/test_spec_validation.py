"""A bad spec fails when it is constructed, not inside a worker.

Every case below used to construct cleanly and raise only when
``execute_spec`` ran it; each now raises the same
:class:`ConfigurationError` at construction.  Specs that run today must
keep constructing, so the checks only reject what the trial itself
would have rejected.
"""

import pytest

from repro.errors import ConfigurationError
from repro.runner.spec import (
    CampaignTrialSpec,
    CorruptionTrialSpec,
    CrashTrialSpec,
    ExperimentSpec,
    FailSlowTrialSpec,
    LifecycleSpec,
    NemesisTrialSpec,
    OpenLoopSpec,
)

BAD_SPECS = {
    "nemesis-restart-delay": (
        NemesisTrialSpec, dict(restart_delay_ms=-1),
        "negative restart delay",
    ),
    "nemesis-journal-latency": (
        NemesisTrialSpec, dict(journal_latency_ms=-1),
        "negative journal latency",
    ),
    "nemesis-dwell": (
        NemesisTrialSpec, dict(degraded_dwell_ms=-1),
        "negative degraded dwell",
    ),
    "crash-max-boundary": (
        CrashTrialSpec, dict(crash_seed=1, crash_max_boundary=0),
        "max_boundary must be >= 1",
    ),
    "crash-time": (
        CrashTrialSpec, dict(crash_time_ms=-5), "negative crash time",
    ),
    "failslow-dwell": (
        FailSlowTrialSpec, dict(degraded_dwell_ms=-1),
        "negative degraded dwell",
    ),
    "failslow-rebuild-rows": (
        FailSlowTrialSpec, dict(rebuild_rows=0), "need >= 1 rebuild row",
    ),
    "openloop-rebuild-dwell": (
        OpenLoopSpec, dict(phase="rebuild", degraded_dwell_ms=-5),
        "negative degraded dwell",
    ),
    "openloop-trace-period": (
        OpenLoopSpec, dict(arrival="trace", trace_period_ms=0),
        "trace period must be positive",
    ),
    "openloop-mmpp-burst-ratio": (
        OpenLoopSpec, dict(arrival="mmpp", burst_ratio=0.5),
        "burst ratio must be >= 1",
    ),
    "response-size": (ExperimentSpec, dict(size_kb=0), "size must be >= 1"),
    "lifecycle-size": (
        LifecycleSpec, dict(fault_time_ms=500.0, size_kb=0),
        "size must be >= 1",
    ),
    "campaign-size": (
        CampaignTrialSpec, dict(clients=1, size_kb=0), "size must be >= 1",
    ),
    "crash-size": (
        CrashTrialSpec, dict(crash_boundary=3, size_kb=0),
        "size must be >= 1",
    ),
    "nemesis-size": (NemesisTrialSpec, dict(size_kb=0), "size must be >= 1"),
    "openloop-size": (OpenLoopSpec, dict(size_kb=0), "size must be >= 1"),
    "failslow-size": (
        FailSlowTrialSpec, dict(size_kb=0), "size must be >= 1",
    ),
    "corruption-size": (
        CorruptionTrialSpec, dict(size_kb=0), "size must be >= 1",
    ),
    "openloop-partial-unit": (
        OpenLoopSpec, dict(size_kb=12), "not a whole number",
    ),
}


@pytest.mark.parametrize(
    "cls, fields, message", BAD_SPECS.values(), ids=BAD_SPECS.keys()
)
def test_bad_spec_fails_at_construction(cls, fields, message):
    with pytest.raises(ConfigurationError, match=message):
        cls(layout="pddl", **fields)


@pytest.mark.parametrize(
    "cls, fields",
    [
        # Fields the trial never reads in this configuration.
        (OpenLoopSpec, dict(phase="ff", degraded_dwell_ms=-5)),
        (OpenLoopSpec, dict(arrival="poisson", burst_ratio=0.5)),
        (OpenLoopSpec, dict(arrival="mmpp", trace_period_ms=0)),
        (NemesisTrialSpec, dict(journal=False, journal_latency_ms=-1)),
        (CampaignTrialSpec, dict(clients=0, size_kb=0)),
    ],
    ids=[
        "openloop-ff-dwell", "openloop-poisson-burst", "openloop-mmpp-trace",
        "nemesis-no-journal", "campaign-unloaded-size",
    ],
)
def test_spec_that_runs_still_constructs(cls, fields):
    cls(layout="pddl", **fields)
