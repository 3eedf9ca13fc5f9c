"""BatchedTrialExecutor: amortized setup, byte-identical records.

The executor shares layout construction across a Monte-Carlo batch and
accumulates out-of-band counters; its one hard contract is that every
record it produces is byte-identical to a cold :func:`execute_spec`
call for the same spec — batching is a pure wall-clock optimization,
never a semantic one.
"""

import pytest

from repro.runner import canonical_json, execute_spec
from repro.runner.execute import BatchedTrialExecutor
from repro.runner.spec import (
    CampaignTrialSpec,
    CrashTrialSpec,
    ExperimentSpec,
    NemesisTrialSpec,
    OpenLoopSpec,
)


def campaign(trial, **overrides):
    config = dict(
        layout="pddl",
        disks=13,
        trial=trial,
        seed=5,
        mttf_hours=0.03,
        faults=2,
        degraded_dwell_ms=4000.0,
        rebuild_rows=26,
    )
    config.update(overrides)
    return CampaignTrialSpec(**config)


def mixed_batch():
    return [
        campaign(0),
        campaign(1, clients=2, size_kb=8),
        campaign(2, oracle=True),
        CrashTrialSpec(layout="pddl", crash_boundary=150),
        NemesisTrialSpec(layout="pddl", seed=11, trial=4, max_samples=60),
        OpenLoopSpec(layout="pddl", rate_per_s=300.0, arrivals=60),
        campaign(3),
    ]


class TestByteIdentity:
    def test_batched_records_match_serial_exactly(self):
        specs = mixed_batch()
        serial = [execute_spec(spec) for spec in specs]
        batched = BatchedTrialExecutor().run(specs)
        assert canonical_json(batched) == canonical_json(serial)

    def test_order_and_grouping_are_irrelevant(self):
        # A second executor seeing the same specs in a different order
        # (different layout-cache hit pattern) produces the same bytes.
        specs = mixed_batch()
        forward = BatchedTrialExecutor().run(specs)
        backward = BatchedTrialExecutor().run(list(reversed(specs)))
        by_hash = {r["spec_hash"]: r for r in backward}
        for record in forward:
            assert canonical_json(record) == canonical_json(
                by_hash[record["spec_hash"]]
            )


class TestAmortization:
    def test_layout_is_built_once_per_shape(self):
        executor = BatchedTrialExecutor()
        first = executor.shared_layout(campaign(0))
        again = executor.shared_layout(campaign(7))
        assert first is again  # cache hit: same (layout, disks, width)
        other = executor.shared_layout(
            CrashTrialSpec(layout="pddl", crash_boundary=150)
        )
        # Different shape (crash trials default to other dimensions) or
        # same — either way the cache keys on the shape, not the kind.
        key_kinds = {
            (spec.layout, spec.disks, spec.width)
            for spec in (campaign(0), campaign(7))
        }
        assert len(key_kinds) == 1
        assert other is executor.shared_layout(
            CrashTrialSpec(layout="pddl", crash_boundary=90)
        )

    def test_counters_accumulate(self):
        specs = [campaign(trial) for trial in range(3)]
        executor = BatchedTrialExecutor()
        executor.run(specs)
        assert executor.trials_executed == 3
        assert executor.events_processed > 0

    @pytest.mark.parametrize(
        "specs, key",
        [
            (
                [
                    NemesisTrialSpec(
                        layout="pddl", seed=11, trial=t, max_samples=60
                    )
                    for t in range(3)
                ],
                "nemesis_trial",
            ),
            (
                [
                    OpenLoopSpec(
                        layout="pddl", rate_per_s=300.0, arrivals=60, seed=s
                    )
                    for s in range(3)
                ],
                "openloop",
            ),
        ],
        ids=["nemesis", "openloop"],
    )
    def test_events_tally_covers_instrumented_kinds(self, specs, key):
        # Non-campaign trials report their engine events inside the
        # record's nested instrumentation block; the tally is their sum.
        executor = BatchedTrialExecutor()
        records = executor.run(specs)
        events = [
            r[key]["instrumentation"]["engine"]["events_processed"]
            for r in records
        ]
        assert all(count > 0 for count in events)
        assert executor.events_processed == sum(events)

    def test_non_batchable_kinds_fall_through(self):
        spec = ExperimentSpec(
            layout="pddl", size_kb=96, clients=8, max_samples=10
        )
        executor = BatchedTrialExecutor()
        record = executor.execute(spec)
        assert canonical_json(record) == canonical_json(execute_spec(spec))
        assert executor.trials_executed == 0  # only batched kinds count
        assert not executor._layouts


class TestWorkerParity:
    @pytest.mark.parametrize("workers", [2])
    def test_hardened_pool_matches_serial(self, workers):
        from repro.runner.workers import run_hardened

        specs = [campaign(trial) for trial in range(4)]
        serial = [execute_spec(spec) for spec in specs]
        pooled = run_hardened(specs, workers=workers)
        assert canonical_json(pooled) == canonical_json(serial)
