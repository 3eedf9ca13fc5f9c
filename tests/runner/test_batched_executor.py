"""BatchedTrialExecutor: amortized setup, byte-identical records.

The executor shares layout construction across a Monte-Carlo batch and
accumulates out-of-band counters; its one hard contract is that every
record it produces is byte-identical to a cold :func:`execute_spec`
call for the same spec — batching is a pure wall-clock optimization,
never a semantic one.
"""

import pytest

from repro.experiments.config import PAPER_LAYOUT_NAMES, layout_for
from repro.runner import canonical_json, execute_spec
from repro.runner.execute import BatchedTrialExecutor
from repro.runner.spec import (
    CampaignTrialSpec,
    CrashTrialSpec,
    ExperimentSpec,
    NemesisTrialSpec,
    OpenLoopSpec,
    Table1Spec,
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


def response_batch(layout):
    """Fault-free reads on one layout, merging on and off, plus one
    degraded point.  1280 KB is 160 stripe units, more than one period's
    data units on pddl (117), raid5 and parity declustering (156), so
    every such read there wraps a period cycle."""
    specs = [
        ExperimentSpec(
            layout=layout,
            size_kb=size_kb,
            clients=3,
            seed=seed,
            max_samples=24,
            warmup=4,
            coalesce=coalesce,
        )
        for coalesce in (True, False)
        for size_kb, seed in ((96, 1), (96, 2), (1280, 3))
    ]
    specs.append(
        ExperimentSpec(
            layout=layout, size_kb=96, clients=3, mode="f1",
            failed_disk=2, max_samples=24, warmup=4,
        )
    )
    return specs


class TestResponseBatching:
    def test_wrapping_size_wraps_a_cycle(self):
        for name in ("pddl", "raid5", "parity-declustering"):
            assert layout_for(name).data_units_per_period < 1280 // 8

    @pytest.mark.parametrize("layout", PAPER_LAYOUT_NAMES)
    def test_warm_templates_match_cold_records(self, layout):
        # Each spec runs twice through one executor: the second pass
        # reads every read shape from the shared layout's warm cache.
        specs = response_batch(layout)
        cold = [execute_spec(spec) for spec in specs]
        executor = BatchedTrialExecutor()
        batched = executor.run(specs + specs)
        assert canonical_json(batched) == canonical_json(cold + cold)
        assert executor.trials_executed == 2 * len(specs)
        assert len(executor._layouts) == 1
        events = sum(
            r["instrumentation"]["engine"]["events_processed"]
            for r in batched
        )
        assert executor.events_processed == events


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
        spec = Table1Spec(k=4, g=1, restarts=1, max_steps=50)
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
