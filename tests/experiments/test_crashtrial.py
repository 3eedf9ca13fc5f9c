"""Tests for crash/recovery trials (the ``repro crash`` experiment)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.crashtrial import (
    crash_specs,
    run_crash_trial,
    summarize_crash,
)
from repro.runner import canonical_json
from repro.runner.spec import CrashTrialSpec

QUICK = dict(clients=2, seed=1, crash_boundary=30, max_pre_samples=60,
             post_samples=10)


def quick(**fields) -> CrashTrialSpec:
    return CrashTrialSpec(layout="pddl", **QUICK, **fields)


class TestOutcomes:
    def test_journaled_crash_recovers_by_replaying_the_dirty_set(self):
        record = run_crash_trial(quick())
        assert record["classification"] == "recovered"
        assert record["crash"]["fired"]
        resync = record["resync"]
        # The replayed dirty set covers the omniscient torn set (dirty
        # ⊇ torn: journal marks clear only at plan completion), and
        # every swept stripe was accounted recompute or skip.
        assert resync["stripes_swept"] >= len(
            record["crash"]["torn_stripes"]
        )
        assert resync["recomputed"] + resync["parity_lost_skipped"] <= (
            resync["stripes_swept"]
        )
        assert record["resync_ms"] > 0
        assert record["oracle"]["corruption_events"] == 0
        assert record["oracle"]["suspect_stripes"] == 0
        assert record["post"]["samples"] == 10

    def test_journal_off_full_sweep_is_the_expensive_baseline(self):
        journaled = run_crash_trial(quick())
        swept = run_crash_trial(quick(journal=False))
        assert swept["classification"] == "recovered"
        assert swept["journal_latency_ms"] is None
        # Same crash, same consistency outcome — wildly more work.
        assert (
            swept["resync"]["recomputed"]
            > 3 * journaled["resync"]["recomputed"]
        )
        assert swept["resync_ms"] > journaled["resync_ms"]
        assert swept["oracle"]["corruption_events"] == 0

    def test_crash_while_degraded_hits_the_write_hole(self):
        record = run_crash_trial(
            CrashTrialSpec(
                layout="raid5", disks=5, width=5, clients=4, seed=3,
                crash_boundary=40, fail_disk_at_ms=5.0, failed_disk=2,
                max_pre_samples=120, post_samples=10,
            )
        )
        assert record["degraded"]
        assert record["classification"] == "data_loss"
        assert "write hole" in record["loss_reason"]
        # No post-crash clients run against a lost array.
        assert record["post"]["samples"] == 0

    def test_boundary_past_the_workload_is_no_crash(self):
        record = run_crash_trial(
            CrashTrialSpec(
                layout="pddl", clients=1, seed=0, crash_boundary=100000,
                max_pre_samples=30, post_samples=5,
            )
        )
        assert record["classification"] == "no_crash"
        assert not record["crash"]["fired"]
        assert record["resync"] is None

    def test_transient_errors_ride_along_and_are_recovered(self):
        record = run_crash_trial(
            CrashTrialSpec(
                layout="pddl", transient_io_rate=0.05, clients=2, seed=2,
                crash_boundary=30, max_pre_samples=60, post_samples=10,
            )
        )
        assert record["classification"] == "recovered"
        recovery = record["io_recovery"]
        assert recovery["transient_failures"] > 0
        assert recovery["retries"] > 0
        assert record["oracle"]["corruption_events"] == 0

    def test_io_recovery_key_only_appears_when_enabled(self):
        # Byte-determinism: inactive features add no record keys.
        record = run_crash_trial(quick())
        assert "io_recovery" not in record

    def test_trials_are_deterministic(self):
        first = run_crash_trial(quick())
        second = run_crash_trial(quick())
        assert canonical_json(first) == canonical_json(second)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            CrashTrialSpec(layout="pddl", clients=0, crash_boundary=30)


class TestJournalLatency:
    """NVRAM append cost in the response-time curves.

    Sub-millisecond appends are *absorbed* by rotation: the delayed
    submission still completes in the same rotational slot, so the
    response curve is flat until the append cost rivals the rotational
    granularity (see EXPERIMENTS.md).  At >= 2 ms per append the shift
    must be visible.
    """

    ARGS = dict(clients=1, seed=0, crash_boundary=100,
                max_pre_samples=150, post_samples=10)

    def test_submillisecond_append_is_rotationally_absorbed(self):
        baseline = run_crash_trial(
            CrashTrialSpec(layout="pddl", journal=False, **self.ARGS)
        )
        journaled = run_crash_trial(
            CrashTrialSpec(
                layout="pddl", journal_latency_ms=0.05, **self.ARGS
            )
        )
        assert journaled["pre"]["mean_ms"] == pytest.approx(
            baseline["pre"]["mean_ms"], abs=0.5
        )

    def test_slow_nvram_is_visible_in_the_curve(self):
        baseline = run_crash_trial(
            CrashTrialSpec(layout="pddl", journal=False, **self.ARGS)
        )
        slow = run_crash_trial(
            CrashTrialSpec(layout="pddl", journal_latency_ms=5.0, **self.ARGS)
        )
        assert (
            slow["pre"]["mean_ms"] - baseline["pre"]["mean_ms"] > 2.0
        )


class TestSweepAndSummary:
    def test_crash_specs_sweep_shape(self):
        specs = crash_specs(client_counts=[2, 4])
        assert len(specs) == 4  # 1 layout x 2 client counts x journal 2
        assert {s.journal for s in specs} == {True, False}
        assert all(s.crash_boundary < s.max_pre_samples for s in specs)

    def test_summarize_requires_records(self):
        with pytest.raises(ConfigurationError):
            summarize_crash([])

    def test_summary_speedup(self):
        records = [
            run_crash_trial(quick()),
            run_crash_trial(quick(journal=False)),
        ]
        summary = summarize_crash(records)
        assert summary["trials"] == 2
        assert summary["corruption_events"] == 0
        assert summary["data_loss_trials"] == 0
        assert summary["resync_speedup"] > 1.0
        assert (
            summary["stripes_recomputed_full_sweep"]
            > summary["stripes_recomputed_journal"]
        )
