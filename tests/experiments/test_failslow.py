"""Fail-slow defense trials: mechanics, layout contrast, determinism."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.failslow import (
    failslow_specs,
    run_failslow_trial,
    summarize_failslow,
)
from repro.runner import (
    FailSlowTrialSpec,
    ParallelRunner,
    canonical_json,
    execute_spec,
)

# Small-but-meaningful knobs: a short rebuild keeps test trials fast
# while still overlapping the whole traffic window.
QUICK = dict(arrivals=150, rebuild_rows=60)


def quick(layout: str = "pddl", **fields) -> FailSlowTrialSpec:
    return FailSlowTrialSpec(layout=layout, **QUICK, **fields)


class TestTrialMechanics:
    def test_trial_accounts_every_arrival(self):
        record = run_failslow_trial(quick())
        assert record["offered"] == 150
        assert record["completed"] + record["shed"] == 150
        assert record["truncated"] is False
        assert record["rebuild"]["finished"] is True
        assert record["failslow"]["applications"] > 0
        json.dumps(record)  # the record must be JSON-able as-is

    def test_defense_keys_are_gated(self):
        none = run_failslow_trial(quick(defense="none"))
        assert "hedging" not in none
        assert "adaptive" not in none
        hedge = run_failslow_trial(quick(defense="hedge"))
        assert "hedging" in hedge and "adaptive" not in hedge
        adaptive = run_failslow_trial(quick(defense="adaptive"))
        assert "adaptive" in adaptive and "hedging" not in adaptive
        both = run_failslow_trial(quick(defense="both"))
        assert "hedging" in both and "adaptive" in both

    def test_hedge_accounting_balances(self):
        record = run_failslow_trial(quick(defense="hedge"))
        hedging = record["hedging"]
        assert hedging["launched"] > 0
        assert hedging["won"] + hedging["lost"] == hedging["launched"]
        assert hedging["detector"]["quarantines"] >= 1

    def test_raid5_mid_rebuild_has_no_hedge_redundancy(self):
        # Every raid5 stripe contains the failed disk; until the sweep
        # frontier passes, a hedge has nothing to read from.
        record = run_failslow_trial(quick("raid5", defense="hedge"))
        hedging = record["hedging"]
        assert hedging["aborts"] > 0
        assert hedging["aborts"] >= hedging["won"]

    def test_adaptive_reacts_to_the_foreground(self):
        record = run_failslow_trial(quick(defense="adaptive"))
        adaptive = record["adaptive"]
        assert adaptive["backoffs"] + adaptive["sprints"] > 0
        assert adaptive["peak_ms"] <= 512.0

    def test_horizon_truncates(self):
        record = run_failslow_trial(
            FailSlowTrialSpec(layout="pddl", arrivals=400, horizon_ms=500.0)
        )
        assert record["truncated"] is True

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FailSlowTrialSpec(layout="pddl", defense="prayer")
        with pytest.raises(ConfigurationError):
            FailSlowTrialSpec(layout="pddl", arrivals=0)
        with pytest.raises(ConfigurationError):
            FailSlowTrialSpec(layout="pddl", slow_disk=0, failed_disk=0)
        with pytest.raises(ConfigurationError):
            FailSlowTrialSpec(layout="pddl", slow_multiplier=1.0)
        with pytest.raises(ConfigurationError):
            FailSlowTrialSpec(layout="pddl", horizon_ms=0.0)
        with pytest.raises(ConfigurationError):
            FailSlowTrialSpec(layout="pddl", slow_disk=99)


class TestSummary:
    def test_spec_builder_covers_the_grid(self):
        specs = failslow_specs(["pddl", "raid5"])
        assert len(specs) == 8
        assert {s.kind for s in specs} == {"failslow"}
        assert {(s.layout, s.defense) for s in specs} == {
            (layout, defense)
            for layout in ("pddl", "raid5")
            for defense in ("none", "hedge", "adaptive", "both")
        }

    def test_summary_contrasts_defenses(self):
        records = [
            run_failslow_trial(quick(defense=defense))
            for defense in ("none", "hedge", "adaptive")
        ]
        summary = summarize_failslow(records)
        assert summary["trials"] == 3
        hedging = summary["hedging"]["pddl"]
        assert hedging["launched"] > 0
        assert hedging["win_rate"] is not None
        adaptive = summary["adaptive"]["pddl"]
        assert adaptive["rebuild_inflation"] is not None
        assert adaptive["backoffs"] >= 0


class TestRunnerIntegration:
    def test_execute_spec_wraps_the_trial(self):
        spec = FailSlowTrialSpec(layout="pddl", **QUICK)
        record = execute_spec(spec)
        assert record["kind"] == "failslow"
        trial = record["failslow"]
        assert trial["completed"] + trial["shed"] == 150
        assert record["spec"]["layout"] == "pddl"

    def test_serial_vs_parallel_byte_identity(self):
        specs = failslow_specs(["raid5", "pddl"], **QUICK)
        serial = ParallelRunner(workers=1).run(specs)
        parallel = ParallelRunner(workers=4).run(specs)
        assert serial.executed == parallel.executed == len(specs)
        assert canonical_json(serial.records) == canonical_json(
            parallel.records
        )

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FailSlowTrialSpec(layout="pddl", defense="hope")
        with pytest.raises(ConfigurationError):
            FailSlowTrialSpec(layout="pddl", rate_per_s=0.0)
        with pytest.raises(ConfigurationError):
            FailSlowTrialSpec(layout="pddl", slow_disk=0)
        with pytest.raises(ConfigurationError):
            FailSlowTrialSpec(layout="pddl", slow_multiplier=0.5)
        with pytest.raises(ConfigurationError):
            FailSlowTrialSpec(layout="pddl", hedge_deferral_ms=0.0)
        with pytest.raises(ConfigurationError):
            FailSlowTrialSpec(
                layout="pddl", slo_p99_ms=300.0, slo_p999_ms=100.0
            )
