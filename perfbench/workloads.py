"""The benchmark's workloads: seeded spec streams, output checks and
simulated-time sample capture.

A workload is an endless stream of specs derived from the benchmark
seed; the program under test only ever sees the generated specs.  The
first ``measured`` specs of the stream are the fixed pass the
simulated-time metrics are computed from, so those metrics depend on
the seed alone and never on how fast the host ran.  Later specs only
add host-time samples.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.array.controller import ArrayController
from repro.runner.execute import canonical_json
from repro.runner.spec import ExperimentSpec, NemesisTrialSpec, OpenLoopSpec

#: Campaign convention for disjoint per-spec seed streams.
SEED_STRIDE = 1_000_003

CLOSED_READ_LAYOUTS = ("pddl", "raid5", "parity-declustering")
CLOSED_READ_SAMPLES = 200

#: Offered rates (accesses/s) that a rebuilding array absorbs with no
#: shedding and no horizon stop, per layout.
REBUILD_WRITE_RATES = {"pddl": 100.0, "raid5": 60.0}
#: Two pddl specs per raid5 spec.  The layouts' specs cost different host
#: times; with an even mix the per-spec median would fall in the gap
#: between the two clusters and jump between them from run to run.
REBUILD_WRITE_ROTATION = ("pddl", "raid5", "pddl")
REBUILD_WRITE_ARRIVALS = 400

#: Nemesis outcomes that are not a failure (``silent_corruption`` is).
NEMESIS_OUTCOMES = ("survived", "data_loss")


def closed_read_spec(seed: int, index: int) -> ExperimentSpec:
    return ExperimentSpec(
        layout=CLOSED_READ_LAYOUTS[index % len(CLOSED_READ_LAYOUTS)],
        size_kb=96,
        clients=8,
        max_samples=CLOSED_READ_SAMPLES,
        use_stopping_rule=False,
        seed=seed * SEED_STRIDE + index,
    )


def rebuild_write_spec(seed: int, index: int) -> OpenLoopSpec:
    layout = REBUILD_WRITE_ROTATION[index % len(REBUILD_WRITE_ROTATION)]
    return OpenLoopSpec(
        layout=layout,
        rate_per_s=REBUILD_WRITE_RATES[layout],
        phase="rebuild",
        is_write=True,
        size_kb=8,
        arrivals=REBUILD_WRITE_ARRIVALS,
        seed=seed * SEED_STRIDE + index,
    )


def nemesis_spec(seed: int, index: int) -> NemesisTrialSpec:
    # A per-trial seed, not one campaign seed: the trial's client access
    # pattern derives from the spec seed alone, so a shared seed would
    # replay one access pattern in every trial of a run.
    return NemesisTrialSpec(
        layout="pddl", trial=index, seed=seed * SEED_STRIDE + index
    )


def check_closed_read(record: dict) -> List[str]:
    samples = record["point"]["samples"]
    wanted = record["spec"]["max_samples"]
    if samples != wanted:
        return [f"samples {samples} != max_samples {wanted}"]
    return []


def check_rebuild_write(record: dict) -> List[str]:
    run = record["openloop"]
    problems = []
    if run["offered"] != run["completed"] + run["shed"]:
        problems.append(
            f"offered {run['offered']} != completed {run['completed']}"
            f" + shed {run['shed']}"
        )
    if run["offered"] != record["spec"]["arrivals"]:
        problems.append(
            f"offered {run['offered']} != arrivals"
            f" {record['spec']['arrivals']}"
        )
    if run["truncated"]:
        problems.append("trial truncated at the horizon")
    return problems


def check_nemesis(record: dict) -> List[str]:
    trial = record["nemesis_trial"]
    problems = []
    if trial["classification"] not in NEMESIS_OUTCOMES:
        problems.append(f"unknown classification {trial['classification']!r}")
    events = trial["oracle"]["corruption_events"]
    if events != 0:
        problems.append(f"oracle reports {events} corruption event(s)")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    make_spec: Callable[[int, int], object]
    check: Callable[[dict], List[str]]
    #: Specs per layout rotation (the set-up probe builds one of each).
    rotation: int
    #: Size of the fixed pass the simulated-time metrics come from.
    measured: int
    #: Specs in the traced run (and its untraced twin).
    traced: int
    #: Harness modules a first spec would otherwise import lazily.
    harness_modules: Tuple[str, ...]

    def specs(self, seed: int, count: int) -> list:
        return [self.make_spec(seed, i) for i in range(count)]


#: Why each workload was chosen, and which layers it bypasses: NOTES.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="closed-read",
            make_spec=closed_read_spec,
            check=check_closed_read,
            rotation=len(CLOSED_READ_LAYOUTS),
            measured=150,
            traced=12,
            harness_modules=("repro.experiments.response",),
        ),
        Workload(
            name="rebuild-write",
            make_spec=rebuild_write_spec,
            check=check_rebuild_write,
            rotation=len(REBUILD_WRITE_ROTATION),
            measured=120,
            traced=12,
            harness_modules=("repro.experiments.openloop",),
        ),
        Workload(
            name="nemesis-trials",
            make_spec=nemesis_spec,
            check=check_nemesis,
            rotation=1,
            measured=200,
            traced=40,
            harness_modules=("repro.experiments.nemesistrial",),
        ),
    )
}


def record_digest(record: dict) -> str:
    """SHA-256 of a record's canonical JSON (the runner's byte contract)."""
    return hashlib.sha256(canonical_json([record]).encode()).hexdigest()


def record_counts(record: dict) -> dict:
    """Event/access/operation counts from a record's instrumentation block.

    Every trial kind carries the block; the executor's own
    ``events_processed`` tally only sees campaign trials.
    """
    block = record.get("instrumentation")
    if block is None:
        block = next(
            value["instrumentation"]
            for value in record.values()
            if isinstance(value, dict) and "instrumentation" in value
        )
    return {
        "events": block["engine"]["events_processed"],
        "pending_high_water": block["engine"]["heap_high_water"],
        "accesses": block["completed_accesses"],
        "disk_ops": sum(d["operations"] for d in block["disks"]),
        "queue_high_water": block["max_queue_high_water"],
    }


def rebuild_steps(record: dict) -> int:
    """Reconstruction steps a record reports (0 for fault-free kinds)."""
    if "openloop" in record:
        return record["openloop"].get("rebuild", {}).get("steps", 0)
    rebuild = record.get("nemesis_trial", {}).get("rebuild")
    return rebuild["steps_completed"] if rebuild else 0


class ResponseCapture:
    """Collects the simulated response time of every logical access.

    Records store bucketed histograms at best (nemesis records store
    none), so the exact per-access response times come from a thin
    wrapper on :meth:`ArrayController.submit`'s completion callback.  The
    wrapper only observes: the callback it wraps sees the same arguments
    at the same simulated time.  ``__wrapped__`` lets the tracer label
    the span by the original callback's module.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._original = None

    def install(self) -> None:
        original = ArrayController.__dict__["submit"]
        append = self.samples.append

        def submit(controller, access, on_complete, *args, **kwargs):
            def observed(done, response_ms):
                append(response_ms)
                on_complete(done, response_ms)

            observed.__wrapped__ = on_complete
            return original(controller, access, observed, *args, **kwargs)

        self._original = original
        ArrayController.submit = submit

    def uninstall(self) -> None:
        if self._original is not None:
            ArrayController.submit = self._original
            self._original = None

    def take(self) -> List[float]:
        taken = list(self.samples)
        self.samples.clear()
        return taken
