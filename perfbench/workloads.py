"""The three benchmark workloads and the seeded inputs each one feeds the service.

Every input is a pure function of ``(workload, seed)``: the scenario and
its ingestion stream come from ``repro.service.loadgen`` exactly as
``rit loadgen`` builds them, and the ``paced`` arrival schedule is drawn
from a third child of the same seed.  The service itself only ever sees
the generated events.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.rng import spawn_seeds
from repro.core.types import Job
from repro.service.events import ServiceEvent
from repro.service.loadgen import build_scenario, scenario_event_stream

__all__ = ["Workload", "WORKLOADS", "Inputs", "build_inputs", "tiny"]

#: Job shape shared by every workload (the ``rit loadgen`` defaults).
TYPES = 4
TASKS_PER_TYPE = 50


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    ``rate_per_s`` set means open loop: events are offered on a seeded
    Poisson schedule at that mean rate, each event's ``tick`` is its
    scheduled arrival in ms, and epochs close on ``epoch_max_ticks``.
    Unset means closed loop: the producer awaits queue space, so the run
    measures how fast the service drains the stream.
    """

    name: str
    users: int
    epoch_max_events: int
    withdraw_fraction: float = 0.0
    epoch_max_ticks: Optional[int] = None
    rate_per_s: Optional[float] = None
    queue_size: int = 1024

    @property
    def paced(self) -> bool:
        return self.rate_per_s is not None


WORKLOADS = {
    # Inserts only, ~100k events in ~25 count-closed epochs, each pricing
    # the whole cumulative population: per-epoch overhead (snapshot,
    # store build, join, telemetry, ledger) dominates.
    "growth": Workload("growth", users=50_000, epoch_max_events=4096),
    # 20% of the joined users withdraw after the joins: the state layer's
    # withdrawal graft dominates, beside growth's inserts.  2048-event
    # epochs (28 per pass, not 7 at 8192) shrink the share of the
    # memory-bound scan, the part most shaken by a noisy host, while it
    # still dominates.
    "churn": Workload(
        "churn", users=26_000, epoch_max_events=2048, withdraw_fraction=0.2
    ),
    # Open loop well below drain capacity, >100 tick-closed epochs: the
    # only workload whose latency percentiles have a real tail.
    "paced": Workload(
        "paced",
        users=10_500,
        epoch_max_events=1 << 20,
        epoch_max_ticks=150,
        rate_per_s=1000.0,
    ),
}


def tiny(workload: Workload) -> Workload:
    """A seconds-long shape of ``workload`` with the same structure (tests)."""
    if workload.paced:
        return dataclasses.replace(
            workload, users=300, epoch_max_ticks=20, rate_per_s=4000.0
        )
    return dataclasses.replace(
        workload, users=400, epoch_max_events=workload.epoch_max_events // 40
    )


@dataclass
class Inputs:
    """What one workload run feeds the service.

    The scenario's social graph and population are dropped once the
    stream is built: the service never sees them, and keeping them alive
    would only lengthen the garbage collector's pauses inside the passes.
    """

    workload: Workload
    job: Job
    events: List[ServiceEvent]


def build_inputs(workload: Workload, seed: int) -> Inputs:
    """The job and event stream of ``workload`` under ``seed``."""
    scenario_seed, stream_seed, schedule_seed = spawn_seeds(seed, 3)
    scenario = build_scenario(
        workload.users, TYPES, TASKS_PER_TYPE, scenario_seed, graph="twitter"
    )
    events = scenario_event_stream(
        scenario, stream_seed, withdraw_fraction=workload.withdraw_fraction
    )
    if workload.rate_per_s is not None:
        gaps_ms = np.random.default_rng(schedule_seed).exponential(
            1000.0 / workload.rate_per_s, size=len(events)
        )
        ticks = np.floor(np.cumsum(gaps_ms)).astype(np.int64).tolist()
        events = [
            dataclasses.replace(event, tick=tick)
            for event, tick in zip(events, ticks)
        ]
    return Inputs(workload, scenario.job, events)
