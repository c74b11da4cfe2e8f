"""One pass of a workload through the live service, and its correctness checks.

A pass builds a fresh :class:`~repro.service.service.MechanismService`
(sorted engine, per-type RNG streams, until-complete rounds, outcome
ledger on, no sentinel), feeds it the workload's events from a producer
task and runs :meth:`~repro.service.service.MechanismService.serve` to
the end of the stream.  The only probe on the untraced path is
:class:`StampedLedger`, which notes the clock after each outcome line is
written, with the process CPU time: result latency, the drain wall and
the serving CPU all end there.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.outcome import MechanismOutcome
from repro.core.rit import RIT
from repro.service.epochs import EpochBatch, EpochPolicy
from repro.service.ledger import OutcomeLedger, canonical_outcome
from repro.service.replay import differential_check, replay_outcomes
from repro.service.service import MechanismService, ServiceConfig, ServiceReport

from perfbench.workloads import Inputs

__all__ = [
    "CLOCK",
    "CPU_CLOCK",
    "StampedLedger",
    "Pass",
    "make_service",
    "run_pass",
    "replay",
    "check_pass",
    "epoch_latencies",
    "nearest_rank",
]

#: The one clock of the benchmark (the service's tracers default to it too).
CLOCK = time.perf_counter
#: CPU seconds of the whole process, shard and ledger threads included.
CPU_CLOCK = time.process_time

Replay = List[Tuple[EpochBatch, MechanismOutcome]]


class StampedLedger(OutcomeLedger):
    """The service's JSONL ledger, recording when each outcome was appended."""

    def __init__(self, root: Path, run_id: str) -> None:
        super().__init__(root, run_id)
        self.stamps: List[float] = []
        #: Process CPU seconds at each append.
        self.cpu_stamps: List[float] = []

    def append(self, batch: EpochBatch, outcome: MechanismOutcome) -> None:
        super().append(batch, outcome)
        self.stamps.append(CLOCK())
        self.cpu_stamps.append(CPU_CLOCK())


def make_mechanism() -> RIT:
    return RIT(engine="sorted", rng_policy="per-type", round_budget="until-complete")


def make_service(
    inputs: Inputs, seed: int, ledger: Optional[OutcomeLedger], *, workers: int
) -> MechanismService:
    workload = inputs.workload
    config = ServiceConfig(
        seed=seed,
        queue_size=workload.queue_size,
        epoch_max_events=workload.epoch_max_events,
        epoch_max_ticks=workload.epoch_max_ticks,
        max_workers=workers,
    )
    return MechanismService(make_mechanism(), inputs.job, config, ledger=ledger)


@dataclass
class Pass:
    """What one pass served, and when each event was due."""

    report: ServiceReport
    ledger: StampedLedger
    #: Per generated event: its scheduled arrival (paced) or the moment the
    #: producer handed it to ``put`` (closed loop).
    due: List[float]
    #: When the end of the stream was due (it closes the tail epoch).
    close_due: float
    first_offer: float
    #: Process CPU seconds when the producer started.
    cpu_start: float
    #: Paced only: offer time minus due time, per event.
    lags: List[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """First offer to the last outcome written to the ledger."""
        return self.ledger.stamps[-1] - self.first_offer

    @property
    def cpu_s(self) -> float:
        """Process CPU seconds from the producer's start to the last append."""
        return self.ledger.cpu_stamps[-1] - self.cpu_start

    @property
    def failed(self) -> int:
        report = self.report
        return report.rejected + report.invalid + report.refused


def run_pass(
    inputs: Inputs, seed: int, ledger: StampedLedger, *, workers: int
) -> Pass:
    """Serve the whole stream once; returns the pass with its timestamps."""
    service = make_service(inputs, seed, ledger, workers=workers)
    frontend = service.frontend
    events = inputs.events
    due = [0.0] * len(events)
    lags: List[float] = []
    close_due = 0.0
    cpu_start = 0.0

    async def closed_loop() -> None:
        nonlocal close_due
        for position, event in enumerate(events):
            due[position] = CLOCK()
            await frontend.put(event)
        close_due = CLOCK()
        await frontend.close()

    async def paced() -> None:
        nonlocal close_due
        start = CLOCK()
        for position, event in enumerate(events):
            due[position] = at = start + event.tick / 1000.0
            # Always yield, so a producer running late never starves the
            # consumer: the queue then absorbs only real bursts.
            await asyncio.sleep(max(0.0, at - CLOCK()))
            lags.append(CLOCK() - at)
            frontend.offer(event)
        close_due = due[-1]
        await frontend.close()

    async def main() -> ServiceReport:
        nonlocal cpu_start
        cpu_start = CPU_CLOCK()
        producer = asyncio.ensure_future(
            paced() if inputs.workload.paced else closed_loop()
        )
        try:
            return await service.serve()
        finally:
            if not producer.done():
                producer.cancel()
            try:
                await producer
            except asyncio.CancelledError:
                pass

    report = asyncio.run(main())
    first_offer = due[0] + (lags[0] if lags else 0.0)
    return Pass(report, ledger, due, close_due, first_offer, cpu_start, lags)


def replay(inputs: Inputs, seed: int, p: Pass) -> Replay:
    """Offline outcomes of the stream the pass actually consumed."""
    workload = inputs.workload
    policy = EpochPolicy(
        max_events=workload.epoch_max_events, max_ticks=workload.epoch_max_ticks
    )
    return replay_outcomes(
        p.report.consumed,
        inputs.job,
        make_mechanism(),
        seed=seed,
        policy=policy,
    )


def check_pass(p: Pass, replayed: Replay) -> List[str]:
    """Served outcomes and ledger lines against the offline replay (empty = ok)."""
    problems = differential_check(
        p.report.outcomes(), [outcome for _, outcome in replayed]
    )
    logged = [record["outcome"] for record in p.ledger.read_epochs()]
    wanted = [
        json.loads(json.dumps(canonical_outcome(outcome)))
        for _, outcome in replayed
    ]
    if logged != wanted:
        problems.append("ledger lines differ from the replayed outcomes")
    if len(p.ledger.stamps) != len(replayed):
        problems.append(
            f"{len(p.ledger.stamps)} ledger appends for {len(replayed)} epochs"
        )
    return problems


def epoch_latencies(
    inputs: Inputs, p: Pass, batches: Sequence[EpochBatch]
) -> List[float]:
    """Per epoch: ledger append time minus when its closing event was due.

    The closing event is the batch's last event when the count trigger
    fired; the first later consumed event past the tick horizon when the
    tick trigger fired; otherwise the end of the stream (the tail flush).
    """
    workload = inputs.workload
    index_of = {id(event): i for i, event in enumerate(inputs.events)}
    consumed = p.report.consumed
    position_of = (
        {id(event): i for i, event in enumerate(consumed)}
        if workload.epoch_max_ticks is not None
        else {}
    )
    latencies = []
    for batch, appended in zip(batches, p.ledger.stamps):
        closer_due = p.close_due
        if batch.num_events >= workload.epoch_max_events:
            closer_due = p.due[index_of[id(batch.events[-1])]]
        elif workload.epoch_max_ticks is not None:
            horizon = batch.first_tick + workload.epoch_max_ticks
            for j in range(position_of[id(batch.events[-1])] + 1, len(consumed)):
                if consumed[j].tick >= horizon:
                    closer_due = p.due[index_of[id(consumed[j])]]
                    break
        latencies.append(appended - closer_due)
    return latencies


def nearest_rank(samples: Sequence[float], q: float) -> Dict[str, float]:
    """Exact ``q``-th percentile by nearest rank, with its sample counts.

    ``beyond`` is how many samples rank above the percentile, so a reader
    can tell a tail estimate from a maximum.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return {
        "value": ordered[rank - 1],
        "samples": len(ordered),
        "beyond": len(ordered) - rank,
    }
