"""Per-type sharded auction workers and the epoch join stage.

CRA (Algorithm 1) runs independently per task type, so an epoch's auction
phase decomposes into one shard per type.  The epoch first builds its
per-type ask pools from the snapshot on the event loop
(``profile_arrays`` + ``pools_from_arrays``).  The shards are the tasks of
:meth:`repro.core.rit.RIT.shard_tasks` — the same tasks ``RIT.run``
executes in order — and each runs
:meth:`repro.core.rit.RIT.run_type_shard` on a thread-pool worker with

* its **own spawned RNG stream** — under ``rng_policy="per-type"`` every
  task carries one child ``SeedSequence`` of the epoch seed, so
  concurrent shard scheduling cannot reorder random draws;
* its **own tracer sink** — no shared mutable state crosses threads
  mid-epoch.

The join stage then absorbs shard traces in ascending type order, merges
the shards with :meth:`repro.core.rit.RIT.join_shards` (tree payments,
budget splits, voiding) and yields the epoch's
:class:`~repro.core.outcome.MechanismOutcome`.  The result is
bit-identical to one offline ``RIT.run`` over the same snapshot with the
same seed — the differential harness (:mod:`repro.service.replay`)
enforces this.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

import numpy as np

from repro.core.outcome import MechanismOutcome, TypeShardResult
from repro.core.rit import RIT, ShardTask, pools_from_arrays, profile_arrays
from repro.core.types import Job
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.service.epochs import EpochSnapshot
from repro.service.telemetry import ServiceTelemetry

__all__ = ["run_epoch"]


def _run_shard(
    mechanism: RIT, task: ShardTask, shard_tracer: NullTracer
) -> Tuple[TypeShardResult, float]:
    """Thread-pool body: one type's CRA loop against a private sink.

    Returns the shard result plus its wall time on this worker (measured
    on the tracer's clock).  The duration is *observed* back on the event
    loop when the future is awaited, keeping the telemetry plane
    single-writer.
    """
    shard_mech = mechanism.with_tracer(shard_tracer)
    sid = -1
    t_start = shard_tracer.clock()
    if shard_tracer.enabled:
        sid = shard_tracer.begin("shard", task_type=int(task[0]), m_i=task[1])
    try:
        result = shard_mech.run_type_shard(*task)
    finally:
        if shard_tracer.enabled:
            shard_tracer.end(sid)
    return result, shard_tracer.clock() - t_start


async def run_epoch(
    mechanism: RIT,
    job: Job,
    snapshot: EpochSnapshot,
    seed: np.random.SeedSequence,
    *,
    executor: ThreadPoolExecutor,
    telemetry: Optional[ServiceTelemetry] = None,
) -> MechanismOutcome:
    """Execute one epoch's auction over a frozen snapshot.

    Every task type runs concurrently on the executor; the outcome equals
    one ``RIT.run`` over the snapshot because ``rng_policy="per-type"``
    decouples the per-type streams.
    """
    tracer = mechanism.tracer
    tracing = tracer.enabled
    clock = tracer.clock
    loop = asyncio.get_running_loop()
    epoch_sid = -1
    if tracing:
        epoch_sid = tracer.begin(
            "epoch",
            epoch=snapshot.batch.index,
            batch_events=snapshot.batch.num_events,
            users=len(snapshot.asks),
            first_tick=snapshot.batch.first_tick,
            last_tick=snapshot.batch.last_tick,
        )
        tracer.count("service_epochs_closed")
    try:
        t_start = clock()
        asks = snapshot.asks
        tasks: List[ShardTask] = []
        if asks:
            # Looked up in this module's globals on every epoch, so a
            # caller can wrap them to time the per-epoch pool build.
            uid_arr, type_arr, val_arr, cap_arr = profile_arrays(asks)
            k_max = int(cap_arr.max())
            pool_of = pools_from_arrays(
                uid_arr, type_arr, val_arr, cap_arr
            ).get
            tasks = mechanism.shard_tasks(job, pool_of, k_max, seed)

        pending: List[Tuple[int, NullTracer, "asyncio.Future[Tuple[TypeShardResult, float]]"]] = []
        for task in tasks:
            tau = task[0]
            shard_tracer: NullTracer = NULL_TRACER
            if tracing:
                shard_tracer = Tracer(
                    f"epoch{snapshot.batch.index}-shard{tau}", clock=clock
                )
            future = loop.run_in_executor(
                executor,
                functools.partial(_run_shard, mechanism, task, shard_tracer),
            )
            pending.append((tau, shard_tracer, future))

        shards: List[TypeShardResult] = []
        # Await and absorb in ascending type order: shard *execution* is
        # concurrent, but the merged trace and the shard list are built
        # deterministically regardless of completion order.
        for tau, shard_tracer, future in pending:
            shard_result, shard_seconds = await future
            shards.append(shard_result)
            if telemetry is not None:
                telemetry.observe_shard(shard_seconds)
            if tracing:
                tracer.absorb(
                    shard_tracer.events, rep=snapshot.batch.index, worker=tau
                )
                tracer.count("service_shards_run")
                tracer.observe(
                    "shard_run_seconds", shard_seconds, epoch=snapshot.batch.index
                )
        t_auction = clock()

        join_sid = -1
        if tracing:
            join_sid = tracer.begin("join", epoch=snapshot.batch.index, shards=len(shards))
        try:
            outcome = mechanism.join_shards(
                job,
                asks,
                snapshot.tree,
                shards,
                started_at=t_start,
                auction_ended_at=t_auction,
            )
        finally:
            if tracing:
                tracer.end(join_sid)
        return outcome
    finally:
        if tracing:
            tracer.end(epoch_sid)
