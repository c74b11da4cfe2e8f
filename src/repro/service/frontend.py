"""Ingestion frontend: a bounded asyncio queue with explicit backpressure.

Two admission modes, both counted on the tracer and never silent:

* :meth:`IngestFrontend.put` — *closed-loop* producers await until space
  frees up (backpressure propagates to the caller);
* :meth:`IngestFrontend.offer` — *open-loop* producers (the paced
  arrival schedule of ``perfbench/``) get an immediate verdict: the
  event is enqueued, or refused with a reason (``"invalid: …"`` for
  structural failures, ``"backpressure"`` when the queue is full).
  Rejected events are dropped *by contract*, with the rejection counter
  as the audit trail — this bounds memory under overload instead of
  growing the queue without limit.

Structural validation (:func:`repro.service.events.validate_event`) runs
at the frontend, before an event can occupy queue space; stateful
admission happens downstream in :class:`repro.service.state.ServiceState`.

When a :class:`~repro.service.telemetry.ServiceTelemetry` plane is
attached, every successful admission records its latency
(``ingest_admit_seconds``, measured on the tracer's clock) and samples
the queue occupancy (``ingest_queue_depth``); a recording tracer mirrors
both as volatile ``distribution`` events.
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator, Callable, Optional

from repro.core.exceptions import ConfigurationError
from repro.core.types import Job
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.service.events import ServiceEvent, validate_event
from repro.service.telemetry import ServiceTelemetry

__all__ = ["IngestFrontend"]

#: Queue sentinel marking end-of-stream (events are dataclasses, never None).
_CLOSE = None


class IngestFrontend:
    """Validated, bounded, observable entry point of the service."""

    def __init__(
        self,
        job: Job,
        *,
        maxsize: int = 1024,
        tracer: Optional[NullTracer] = None,
        telemetry: Optional[ServiceTelemetry] = None,
        gatekeeper: Optional[Callable[[ServiceEvent], Optional[str]]] = None,
    ) -> None:
        if maxsize <= 0:
            raise ConfigurationError(f"queue maxsize must be positive, got {maxsize}")
        self.job = job
        self.maxsize = maxsize
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.telemetry = telemetry
        #: Optional admission policy (e.g. the sentinel reputation gate):
        #: a callable returning a refusal reason, or None to admit.  Runs
        #: *before* the queue, so gated events never join the consumed
        #: stream and replay differentials stay valid by construction.
        self.gatekeeper = gatekeeper
        self._queue: "asyncio.Queue[Optional[ServiceEvent]]" = asyncio.Queue(maxsize)
        self.offered = 0
        self.accepted = 0
        self.invalid = 0
        self.rejected = 0
        self.gated = 0
        self.highwater = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #

    def _admit(self, event: ServiceEvent) -> Optional[str]:
        self.offered += 1
        if self.tracer.enabled:
            self.tracer.count("service_events_offered")
        if self._closed:
            return "closed"
        reason = validate_event(event, self.job)
        if reason is not None:
            self.invalid += 1
            if self.tracer.enabled:
                self.tracer.count("service_events_invalid")
            return f"invalid: {reason}"
        if self.gatekeeper is not None:
            reason = self.gatekeeper(event)
            if reason is not None:
                self.gated += 1
                if self.tracer.enabled:
                    self.tracer.count("service_events_gated")
                return f"gated: {reason}"
        return None

    def _note_enqueued(self) -> None:
        self.accepted += 1
        depth = self._queue.qsize()
        if depth > self.highwater:
            if self.tracer.enabled:
                self.tracer.count("service_queue_highwater", depth - self.highwater)
            self.highwater = depth
        if self.tracer.enabled:
            self.tracer.count("service_events_accepted")
        if self.telemetry is not None:
            self.telemetry.observe_queue_depth(depth)
        if self.tracer.enabled:
            self.tracer.observe("ingest_queue_depth", depth)

    def _observe_admit(self, t_start: float) -> None:
        """Record one completed admission (validate + enqueue) latency."""
        seconds = self.tracer.clock() - t_start
        if self.telemetry is not None:
            self.telemetry.observe_admit(seconds)
        if self.tracer.enabled:
            self.tracer.observe("ingest_admit_seconds", seconds)

    @property
    def _observing(self) -> bool:
        return self.telemetry is not None or self.tracer.enabled

    def offer(self, event: ServiceEvent) -> Optional[str]:
        """Non-blocking admission; returns None or a refusal reason."""
        observing = self._observing
        t_start = self.tracer.clock() if observing else 0.0
        reason = self._admit(event)
        if reason is not None:
            return reason
        try:
            self._queue.put_nowait(event)
        except asyncio.QueueFull:
            self.rejected += 1
            if self.tracer.enabled:
                self.tracer.count("service_events_rejected")
            return "backpressure"
        self._note_enqueued()
        if observing:
            self._observe_admit(t_start)
        return None

    async def put(self, event: ServiceEvent) -> Optional[str]:
        """Blocking admission: waits for queue space instead of rejecting.

        Still refuses structurally invalid events immediately (waiting
        would not make them valid).  The admission latency observed here
        includes the backpressure wait — that *is* the closed-loop
        producer's experienced latency.
        """
        observing = self._observing
        t_start = self.tracer.clock() if observing else 0.0
        reason = self._admit(event)
        if reason is not None:
            return reason
        await self._queue.put(event)
        self._note_enqueued()
        if observing:
            self._observe_admit(t_start)
        return None

    async def close(self) -> None:
        """Signal end-of-stream; the consumer drains then stops."""
        self._closed = True
        await self._queue.put(_CLOSE)

    # ------------------------------------------------------------------ #
    # Consumer side
    # ------------------------------------------------------------------ #

    @property
    def depth(self) -> int:
        """Current queue occupancy (events awaiting the scheduler)."""
        return self._queue.qsize()

    async def events(self) -> AsyncIterator[ServiceEvent]:
        """Drain the queue until the close sentinel."""
        while True:
            item = await self._queue.get()
            if item is _CLOSE:
                return
            yield item
