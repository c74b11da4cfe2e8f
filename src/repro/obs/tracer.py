"""Run-scoped tracers: the no-op default and the recording implementation.

Two implementations share one interface:

:class:`NullTracer`
    The default everywhere.  ``enabled`` is False, every method is a
    no-op, and :attr:`~NullTracer.clock` is ``time.perf_counter`` — so
    instrumented code always reads time through ``tracer.clock`` and
    never touches ``time.*`` itself (lint rule RIT007).  Hot loops guard
    their instrumentation behind a single ``if tracer.enabled:`` check,
    keeping the disabled path free of per-event call overhead.

:class:`Tracer`
    Records spans and counters into an in-memory event list following the
    schema of :mod:`repro.obs.events`.  Spans nest strictly (LIFO); the
    current innermost open span is the parent of new spans and the owner
    of counter increments.

Design constraints:

* this module must not import anything from ``repro.core`` — the core
  mechanism layer imports *us* (``repro.core.mechanism`` holds the
  default tracer), so only stdlib is allowed here;
* misuse raises plain :class:`ValueError`, not the core error hierarchy,
  for the same reason.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

from repro.obs.events import (
    TRACE_SCHEMA_VERSION,
    config_hash,
    write_jsonl,
)
from repro.obs.metrics import bucket_boundaries, bucket_index, describe_metric

__all__ = ["Clock", "NullTracer", "Tracer", "NULL_TRACER"]

#: A monotonic clock: zero-argument callable returning seconds as float.
Clock = Callable[[], float]


class _NullSpan:
    """Context manager that does nothing; shared singleton."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager closing an already-begun span on exit."""

    __slots__ = ("_tracer", "span_id")

    def __init__(self, tracer: "Tracer", span_id: int) -> None:
        self._tracer = tracer
        self.span_id = span_id

    def __enter__(self) -> int:
        return self.span_id

    def __exit__(self, *exc: object) -> bool:
        self._tracer.end(self.span_id)
        return False


class NullTracer:
    """Do-nothing tracer; the process-wide default is :data:`NULL_TRACER`.

    Instrumented code may call any method unconditionally, but per-round
    hot paths should branch on :attr:`enabled` once and skip their whole
    instrumentation block when it is False.
    """

    enabled: bool = False
    clock: Clock = staticmethod(time.perf_counter)

    @property
    def depth(self) -> int:
        """Number of currently open spans (always 0 for the null tracer)."""
        return 0

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def run_span(self, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def begin(self, name: str, **attrs: Any) -> int:
        return -1

    def end(self, span_id: int) -> None:
        pass

    def count(self, name: str, delta: int = 1) -> None:
        pass

    def observe(
        self, name: str, value: Any, *, epoch: Optional[int] = None
    ) -> None:
        pass

    def value(self, name: str, default: Any = 0) -> Any:
        return default

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {}


#: Shared no-op tracer — the default of every instrumented entry point.
NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Recording tracer: spans + counters → an ordered JSONL event stream.

    Parameters
    ----------
    run_id:
        Caller-chosen identifier.  For replayable runs derive it from the
        seed and config hash (as ``rit trace`` does), not from wall time.
    seed:
        The run's root seed, stored in the header event.
    config:
        JSON-serializable run configuration; hashed into ``config_hash``
        so traces are diffable by ``(seed, config_hash)``.
    clock:
        Injected monotonic clock; defaults to ``time.perf_counter``.
        Timestamps are the only non-reproducible event field.
    """

    enabled = True

    def __init__(
        self,
        run_id: str,
        *,
        seed: Optional[int] = None,
        config: Optional[Mapping[str, Any]] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.run_id = run_id
        self.seed = seed
        self.config: Dict[str, Any] = dict(config or {})
        self.config_hash = config_hash(self.config)
        if clock is not None:
            self.clock = clock  # instance attr shadows the class default
        self._epoch = self.clock()
        self.events: List[Dict[str, Any]] = []
        self._counters: Dict[str, int] = {}
        self._stack: List[int] = []
        self._span_names: Dict[int, str] = {}
        self._next_span = 0
        self.events.append(
            {
                "i": 0,
                "ev": "trace",
                "t": 0.0,
                "run_id": self.run_id,
                "seed": self.seed,
                "config": self.config,
                "config_hash": self.config_hash,
                "schema_version": TRACE_SCHEMA_VERSION,
            }
        )

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #

    @property
    def depth(self) -> int:
        return len(self._stack)

    def _now(self) -> float:
        return round(self.clock() - self._epoch, 9)

    def begin(self, name: str, **attrs: Any) -> int:
        """Open a span; returns its id.  Spans close LIFO via :meth:`end`."""
        span_id = self._next_span
        self._next_span += 1
        event: Dict[str, Any] = {
            "i": len(self.events),
            "ev": "span_start",
            "t": self._now(),
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
        }
        if attrs:
            event["attrs"] = attrs
        self.events.append(event)
        self._stack.append(span_id)
        self._span_names[span_id] = name
        return span_id

    def end(self, span_id: int) -> None:
        """Close the innermost open span; it must be ``span_id``."""
        if not self._stack:
            raise ValueError(f"end({span_id}) with no open span")
        if self._stack[-1] != span_id:
            raise ValueError(
                f"span close out of order: expected {self._stack[-1]}, "
                f"got {span_id}"
            )
        self._stack.pop()
        self.events.append(
            {
                "i": len(self.events),
                "ev": "span_end",
                "t": self._now(),
                "id": span_id,
                "name": self._span_names[span_id],
            }
        )

    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        """``with tracer.span("payments"): …`` — begin now, end on exit."""
        return _SpanHandle(self, self.begin(name, **attrs))

    def run_span(self, **attrs: Any) -> Any:
        """Open the top-level ``"run"`` span — only when no span is open.

        Mechanisms call this unconditionally; when a runner already holds
        the run span, the nested call is a no-op so the hierarchy stays
        ``run → mechanism → …`` with a single root.
        """
        if self._stack:
            return _NULL_SPAN
        return self.span("run", **attrs)

    # ------------------------------------------------------------------ #
    # Counters
    # ------------------------------------------------------------------ #

    def count(self, name: str, delta: int = 1) -> None:
        """Increment a monotonic counter and record the event.

        Counters count: ``delta`` is an int, so every value is exactly
        reproducible.  Durations are spans, never counters.
        """
        value = self._counters.get(name, 0) + delta
        self._counters[name] = value
        self.events.append(
            {
                "i": len(self.events),
                "ev": "counter",
                "t": self._now(),
                "name": name,
                "unit": "count",
                "delta": delta,
                "value": value,
                "span": self._stack[-1] if self._stack else None,
            }
        )

    def observe(
        self, name: str, value: Any, *, epoch: Optional[int] = None
    ) -> None:
        """Record one histogram/gauge observation as a distribution event.

        ``name`` must resolve in the metric catalog
        (:mod:`repro.obs.metrics`): the spec supplies the unit, the fixed
        bucket boundaries (histograms only) and the volatility flag.
        Bucket indices are computed here, at record time, so merged worker
        streams stay bit-identical however they are absorbed.
        """
        spec = describe_metric(name)
        if spec is None:
            raise ValueError(f"metric {name!r} is not in METRIC_CATALOG")
        event: Dict[str, Any] = {
            "i": len(self.events),
            "ev": "distribution",
            "t": self._now(),
            "name": name,
            "unit": spec.unit,
            "value": value,
            "span": self._stack[-1] if self._stack else None,
        }
        if spec.family is not None:
            event["bucket"] = bucket_index(bucket_boundaries(spec.family), value)
        if epoch is not None:
            event["epoch"] = epoch
        if spec.volatile:
            event["vol"] = True
        self.events.append(event)

    def value(self, name: str, default: Any = 0) -> Any:
        """Current running total of a counter."""
        return self._counters.get(name, default)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Counter totals in first-increment order: name → {value, unit}."""
        return {
            name: {"value": value, "unit": "count"}
            for name, value in self._counters.items()
        }

    # ------------------------------------------------------------------ #
    # Sinks and merging
    # ------------------------------------------------------------------ #

    def write_jsonl(self, path: str) -> None:
        """Serialize the event stream (see :func:`repro.obs.events.write_jsonl`)."""
        write_jsonl(self.events, path)

    def absorb(
        self,
        events: Iterable[Mapping[str, Any]],
        *,
        rep: int,
        worker: int,
    ) -> None:
        """Merge a child trace (e.g. a worker's sink) into this stream.

        Child header events are dropped; child span ids are remapped into
        this tracer's id space; child root spans are re-parented under the
        currently open span; counter deltas are replayed into this
        tracer's totals (``value`` is rewritten to the merged running
        total).  Every absorbed event is tagged with ``rep`` (submission
        index) and ``w`` (logical worker slot) — both deterministic for a
        fixed configuration, unlike pool pids.  Child timestamps are kept
        relative to the *child's* epoch; they are volatile either way.
        """
        id_map: Dict[int, int] = {}
        ambient_parent = self._stack[-1] if self._stack else None
        for event in events:
            kind = event.get("ev")
            if kind == "trace":
                continue
            merged = dict(event)
            merged["rep"] = rep
            merged["w"] = worker
            if kind == "span_start":
                new_id = self._next_span
                self._next_span += 1
                id_map[int(merged["id"])] = new_id
                merged["id"] = new_id
                self._span_names[new_id] = str(merged["name"])
                old_parent = merged.get("parent")
                if old_parent is None:
                    merged["parent"] = ambient_parent
                else:
                    merged["parent"] = id_map[int(old_parent)]
            elif kind == "span_end":
                merged["id"] = id_map[int(merged["id"])]
            elif kind == "counter":
                name = str(merged["name"])
                value = self._counters.get(name, 0) + merged["delta"]
                self._counters[name] = value
                merged["value"] = value
                old_span = merged.get("span")
                merged["span"] = (
                    ambient_parent if old_span is None else id_map[int(old_span)]
                )
            elif kind == "distribution":
                # Bucket indices were computed in the child against the
                # shared fixed boundaries; only the owning span needs
                # remapping into this tracer's id space.
                old_span = merged.get("span")
                merged["span"] = (
                    ambient_parent if old_span is None else id_map[int(old_span)]
                )
            else:
                raise ValueError(f"cannot absorb unknown event kind {kind!r}")
            merged["i"] = len(self.events)
            self.events.append(merged)
