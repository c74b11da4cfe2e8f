"""Timing wrappers around each service layer's entry points (traced runs only).

:class:`LayerProbe` patches names where the service looks them up, never
the code under ``src/``, and puts every original back on exit:

==============  ==========================================================
layer           entry points
==============  ==========================================================
frontend        ``IngestFrontend.offer`` / ``.put`` (producer side) and the
                ``IngestFrontend.events`` iterator (consumer side)
state           ``ServiceState.apply``, split by event kind
epochs          ``ServiceState.snapshot_asks`` / ``.snapshot_tree``
store           ``profile_arrays`` / ``pools_from_arrays`` as bound in
                ``repro.service.workers``
auction         ``RIT.run_type_shard`` (runs on the shard worker threads)
join            ``RIT.join_shards`` (tree payments included)
workers         ``run_epoch`` as bound in ``repro.service.service``
ledger          ``OutcomeLedger.append`` (runs on an executor thread)
telemetry       ``ServiceTelemetry.close_epoch``
==============  ==========================================================

Times on the event-loop thread are *self* times: a stack pauses the
enclosing layer while a nested one runs, and a coroutine is timed only
while it runs, never while it is suspended, so no two loop-thread layers
count the same instant.  Shard and ledger work runs off the loop; the
serve loop waits for it, so the slowest shard of each epoch (the critical
path) and each ledger append count towards coverage.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

import repro.service.service as service_module
import repro.service.workers as workers_module
from repro.core.rit import RIT
from repro.service.events import AskSubmitted, ReferralEdge, Withdrawal
from repro.service.frontend import IngestFrontend
from repro.service.ledger import OutcomeLedger
from repro.service.state import ServiceState
from repro.service.telemetry import ServiceTelemetry

from perfbench.passes import CLOCK

__all__ = ["LayerProbe", "array_bytes"]

#: Loop-thread layers whose self times add up towards coverage.
LOOP_LAYERS = (
    "frontend",
    "state.ask",
    "state.referral",
    "state.withdrawal",
    "epochs.snapshot",
    "store.build",
    "join",
    "workers.fanout",
    "telemetry.close_epoch",
)

_STATE_LAYER = {
    AskSubmitted: "state.ask",
    ReferralEdge: "state.referral",
    Withdrawal: "state.withdrawal",
}


def _attributes(value: Any) -> List[Any]:
    """Instance attributes of ``value``, from ``__dict__`` and ``__slots__``."""
    found = list(getattr(value, "__dict__", {}).values())
    for cls in type(value).__mro__:
        slots = vars(cls).get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if name not in ("__dict__", "__weakref__") and hasattr(value, name):
                found.append(getattr(value, name))
    return found


def array_bytes(value: Any, seen: Optional[set] = None) -> int:
    """Bytes of the numpy arrays reachable from ``value``, each counted once.

    Walks tuples, lists, dict values and the attributes of objects, so a
    dict of pools counts each pool's sorted copies, ranks and Fenwick
    arrays.
    """
    seen = set() if seen is None else seen
    if id(value) in seen:
        return 0
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (str, bytes, int, float, bool, type(None))):
        return 0
    if isinstance(value, (tuple, list)):
        return sum(array_bytes(item, seen) for item in value)
    if isinstance(value, dict):
        return sum(array_bytes(item, seen) for item in value.values())
    return sum(array_bytes(item, seen) for item in _attributes(value))


class _TimedAwaitable:
    """Awaits ``awaitable``, charging only its running segments to ``layer``."""

    __slots__ = ("_awaitable", "_probe", "_layer")

    def __init__(self, awaitable: Any, probe: "LayerProbe", layer: str) -> None:
        self._awaitable = awaitable
        self._probe = probe
        self._layer = layer

    def __await__(self):
        inner = self._awaitable.__await__()
        probe, layer = self._probe, self._layer
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            probe.enter(layer)
            try:
                if error is None:
                    yielded = inner.send(value)
                else:
                    yielded = inner.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                probe.exit()
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # relayed into the inner awaitable
                value, error = None, exc


class _TimedAsyncIterator:
    """Async iterator whose every step is charged to ``layer``."""

    def __init__(self, inner: Any, probe: "LayerProbe", layer: str) -> None:
        self._inner = inner
        self._probe = probe
        self._layer = layer

    def __aiter__(self) -> "_TimedAsyncIterator":
        return self

    def __anext__(self) -> _TimedAwaitable:
        return _TimedAwaitable(self._inner.__anext__(), self._probe, self._layer)


class LayerProbe:
    """Per-layer time and counts of one traced service pass."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LOOP_LAYERS}
        self.counts: Dict[str, int] = {
            "state.withdrawals": 0,
            "state.refused": 0,
            "epochs.closed": 0,
            "epochs.snapshot_users": 0,
            "store.bytes": 0,
            "join.payment_recipients": 0,
            "join.voided_epochs": 0,
        }
        #: ``[layer, resumed_at]`` frames of the open loop-thread layers.
        self._stack: List[List[Any]] = []
        #: (seconds, shard result) per shard, appended from worker threads.
        self.shards: List[Tuple[float, Any]] = []
        #: Slowest shard of each epoch.
        self.critical_path: List[float] = []
        #: Seconds per ledger append, appended from an executor thread.
        self.ledger_s: List[float] = []
        #: (owner, name, original) of every patched entry point.
        self._originals: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Loop-thread self-time accounting
    # ------------------------------------------------------------------ #

    def enter(self, layer: str) -> None:
        now = CLOCK()
        stack = self._stack
        if stack:
            top = stack[-1]
            self.self_s[top[0]] += now - top[1]
        stack.append([layer, now])

    def exit(self) -> None:
        now = CLOCK()
        stack = self._stack
        layer, resumed = stack.pop()
        self.self_s[layer] += now - resumed
        if stack:
            stack[-1][1] = now

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #

    def _timed(
        self,
        fn: Callable[..., Any],
        layer: Union[str, Callable[[tuple], str]],
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` charged to ``layer`` (a name, or a function of the call's args)."""
        probe = self
        name_of = layer if callable(layer) else (lambda args: layer)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            probe.enter(name_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                probe.exit()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_apply(self, args: tuple, refused: Optional[str]) -> None:
        if refused is not None:
            self.counts["state.refused"] += 1
        elif isinstance(args[1], Withdrawal):
            self.counts["state.withdrawals"] += 1

    def _after_snapshot_asks(self, args: tuple, asks: Dict) -> None:
        self.counts["epochs.closed"] += 1
        self.counts["epochs.snapshot_users"] += len(asks)

    def _after_store(self, args: tuple, built: Any) -> None:
        self.counts["store.bytes"] += array_bytes(built)

    def _after_join(self, args: tuple, outcome: Any) -> None:
        if outcome.completed:
            self.counts["join.payment_recipients"] += len(outcome.payments)
        else:
            self.counts["join.voided_epochs"] += 1

    def _wrap_shard(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        shards = self.shards

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = CLOCK()
            result = fn(*args, **kwargs)
            shards.append((CLOCK() - start, result))
            return result

        return wrapper

    def _wrap_ledger(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        spent = self.ledger_s

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                spent.append(CLOCK() - start)

        return wrapper

    def _wrap_run_epoch(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        probe = self

        async def run_epoch(*args: Any, **kwargs: Any) -> Any:
            first = len(probe.shards)
            try:
                return await _TimedAwaitable(
                    fn(*args, **kwargs), probe, "workers.fanout"
                )
            finally:
                probe.critical_path.append(
                    max((s for s, _ in probe.shards[first:]), default=0.0)
                )

        return functools.wraps(fn)(run_epoch)

    def _wrap_put(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        probe = self

        @functools.wraps(fn)
        def put(frontend: IngestFrontend, event: Any) -> _TimedAwaitable:
            return _TimedAwaitable(fn(frontend, event), probe, "frontend")

        return put

    def _wrap_events(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        probe = self

        @functools.wraps(fn)
        def events(frontend: IngestFrontend) -> _TimedAsyncIterator:
            return _TimedAsyncIterator(fn(frontend), probe, "frontend")

        return events

    def _targets(self) -> List[Tuple[Any, str, Callable[[Any], Any]]]:
        return [
            (IngestFrontend, "offer", lambda f: self._timed(f, "frontend")),
            (IngestFrontend, "put", self._wrap_put),
            (IngestFrontend, "events", self._wrap_events),
            (
                ServiceState,
                "apply",
                lambda f: self._timed(
                    f, lambda args: _STATE_LAYER[type(args[1])], self._after_apply
                ),
            ),
            (
                ServiceState,
                "snapshot_asks",
                lambda f: self._timed(
                    f, "epochs.snapshot", self._after_snapshot_asks
                ),
            ),
            (
                ServiceState,
                "snapshot_tree",
                lambda f: self._timed(f, "epochs.snapshot"),
            ),
            (
                workers_module,
                "profile_arrays",
                lambda f: self._timed(f, "store.build", self._after_store),
            ),
            (
                workers_module,
                "pools_from_arrays",
                lambda f: self._timed(f, "store.build", self._after_store),
            ),
            (RIT, "run_type_shard", self._wrap_shard),
            (
                RIT,
                "join_shards",
                lambda f: self._timed(f, "join", self._after_join),
            ),
            (service_module, "run_epoch", self._wrap_run_epoch),
            (OutcomeLedger, "append", self._wrap_ledger),
            (
                ServiceTelemetry,
                "close_epoch",
                lambda f: self._timed(f, "telemetry.close_epoch"),
            ),
        ]

    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerProbe"]:
        """Patch every entry point for the ``with`` body; always restore."""
        targets = self._targets()
        self._originals = [(owner, name, vars(owner)[name]) for owner, name, _ in targets]
        try:
            for owner, name, wrap in targets:
                setattr(owner, name, wrap(vars(owner)[name]))
            yield self
        finally:
            for owner, name, original in reversed(self._originals):
                setattr(owner, name, original)

    def leftovers(self) -> List[str]:
        """Entry points not restored to their originals (empty = clean)."""
        return [
            f"{owner.__name__}.{name} is still wrapped"
            for owner, name, original in self._originals
            if vars(owner)[name] is not original
        ]

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer figures of the traced pass whose serve wall is ``wall_s``."""
        s = self.self_s
        shard_s = [seconds for seconds, _ in self.shards]
        rounds = [r for _, shard in self.shards for r in shard.rounds]
        productive = sum(1 for r in rounds if r.num_winners > 0)
        withdrawals = self.counts["state.withdrawals"]
        attributed = (
            sum(s.values()) + sum(self.critical_path) + sum(self.ledger_s)
        )
        out: Dict[str, float] = {
            "frontend.busy_s": s["frontend"],
            "state.ask_s": s["state.ask"],
            "state.referral_s": s["state.referral"],
            "state.withdrawal_s": s["state.withdrawal"],
            "state.withdrawal_us_per_op": (
                s["state.withdrawal"] / withdrawals * 1e6 if withdrawals else 0.0
            ),
            "epochs.snapshot_s": s["epochs.snapshot"],
            "store.build_s": s["store.build"],
            "auction.shard_s": sum(shard_s),
            "auction.critical_path_s": sum(self.critical_path),
            "auction.rounds": len(rounds),
            "auction.productive_round_ratio": (
                productive / len(rounds) if rounds else 0.0
            ),
            "auction.tasks_allocated": sum(
                sum(shard.allocation.values()) for _, shard in self.shards
            ),
            "join.s": s["join"],
            "workers.fanout_s": s["workers.fanout"],
            "ledger.append_s": sum(self.ledger_s),
            "telemetry.close_epoch_s": s["telemetry.close_epoch"],
            "trace.coverage": attributed / wall_s,
            "trace.unattributed_s": wall_s - attributed,
        }
        out.update(self.counts)
        return out
