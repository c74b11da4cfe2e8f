"""Incremental sorted auction engine — the RIT/CRA hot path.

The reference implementation of RIT's auction phase re-materializes the
per-type unit-ask pool (``np.repeat``) and re-runs a full stable
``argsort`` over all units *every CRA round*, making the phase
``O(rounds · U log U)`` in the number of unit asks ``U``.  This module
restores the paper's ``O(N·|J|)`` shape by doing the expensive work once:

* each :class:`SortedTypePool` sorts its participants by ask value **once**
  at construction (stable, preserving the user-id tie-break order that
  CRA's correctness depends on — see :mod:`repro.core.cra`);
* remaining capacities are maintained across rounds in a
  :class:`~repro.core.fenwick.FenwickTree` over the sorted order, so the
  supply count ``z_s`` is a ``searchsorted`` plus an ``O(log N)`` prefix
  sum, and the smallest-``n_s`` selection is a prefix walk of alive sorted
  units instead of a fresh ``argsort``.

This is ``RIT(engine="sorted")``, the default and only fast engine;
``engine="reference"`` keeps the per-round rebuild as the oracle it is
differentially tested against.

RNG-compatibility contract
--------------------------
:func:`cra_presorted` consumes the *bit-identical* random stream of the
reference :func:`repro.core.cra.cra` run over
``np.repeat(values, remaining)``: the grid offset first, then one uniform
per alive unit in the original (user-id) order, then — on the same
branches — the Bernoulli keep draws over the ``n_s`` smallest units and
the winner subsample.  Differential tests
(``tests/core/test_engine.py``) assert that every :class:`CRAResult`
field matches the reference exactly, seed by seed.

Stage spans
-----------
With an enabled tracer, every round opens ``sample`` (Algorithm 1 lines
2-4), ``consensus`` (line 5) and ``select`` (lines 6-19) spans, and
:meth:`repro.core.rit.RIT.run_type_shard` wraps the capacity update in a
``consume`` span — :data:`STAGE_NAMES`.  The tracer is the only clock
(lint rule RIT007); ``rit bench`` totals these spans by name
(:func:`repro.obs.span_seconds`) for its ``stages`` block.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core import consensus
from repro.core.cra import CRAResult, _empty_result
from repro.core.exceptions import ConfigurationError, ModelError
from repro.core.fenwick import FenwickTree
from repro.core.rng import SeedLike, as_generator
from repro.obs.tracer import NullTracer

__all__ = ["STAGE_NAMES", "SortedTypePool", "cra_presorted"]

#: The sorted engine's per-round stage spans, in pipeline order.
STAGE_NAMES = ("sample", "consensus", "select", "consume")


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + c)`` per ``(s, c)`` pair, vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    reps = np.repeat(np.arange(counts.shape[0]), counts)
    offsets = np.cumsum(counts) - counts
    return starts[reps] + (np.arange(total, dtype=np.int64) - offsets[reps])


class SortedTypePool:
    """Per-type ask pool: sorted once, capacity state maintained per round.

    Equivalent to re-running :func:`repro.core.extract.extract` with the
    current remaining capacities each round, but the only per-round
    ``O(N)`` work is a cumulative sum of the per-user remaining counts —
    everything value-ordered is resolved against the construction-time
    sort.

    The *unit pool* of a round is the virtual array
    ``np.repeat(values, remaining)`` (original user order); per-round unit
    indices used by :func:`cra_presorted` and :meth:`unit_owners` index
    into it.  Consuming a unit shrinks the pool, so unit indices are only
    meaningful within the round that produced them.
    """

    __slots__ = (
        "uids",
        "values",
        "remaining",
        "_index",
        "_sorted_users",
        "_sorted_values",
        "_rank",
        "_fenwick",
    )

    def __init__(
        self, uids: np.ndarray, values: np.ndarray, capacities: np.ndarray
    ) -> None:
        self.uids = np.asarray(uids, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.remaining = np.asarray(capacities, dtype=np.int64).copy()
        if not self.uids.shape == self.values.shape == self.remaining.shape:
            raise ConfigurationError(
                "uids, values and capacities must have identical shapes"
            )
        if self.remaining.size and self.remaining.min() < 0:
            raise ConfigurationError("capacities must be non-negative")
        self._index: Optional[Dict[int, int]] = None  # built lazily
        # Stable sort by ask value; ties stay in original (user-id) order,
        # matching the stable unit-level argsort of the reference CRA.
        order = np.argsort(self.values, kind="stable")
        self._sorted_users = order
        self._sorted_values = self.values[order]
        rank = np.empty(order.shape[0], dtype=np.int64)
        rank[order] = np.arange(order.shape[0])
        self._rank = rank
        self._fenwick = FenwickTree(self.remaining[order])

    # ------------------------------------------------------------------ #
    # Capacity state
    # ------------------------------------------------------------------ #

    def total_remaining(self) -> int:
        """Alive units across all participants (``O(1)``)."""
        return self._fenwick.total

    def _position_of(self, uid: int) -> int:
        if self._index is None:
            self._index = {int(u): i for i, u in enumerate(self.uids)}
        return self._index[uid]

    def consume(self, uid: int) -> None:
        """Consume one unit of ``uid``'s capacity (a task was won)."""
        i = self._position_of(uid)
        if self.remaining[i] <= 0:  # pragma: no cover - internal invariant
            raise ModelError(f"user {uid} has no remaining capacity")
        self.remaining[i] -= 1
        self._fenwick.add(int(self._rank[i]), -1)

    def consume_many(self, uids: np.ndarray) -> None:
        """Consume one unit per entry of ``uids`` (repeats allowed)."""
        uids = np.asarray(uids, dtype=np.int64)
        self.consume_positions(
            np.array([self._position_of(int(u)) for u in uids], dtype=np.int64)
        )

    # Covered by the caller's 'consume' span.
    def consume_positions(self, positions: np.ndarray) -> None:  # rit: noqa[RIT013]
        """Consume one unit per entry of ``positions`` (original-order index).

        Batched equivalent of calling :meth:`consume` per winner: one
        vectorized decrement plus a single ``O(N)`` Fenwick rebuild,
        instead of one ``O(log N)`` update per winner.
        """
        if positions.size == 0:
            return
        np.subtract.at(self.remaining, positions, 1)
        if self.remaining[positions].min() < 0:
            np.add.at(self.remaining, positions, 1)  # restore before raising
            raise ModelError(
                "consume would drive a remaining capacity negative"
            )
        self._fenwick = FenwickTree(self.remaining[self._sorted_users])

    # ------------------------------------------------------------------ #
    # Round views
    # ------------------------------------------------------------------ #

    def unit_asks(self) -> Tuple[np.ndarray, np.ndarray]:
        """Materialized ``(α, λ)`` — the reference path's per-round pool."""
        reps = self.remaining
        return np.repeat(self.values, reps), np.repeat(self.uids, reps)

    def round_bounds(self) -> np.ndarray:
        """Inclusive prefix sums of ``remaining`` in original user order.

        ``bounds[i]`` is one past the last unit index owned by user ``i``
        in this round's unit pool.
        """
        return np.cumsum(self.remaining)

    def unit_user_positions(
        self, unit_indices: np.ndarray, bounds: np.ndarray
    ) -> np.ndarray:
        """Original user positions owning the given per-round unit indices."""
        return np.searchsorted(bounds, unit_indices, side="right")

    def unit_owners(
        self, unit_indices: np.ndarray, bounds: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """User ids owning the given per-round unit indices."""
        if bounds is None:
            bounds = self.round_bounds()
        return self.uids[self.unit_user_positions(unit_indices, bounds)]

    def alive_at_most(self, value: float) -> int:
        """``z_s`` — alive units with ask value at most ``value``."""
        k = int(np.searchsorted(self._sorted_values, value, side="right"))
        return self._fenwick.prefix(k)

    # Covered by cra_presorted's 'select' span.
    def smallest_units(  # rit: noqa[RIT013]
        self, count: int, bounds: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``count`` cheapest alive units, as the reference selects them.

        Returns ``(unit_indices, unit_values)`` in (value, unit-position)
        order — exactly ``argsort(unit_pool, kind="stable")[:count]`` of
        the reference, without materializing or sorting the pool.
        """
        if count <= 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0, dtype=np.float64)
        pos, used = self._fenwick.locate(count)
        taken = self._sorted_users[: pos + 1]
        counts = self.remaining[taken].copy()
        counts[pos] = used
        starts = bounds[taken] - self.remaining[taken]
        return _ranges(starts, counts), np.repeat(self.values[taken], counts)


def cra_presorted(
    pool: SortedTypePool,
    q: int,
    m_i: int,
    rng: SeedLike = None,
    *,
    sample_rate_scale: float = 1.0,
    tracer: Optional[NullTracer] = None,
) -> CRAResult:
    """Run one CRA round (Algorithm 1) against a presorted pool.

    Drop-in fast path for :func:`repro.core.cra.cra` over the pool's
    current unit asks: same draws off ``rng`` (see the module docstring's
    RNG-compatibility contract), same :class:`CRAResult` bit for bit.
    Winner indices refer to this round's unit pool; translate them with
    :meth:`SortedTypePool.unit_owners` *before* consuming capacity.

    ``tracer`` (when enabled) receives the ``sample`` / ``consensus`` /
    ``select`` spans and the sample-stage counters; it is optional and
    adds no per-unit work when omitted.
    """
    if q <= 0:
        raise ConfigurationError(f"q must be >= 1, got {q}")
    if m_i <= 0:
        raise ConfigurationError(f"m_i must be >= 1, got {m_i}")
    if sample_rate_scale <= 0:
        raise ConfigurationError(
            f"sample_rate_scale must be > 0, got {sample_rate_scale}"
        )
    gen = as_generator(rng)
    cap = q + m_i
    tracing = tracer is not None and tracer.enabled
    sid = -1

    # Sample stage (lines 2-4): offset plus one uniform per alive unit, in
    # original unit-pool order — the draws the reference makes.
    if tracing:
        sid = tracer.begin("sample")
    offset = float(gen.uniform(0.0, 1.0))
    rate = min(1.0, sample_rate_scale / cap)
    mask = gen.random(pool.total_remaining()) < rate
    sample = np.flatnonzero(mask)
    if sample.size == 0:
        if tracing:
            tracer.end(sid)
            tracer.count("sample_units_drawn", 0)
            tracer.count("empty_samples")
        return _empty_result(offset, sample)
    bounds = pool.round_bounds()
    s = float(pool.values[pool.unit_user_positions(sample, bounds)].min())

    # Consensus stage (line 5): z_s from the Fenwick prefix over the
    # presorted values instead of a linear scan.
    if tracing:
        tracer.end(sid)
        tracer.count("sample_units_drawn", int(sample.size))
        sid = tracer.begin("consensus")
    z_s = pool.alive_at_most(s)
    n_s_real = consensus.round_down_to_grid(float(z_s), offset)
    n_s = int(math.floor(n_s_real))
    if tracing:
        tracer.end(sid)
    if n_s <= 0:
        return _empty_result(offset, sample)

    # Select stage (lines 6-19): prefix walk of the alive sorted units.
    if tracing:
        sid = tracer.begin("select")
    chosen, chosen_values = pool.smallest_units(n_s, bounds)
    overflow = False
    if n_s > cap:
        keep = gen.random(chosen.shape[0]) < (cap / (2.0 * n_s))
        chosen = chosen[keep]
        chosen_values = chosen_values[keep]
        if chosen.size == 0:
            if tracing:
                tracer.end(sid)
            return _empty_result(offset, sample)
    if chosen.size > cap:
        # ``chosen`` is already in (value, unit-position) order, so the
        # reference's stable re-sort before trimming is the identity.
        s = float(chosen_values[cap])
        chosen = chosen[:cap]
        overflow = True
    if chosen.size > q:
        chosen = gen.choice(chosen, size=q, replace=False)
    winners = np.sort(chosen.astype(np.int64))
    if tracing:
        tracer.end(sid)
    return CRAResult(
        winners=winners,
        price=s,
        sample_indices=sample,
        n_s=n_s,
        offset=offset,
        overflow_trimmed=overflow,
    )
