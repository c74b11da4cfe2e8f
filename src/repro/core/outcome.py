"""Mechanism outcome containers and utility accounting.

A mechanism run produces, for every participant id:

* ``x_j`` — number of tasks allocated (the paper's indicator vector x);
* ``p^A_j`` — auction payment (internal quantity; RIT's payment phase input);
* ``p_j`` — final payment actually disbursed by the platform.

The participant's utility is ``U_j = p_j - x_j · c_j``.  For sybil
scenarios, utilities of all identities of a physical user are summed by
:meth:`MechanismOutcome.group_utility`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.exceptions import ModelError
from repro.core.types import Job

__all__ = ["RoundRecord", "TypeShardResult", "MechanismOutcome"]


@dataclass(frozen=True)
class RoundRecord:
    """Diagnostics for one CRA round inside RIT's auction phase."""

    task_type: int
    round_index: int
    q_before: int
    num_winners: int
    price: float
    n_s: int
    overflow_trimmed: bool


@dataclass(frozen=True)
class TypeShardResult:
    """Auction-phase result for one task type (one RIT shard).

    RIT's auction runs independently per task type (CRA, Algorithm 1), so
    a mechanism run decomposes into per-type shards that can execute on
    separate workers.  A shard is self-contained: its allocation and
    auction-payment maps only mention users of its own type (every user
    bids for exactly one type), so merging shards in type order is a
    collision-free dict union — :meth:`RIT.join_shards` relies on this.

    Attributes
    ----------
    task_type:
        ``τ_i`` — the type this shard auctioned.
    covered:
        True when every one of the type's ``m_i`` tasks was allocated
        within the round budget.
    allocation / auction_payments:
        ``{user_id: x_j}`` and ``{user_id: p^A_j}`` restricted to this
        type's participants.
    rounds:
        Per-round diagnostics, in execution order.
    """

    task_type: int
    covered: bool
    allocation: Dict[int, int]
    auction_payments: Dict[int, float]
    rounds: Tuple[RoundRecord, ...]


@dataclass(frozen=True)
class MechanismOutcome:
    """Result of running an incentive mechanism.

    Instances are frozen: an outcome is the mechanism's final word, and the
    truthfulness/sybil-proofness evaluations compare outcome objects across
    scenario pairs, so post-hoc mutation would silently invalidate them
    (lint rule RIT003).  Use :func:`dataclasses.replace` (or
    :meth:`finalize` / :meth:`void`) to derive amended copies.

    Attributes
    ----------
    allocation:
        ``{participant_id: x_j}`` — tasks allocated; ids with zero
        allocation may be omitted.
    auction_payments:
        ``{participant_id: p^A_j}`` — auction-phase payments (zero omitted).
    payments:
        ``{participant_id: p_j}`` — final payments (zero omitted).
    completed:
        True when every task of the job was allocated.  RIT *voids* the
        outcome otherwise (Algorithm 3 line 27): allocation and payments
        are empty even though the auction phase ran.
    rounds:
        Per-round diagnostics from the auction phase (kept even when the
        outcome is voided — useful for studying the failure mode).
    elapsed_auction / elapsed_total:
        Seconds spent in the auction phase and in the whole mechanism (the
        Fig. 8 metrics), measured on the mechanism tracer's injected
        monotonic clock (:mod:`repro.obs`).  They are measurements, not
        results, so they take no part in equality; per-stage times are
        tracer spans (:mod:`repro.core.engine`).
    """

    allocation: Dict[int, int] = field(default_factory=dict)
    auction_payments: Dict[int, float] = field(default_factory=dict)
    payments: Dict[int, float] = field(default_factory=dict)
    completed: bool = True
    rounds: List[RoundRecord] = field(default_factory=list)
    elapsed_auction: float = field(default=0.0, compare=False)
    elapsed_total: float = field(default=0.0, compare=False)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    def tasks_of(self, participant_id: int) -> int:
        """``x_j`` (0 when the id won nothing)."""
        return self.allocation.get(participant_id, 0)

    def auction_payment_of(self, participant_id: int) -> float:
        """``p^A_j`` (0.0 when the id earned nothing in the auction)."""
        return self.auction_payments.get(participant_id, 0.0)

    def payment_of(self, participant_id: int) -> float:
        """``p_j`` (0.0 when the id receives nothing)."""
        return self.payments.get(participant_id, 0.0)

    def utility_of(self, participant_id: int, cost: float) -> float:
        """``U_j = p_j - x_j · c_j`` for a participant with unit cost."""
        return self.payment_of(participant_id) - self.tasks_of(participant_id) * cost

    def group_utility(self, participant_ids: Iterable[int], cost: float) -> float:
        """Total utility of a set of identities sharing one physical cost.

        This is the attacker's objective ``Σ_l U_{j_l}`` in the
        sybil-proofness definition.
        """
        return sum(self.utility_of(pid, cost) for pid in participant_ids)

    # ------------------------------------------------------------------ #
    # Aggregates (the §7 metrics)
    # ------------------------------------------------------------------ #

    @property
    def total_payment(self) -> float:
        """Platform expenditure ``Σ_j p_j`` (Fig. 7 metric)."""
        return sum(self.payments.values())

    @property
    def total_auction_payment(self) -> float:
        """``Σ_j p^A_j`` — the auction-phase expenditure."""
        return sum(self.auction_payments.values())

    @property
    def total_allocated(self) -> int:
        """Number of tasks allocated across all types."""
        return sum(self.allocation.values())

    def average_utility(self, costs: Mapping[int, float], num_users: int) -> float:
        """Average utility over ``num_users`` participants (Fig. 6 metric).

        ``costs`` maps participant id → unit cost; participants absent from
        the outcome have zero payment and zero allocation, contributing 0.
        """
        if num_users <= 0:
            raise ModelError(f"num_users must be positive, got {num_users}")
        total = 0.0
        for pid, pay in self.payments.items():
            total += pay
        for pid, x in self.allocation.items():
            try:
                total -= x * costs[pid]
            except KeyError:
                raise ModelError(f"missing cost for allocated participant {pid}") from None
        return total / num_users

    def solicitation_rewards(self) -> Dict[int, float]:
        """Per-participant referral income ``p_j - p^A_j``."""
        out: Dict[int, float] = {}
        for pid in set(self.payments) | set(self.auction_payments):
            delta = self.payment_of(pid) - self.auction_payment_of(pid)
            if delta != 0.0:
                out[pid] = delta
        return out

    def finalize(
        self,
        *,
        payments: Optional[Dict[int, float]] = None,
        elapsed_total: Optional[float] = None,
    ) -> "MechanismOutcome":
        """Derived copy with final payments and/or total elapsed time.

        The payment-determination phase runs after the outcome's auction
        fields are fixed; since outcomes are frozen, the phase returns an
        amended copy instead of assigning attributes.
        """
        changes: Dict[str, object] = {}
        if payments is not None:
            changes["payments"] = payments
        if elapsed_total is not None:
            changes["elapsed_total"] = elapsed_total
        return replace(self, **changes)  # type: ignore[arg-type]

    def void(self, *, elapsed_total: Optional[float] = None) -> "MechanismOutcome":
        """Return a voided copy (Algorithm 3 line 27): x = 0, p = 0."""
        return MechanismOutcome(
            allocation={},
            auction_payments={},
            payments={},
            completed=False,
            rounds=list(self.rounds),
            elapsed_auction=self.elapsed_auction,
            elapsed_total=(
                self.elapsed_total if elapsed_total is None else elapsed_total
            ),
        )

    def check_covers(self, job: Job) -> bool:
        """Does the allocation cover every task of ``job``?

        The outcome stores only totals per participant; type coverage is
        established by the mechanism during allocation.  This method checks
        the total count, used as a cheap internal sanity assertion.
        """
        return self.total_allocated == job.size
