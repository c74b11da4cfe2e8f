"""Cumulative service state: the asks and incentive tree built by a stream.

One :class:`ServiceState` instance is the single source of truth for
"what would the platform auction if an epoch closed right now".  It is a
*deterministic state machine*: :meth:`ServiceState.apply` either applies
an event or refuses it with a reason string, purely as a function of the
events applied so far.  The online service and the offline replay harness
(:mod:`repro.service.replay`) drive the *same* class over the same event
sequence, which is what makes the differential bit-identity test
meaningful — there is no second implementation to drift.

Admission rules (all refusals are counted upstream, never silent):

* an ask is admitted once per user id; duplicate submissions are refused
  (sealed-bid semantics — no revisions inside a solicitation);
* a referral is recorded only when the referrer has already joined (or is
  the platform ROOT) and the child has neither joined nor been referred —
  the incentive tree assigns at most one solicitor per user (§4);
* the referral takes effect when the child's ask arrives; a child who
  joins without a recorded referral attaches to ROOT (spontaneous join);
* a withdrawal removes the user's ask and grafts their children (both
  joined subtrees and still-pending referrals) onto the withdrawn user's
  parent, preserving everyone else's solicitation chain.

Cost and ordering.  A parent→children index (joined children by parent,
pending referrals by referrer; ROOT left out) makes a withdrawal graft
cost O(children + pending referrals of the withdrawn user), independent
of the population.  The graft rewrites existing ``_parents`` /
``_pending`` values in place, so dict key order — admission order — never
changes, and only ``_parents`` key order sets the snapshot's children
order: :meth:`ServiceState.snapshot_tree` builds from ``_parents``, never
from the index, whose per-parent order would put a grafted child after
the grandparent's younger children and reorder the BFS (and with it the
payment sums).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core.types import Ask, Job
from repro.service.events import (
    AskSubmitted,
    ReferralEdge,
    ServiceEvent,
    Withdrawal,
)
from repro.tree.incentive_tree import ROOT, IncentiveTree

__all__ = ["ServiceState"]


class ServiceState:
    """Mutable cumulative state; snapshots are cheap copies for epoch runs."""

    def __init__(self, job: Job) -> None:
        self.job = job
        #: Admitted asks in admission order — this ordering is load-bearing:
        #: ``repro.core.rit.profile_arrays`` flattens it positionally, so the
        #: online service and the offline replay must agree on it exactly.
        self._asks: Dict[int, Ask] = {}
        #: child → parent for every joined user (ROOT for spontaneous joins).
        self._parents: Dict[int, int] = {}
        #: child → referrer for referred users who have not joined yet.
        self._pending: Dict[int, int] = {}
        #: Inverse indexes (ROOT excluded) so a graft touches only the
        #: withdrawn user's own children: parent → joined children, and
        #: referrer → pending referrals.  Never used to order snapshots.
        self._children: Dict[int, Set[int]] = {}
        self._referred: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------ #
    # Event application
    # ------------------------------------------------------------------ #

    def apply(self, event: ServiceEvent) -> Optional[str]:
        """Apply one event; returns a refusal reason, or None on success."""
        if isinstance(event, AskSubmitted):
            return self._apply_ask(event)
        if isinstance(event, ReferralEdge):
            return self._apply_referral(event)
        if isinstance(event, Withdrawal):
            return self._apply_withdrawal(event)
        return f"unknown event type {type(event).__name__}"

    def _apply_ask(self, event: AskSubmitted) -> Optional[str]:
        uid = event.user_id
        if uid in self._asks:
            return f"user {uid} already submitted an ask"
        self._asks[uid] = event.ask()
        parent = self._pending.pop(uid, ROOT)
        # The referrer may have withdrawn since the referral was recorded;
        # withdrawal grafting rewrites pending entries, so a stale parent
        # here means corruption, not a race — guard anyway.
        if parent != ROOT and parent not in self._asks:
            parent = ROOT
        self._parents[uid] = parent
        if parent != ROOT:
            _discard(self._referred, parent, uid)
            self._children.setdefault(parent, set()).add(uid)
        return None

    def _apply_referral(self, event: ReferralEdge) -> Optional[str]:
        child, parent = event.child_id, event.parent_id
        if child in self._asks:
            return f"user {child} already joined; referral must precede the ask"
        if child in self._pending:
            return f"user {child} already has a recorded referrer"
        if parent != ROOT and parent not in self._asks:
            return f"referrer {parent} has not joined"
        self._pending[child] = parent
        if parent != ROOT:
            self._referred.setdefault(parent, set()).add(child)
        return None

    def _apply_withdrawal(self, event: Withdrawal) -> Optional[str]:
        uid = event.user_id
        if uid not in self._asks:
            return f"user {uid} is not an active participant"
        del self._asks[uid]
        grandparent = self._parents.pop(uid)
        children = self._children.pop(uid, set())
        referred = self._referred.pop(uid, set())
        # Assign to existing keys only: admission order is untouched.
        for child in children:
            self._parents[child] = grandparent
        for child in referred:
            self._pending[child] = grandparent
        if grandparent != ROOT:
            _discard(self._children, grandparent, uid)
            if children:
                self._children.setdefault(grandparent, set()).update(children)
            if referred:
                self._referred.setdefault(grandparent, set()).update(referred)
        return None

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def snapshot_asks(self) -> Dict[int, Ask]:
        """Copy of the admitted ask profile, in admission order."""
        return dict(self._asks)

    def snapshot_tree(self) -> IncentiveTree:
        """The incentive tree over currently joined users."""
        return IncentiveTree.from_parent_map(dict(self._parents))

    @property
    def num_participants(self) -> int:
        return len(self._asks)

    @property
    def num_pending_referrals(self) -> int:
        return len(self._pending)


def _discard(index: Dict[int, Set[int]], key: int, member: int) -> None:
    """Remove ``member`` from ``index[key]``, dropping the key once empty."""
    members = index[key]
    members.discard(member)
    if not members:
        del index[key]
