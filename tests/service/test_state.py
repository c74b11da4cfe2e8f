"""The cumulative state machine: admission rules and withdrawal grafting."""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.types import Job
from repro.service.events import AskSubmitted, ReferralEdge, Withdrawal
from repro.service.state import ServiceState
from repro.tree.incentive_tree import ROOT, IncentiveTree

JOB = Job([4, 3, 5])


def ask(uid, tick=0, task_type=0):
    return AskSubmitted(
        tick=tick, user_id=uid, task_type=task_type, capacity=2, value=1.5
    )


class TestAskAdmission:
    def test_spontaneous_join_attaches_to_root(self):
        state = ServiceState(JOB)
        assert state.apply(ask(0)) is None
        assert state.snapshot_tree().to_parent_map()[0] == ROOT

    def test_duplicate_ask_refused(self):
        state = ServiceState(JOB)
        state.apply(ask(0))
        assert "already submitted" in state.apply(ask(0))
        assert state.num_participants == 1

    def test_referral_then_join_attaches_to_parent(self):
        state = ServiceState(JOB)
        state.apply(ask(0))
        assert state.apply(ReferralEdge(tick=1, parent_id=0, child_id=1)) is None
        assert state.apply(ask(1, tick=2)) is None
        assert state.snapshot_tree().to_parent_map()[1] == 0


class TestReferralAdmission:
    def test_referral_after_join_refused(self):
        state = ServiceState(JOB)
        state.apply(ask(0))
        state.apply(ask(1))
        refused = state.apply(ReferralEdge(tick=1, parent_id=0, child_id=1))
        assert "already joined" in refused

    def test_duplicate_referrer_refused(self):
        state = ServiceState(JOB)
        state.apply(ask(0))
        state.apply(ask(1))
        state.apply(ReferralEdge(tick=1, parent_id=0, child_id=2))
        refused = state.apply(ReferralEdge(tick=2, parent_id=1, child_id=2))
        assert "already has a recorded referrer" in refused

    def test_unjoined_referrer_refused_root_allowed(self):
        state = ServiceState(JOB)
        assert "has not joined" in state.apply(
            ReferralEdge(tick=0, parent_id=9, child_id=1)
        )
        assert state.apply(ReferralEdge(tick=0, parent_id=ROOT, child_id=1)) is None


class TestWithdrawal:
    def test_withdraw_non_participant_refused(self):
        state = ServiceState(JOB)
        assert "not an active participant" in state.apply(
            Withdrawal(tick=0, user_id=5)
        )

    def test_withdraw_grafts_joined_children_to_grandparent(self):
        state = ServiceState(JOB)
        state.apply(ask(0))
        state.apply(ReferralEdge(tick=1, parent_id=0, child_id=1))
        state.apply(ask(1, tick=2))
        state.apply(ReferralEdge(tick=3, parent_id=1, child_id=2))
        state.apply(ask(2, tick=4))
        assert state.apply(Withdrawal(tick=5, user_id=1)) is None
        parents = state.snapshot_tree().to_parent_map()
        assert 1 not in parents
        assert parents[2] == 0  # grafted past the withdrawn middle node
        assert 1 not in state.snapshot_asks()

    def test_withdraw_grafts_pending_referrals(self):
        state = ServiceState(JOB)
        state.apply(ask(0))
        state.apply(ReferralEdge(tick=1, parent_id=0, child_id=1))
        state.apply(ask(1, tick=2))
        state.apply(ReferralEdge(tick=3, parent_id=1, child_id=2))
        state.apply(Withdrawal(tick=4, user_id=1))
        # user 2 never joined before the referrer withdrew; on join they
        # attach to the withdrawn user's parent, not to a dangling id.
        state.apply(ask(2, tick=5))
        assert state.snapshot_tree().to_parent_map()[2] == 0

    def test_graft_keeps_admission_order_among_grandparent_children(self):
        # g's children are [u, a]; u's child c joined before a.  After u
        # withdraws, c precedes a under g because c was admitted first —
        # appending c to g's child list would give (a, c) instead.
        g, u, a, c = 0, 1, 2, 3
        state = ServiceState(JOB)
        state.apply(ask(g))
        state.apply(ReferralEdge(tick=1, parent_id=g, child_id=u))
        state.apply(ask(u, tick=1))
        state.apply(ReferralEdge(tick=2, parent_id=u, child_id=c))
        state.apply(ask(c, tick=2))
        state.apply(ReferralEdge(tick=3, parent_id=g, child_id=a))
        state.apply(ask(a, tick=3))
        assert state.snapshot_tree().children(g) == (u, a)
        assert state.apply(Withdrawal(tick=4, user_id=u)) is None
        assert state.snapshot_tree().children(g) == (c, a)

    def test_withdraw_root_child_grafts_to_root(self):
        state = ServiceState(JOB)
        state.apply(ask(0))
        state.apply(ReferralEdge(tick=1, parent_id=0, child_id=1))
        state.apply(ask(1, tick=2))
        state.apply(Withdrawal(tick=3, user_id=0))
        assert state.snapshot_tree().to_parent_map()[1] == ROOT


class TestSnapshots:
    def test_snapshots_are_isolated_from_later_events(self):
        state = ServiceState(JOB)
        state.apply(ask(0))
        asks_before = state.snapshot_asks()
        tree_before = state.snapshot_tree()
        state.apply(ask(1))
        assert list(asks_before) == [0]
        assert 1 not in tree_before.to_parent_map()

    def test_admission_order_is_preserved(self):
        state = ServiceState(JOB)
        for uid in (5, 2, 9, 0):
            state.apply(ask(uid))
        assert list(state.snapshot_asks()) == [5, 2, 9, 0]


class ScanState:
    """Oracle: the original full-scan withdrawal graft over plain dicts."""

    def __init__(self):
        self._asks = {}
        self._parents = {}
        self._pending = {}

    def apply(self, event):
        if isinstance(event, AskSubmitted):
            uid = event.user_id
            if uid in self._asks:
                return f"user {uid} already submitted an ask"
            self._asks[uid] = event.ask()
            parent = self._pending.pop(uid, ROOT)
            self._parents[uid] = (
                parent if parent == ROOT or parent in self._asks else ROOT
            )
            return None
        if isinstance(event, ReferralEdge):
            child, parent = event.child_id, event.parent_id
            if child in self._asks:
                return f"user {child} already joined; referral must precede the ask"
            if child in self._pending:
                return f"user {child} already has a recorded referrer"
            if parent != ROOT and parent not in self._asks:
                return f"referrer {parent} has not joined"
            self._pending[child] = parent
            return None
        uid = event.user_id
        if uid not in self._asks:
            return f"user {uid} is not an active participant"
        grandparent = self._parents[uid]
        del self._asks[uid]
        del self._parents[uid]
        for child, parent in self._parents.items():
            if parent == uid:
                self._parents[child] = grandparent
        for child, parent in self._pending.items():
            if parent == uid:
                self._pending[child] = grandparent
        return None


NUM_IDS = 20
USER_IDS = st.integers(min_value=0, max_value=NUM_IDS - 1)
TASK_TYPES = st.integers(min_value=0, max_value=2)


def has_fresh_id(machine):
    """Some id is neither joined nor referred, so a newcomer can be drawn."""
    return len(machine.oracle._asks) + len(machine.oracle._pending) < NUM_IDS


class IndexedGraftMachine(RuleBasedStateMachine):
    """The indexed ServiceState must match the scan oracle step for step."""

    def __init__(self):
        super().__init__()
        self.state = ServiceState(JOB)
        self.oracle = ScanState()
        self.tick = 0
        self.withdrawn = set()

    def both(self, event):
        got, want = self.state.apply(event), self.oracle.apply(event)
        assert got == want
        return got

    def event_tick(self):
        self.tick += 1
        return self.tick

    @rule(uid=USER_IDS, task_type=TASK_TYPES)
    def submit_ask(self, uid, task_type):
        if self.both(ask(uid, self.event_tick(), task_type)) is None:
            self.withdrawn.discard(uid)

    @rule(parent=st.one_of(st.just(ROOT), USER_IDS), child=USER_IDS)
    def refer(self, parent, child):
        self.both(ReferralEdge(tick=self.event_tick(), parent_id=parent, child_id=child))

    def refer_newcomer(self, data):
        parent = data.draw(st.sampled_from([ROOT] + sorted(self.oracle._asks)))
        fresh = set(range(NUM_IDS)) - self.oracle._asks.keys() - self.oracle._pending.keys()
        child = data.draw(st.sampled_from(sorted(fresh)))
        event = ReferralEdge(tick=self.event_tick(), parent_id=parent, child_id=child)
        assert self.both(event) is None
        return child

    @precondition(has_fresh_id)
    @rule(data=st.data())
    def refer_pending(self, data):
        self.refer_newcomer(data)

    @precondition(has_fresh_id)
    @rule(data=st.data(), task_type=TASK_TYPES)
    def recruit(self, data, task_type):
        # Referral and join back to back, so solicitation chains grow deep.
        self.submit_ask(self.refer_newcomer(data), task_type)

    @precondition(lambda self: self.oracle._pending)
    @rule(data=st.data(), task_type=TASK_TYPES)
    def join_referred(self, data, task_type):
        self.submit_ask(data.draw(st.sampled_from(sorted(self.oracle._pending))), task_type)

    @rule(uid=USER_IDS)
    def withdraw(self, uid):
        if self.both(Withdrawal(tick=self.event_tick(), user_id=uid)) is None:
            self.withdrawn.add(uid)

    @precondition(lambda self: self.oracle._asks)
    @rule(data=st.data())
    def withdraw_participant(self, data):
        self.withdraw(data.draw(st.sampled_from(sorted(self.oracle._asks))))

    @precondition(lambda self: any(p != ROOT for p in self.oracle._parents.values()))
    @rule(data=st.data())
    def withdraw_chain(self, data):
        # Withdraw a child's parent, then the grandparent it was just
        # grafted onto, so the second graft moves already-grafted nodes.
        child = data.draw(
            st.sampled_from(
                sorted(c for c, p in self.oracle._parents.items() if p != ROOT)
            )
        )
        self.withdraw(self.oracle._parents[child])
        grandparent = self.oracle._parents[child]
        if grandparent != ROOT:
            self.withdraw(grandparent)

    @precondition(lambda self: any(p != ROOT for p in self.oracle._pending.values()))
    @rule(data=st.data())
    def withdraw_referrer(self, data):
        referrers = sorted({p for p in self.oracle._pending.values() if p != ROOT})
        self.withdraw(data.draw(st.sampled_from(referrers)))

    @precondition(lambda self: self.withdrawn)
    @rule(data=st.data(), task_type=TASK_TYPES)
    def re_ask(self, data, task_type):
        self.submit_ask(data.draw(st.sampled_from(sorted(self.withdrawn))), task_type)

    @invariant()
    def snapshots_match(self):
        got = self.state.snapshot_tree()
        want = IncentiveTree.from_parent_map(dict(self.oracle._parents))
        assert got.to_edges() == want.to_edges()
        assert got.bfs_order() == want.bfs_order()
        assert list(self.state.snapshot_asks().items()) == list(
            self.oracle._asks.items()
        )
        assert self.state.num_pending_referrals == len(self.oracle._pending)

    @invariant()
    def index_matches_rebuild(self):
        children, referred = {}, {}
        for child, parent in self.state._parents.items():
            if parent != ROOT:
                children.setdefault(parent, set()).add(child)
        for child, parent in self.state._pending.items():
            if parent != ROOT:
                referred.setdefault(parent, set()).add(child)
        assert self.state._children == children
        assert self.state._referred == referred
        active = self.state._asks.keys()
        assert self.state._children.keys() <= active
        assert self.state._referred.keys() <= active


IndexedGraftMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestIndexedGraftAgainstScanOracle = IndexedGraftMachine.TestCase
