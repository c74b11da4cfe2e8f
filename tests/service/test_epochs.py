"""Epoch batching triggers and the pure epoch-seed derivation."""

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.types import Job
from repro.service.epochs import (
    BatchAccumulator,
    EpochPipeline,
    EpochPolicy,
    epoch_seed,
)
from repro.service.events import AskSubmitted, Withdrawal

JOB = Job([4, 3, 5])


def ask(uid, tick):
    return AskSubmitted(
        tick=tick, user_id=uid, task_type=uid % JOB.num_types, capacity=2, value=1.0
    )


class TestEpochPolicy:
    def test_rejects_non_positive_max_events(self):
        with pytest.raises(ConfigurationError):
            EpochPolicy(max_events=0)

    def test_rejects_non_positive_max_ticks(self):
        with pytest.raises(ConfigurationError):
            EpochPolicy(max_events=4, max_ticks=0)


class TestBatchAccumulator:
    def test_count_trigger_includes_final_event(self):
        acc = BatchAccumulator(EpochPolicy(max_events=2))
        assert acc.append(ask(0, 0)) is None
        batch = acc.append(ask(1, 1))
        assert batch is not None
        assert [e.user_id for e in batch.events] == [0, 1]
        assert (batch.first_tick, batch.last_tick) == (0, 1)
        assert acc.pending_count == 0

    def test_tick_trigger_closes_before_the_event(self):
        acc = BatchAccumulator(EpochPolicy(max_events=100, max_ticks=5))
        acc.append(ask(0, 0))
        assert acc.maybe_close_on_tick(4) is None
        batch = acc.maybe_close_on_tick(5)
        assert batch is not None
        assert [e.user_id for e in batch.events] == [0]

    def test_tick_trigger_noop_when_empty(self):
        acc = BatchAccumulator(EpochPolicy(max_events=4, max_ticks=5))
        assert acc.maybe_close_on_tick(99) is None

    def test_flush_returns_trailing_partial_batch(self):
        acc = BatchAccumulator(EpochPolicy(max_events=10))
        acc.append(ask(0, 0))
        batch = acc.flush()
        assert batch is not None and batch.num_events == 1
        assert acc.flush() is None

    def test_indices_are_sequential(self):
        acc = BatchAccumulator(EpochPolicy(max_events=1))
        first = acc.append(ask(0, 0))
        second = acc.append(ask(1, 1))
        assert (first.index, second.index) == (0, 1)


class TestEpochSeed:
    def test_pure_function_of_both_integers(self):
        a = np.random.default_rng(epoch_seed(7, 3)).integers(0, 1 << 30, 8)
        b = np.random.default_rng(epoch_seed(7, 3)).integers(0, 1 << 30, 8)
        assert (a == b).all()

    def test_distinct_epochs_get_distinct_streams(self):
        a = np.random.default_rng(epoch_seed(7, 0)).integers(0, 1 << 30, 8)
        b = np.random.default_rng(epoch_seed(7, 1)).integers(0, 1 << 30, 8)
        assert not (a == b).all()

    def test_no_hidden_spawn_counter(self):
        # Deriving epoch 0 must not perturb a later derivation of epoch 1.
        first = epoch_seed(7, 0)
        np.random.default_rng(first).integers(0, 10, 4)
        again = np.random.default_rng(epoch_seed(7, 1)).integers(0, 1 << 30, 8)
        fresh = np.random.default_rng(epoch_seed(7, 1)).integers(0, 1 << 30, 8)
        assert (again == fresh).all()

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            epoch_seed(7, -1)

    @pytest.mark.parametrize("root", [0, 1, 7, 123456789, 2**40])
    def test_equals_the_spawned_child(self, root):
        # The O(1) direct construction is bit-identical to the
        # epoch_index-th child of SeedSequence(root).spawn(...).
        for index in (0, 1, 2, 5, 63, 64, 1000):
            child = np.random.SeedSequence(root).spawn(index + 1)[index]
            seed = epoch_seed(root, index)
            assert seed.entropy == child.entropy
            assert seed.spawn_key == child.spawn_key
            assert seed.n_children_spawned == child.n_children_spawned
            assert (seed.generate_state(8) == child.generate_state(8)).all()
            grandchild = seed.spawn(2)[1].generate_state(4)
            assert (grandchild == child.spawn(2)[1].generate_state(4)).all()


class TestEpochPipeline:
    def test_snapshot_carries_cumulative_state_not_just_batch(self):
        pipeline = EpochPipeline(JOB, EpochPolicy(max_events=2))
        pipeline.step(ask(0, 0))
        pipeline.step(ask(1, 1))  # closes epoch 0
        pipeline.step(ask(2, 2))
        _, snapshots = pipeline.step(ask(3, 3))  # closes epoch 1
        assert len(snapshots) == 1
        assert sorted(snapshots[0].asks) == [0, 1, 2, 3]

    def test_refused_event_advances_virtual_clock(self):
        pipeline = EpochPipeline(JOB, EpochPolicy(max_events=100, max_ticks=5))
        pipeline.step(ask(0, 0))
        # A refused withdrawal (unknown user) at tick 9 must still close
        # the pending batch on the tick trigger...
        refused, snapshots = pipeline.step(Withdrawal(tick=9, user_id=77))
        assert refused is not None
        assert len(snapshots) == 1
        # ...and must not appear in any batch.
        assert [e.user_id for e in snapshots[0].batch.events] == [0]

    def test_tick_closed_epoch_excludes_the_closing_event(self):
        pipeline = EpochPipeline(JOB, EpochPolicy(max_events=100, max_ticks=5))
        pipeline.step(ask(0, 0))
        _, snapshots = pipeline.step(ask(1, 8))
        assert len(snapshots) == 1
        assert sorted(snapshots[0].asks) == [0]  # event 1 is next epoch
        tail = pipeline.finish()
        assert [e.user_id for e in tail.batch.events] == [1]

    def test_finish_empty_returns_none(self):
        pipeline = EpochPipeline(JOB, EpochPolicy(max_events=4))
        assert pipeline.finish() is None
