"""Unit tests for the crowdsensing model value types."""

import math

import pytest

from repro.core.exceptions import ConfigurationError, ModelError
from repro.core.types import Ask, Job, Population, User


class TestJob:
    def test_counts_are_stored_as_tuple(self):
        job = Job([1, 2, 3])
        assert job.counts == (1, 2, 3)

    def test_num_types_and_size(self):
        job = Job([2, 0, 5])
        assert job.num_types == 3
        assert job.size == 7

    def test_size_is_cached_at_construction(self):
        job = Job([2, 0, 5])
        assert job._size == 7  # set once in __init__, no per-read sum
        import dataclasses

        replaced = dataclasses.replace(job, counts=(1, 1, 1))
        assert replaced.size == 3

    def test_tasks_of(self):
        job = Job([2, 0, 5])
        assert job.tasks_of(0) == 2
        assert job.tasks_of(1) == 0
        assert job.tasks_of(2) == 5

    def test_tasks_of_unknown_type_raises(self):
        with pytest.raises(ModelError):
            Job([1]).tasks_of(1)
        with pytest.raises(ModelError):
            Job([1]).tasks_of(-1)

    def test_types_iterates_all_indices(self):
        assert list(Job([1, 2]).types()) == [0, 1]

    def test_empty_job_rejected(self):
        with pytest.raises(ConfigurationError):
            Job([])

    def test_all_zero_job_rejected(self):
        with pytest.raises(ConfigurationError):
            Job([0, 0])

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            Job([1, -1])

    def test_uniform_constructor(self):
        job = Job.uniform(4, 10)
        assert job.counts == (10, 10, 10, 10)

    def test_uniform_rejects_nonpositive_types(self):
        with pytest.raises(ConfigurationError):
            Job.uniform(0, 5)

    def test_from_multiset_matches_paper_example(self):
        # §3-A: J = {τ1, τ2, τ3, τ3} -> m=3, m_1=1, m_2=1, m_3=2.
        job = Job.from_multiset([0, 1, 2, 2])
        assert job.counts == (1, 1, 2)

    def test_from_multiset_with_explicit_num_types(self):
        job = Job.from_multiset([0], num_types=3)
        assert job.counts == (1, 0, 0)

    def test_from_multiset_out_of_range_rejected(self):
        with pytest.raises(ModelError):
            Job.from_multiset([5], num_types=2)

    def test_multiset_round_trip(self):
        job = Job([2, 1, 3])
        assert Job.from_multiset(job.as_multiset(), job.num_types) == job

    def test_counts_are_coerced_to_int(self):
        job = Job([2.0, 3.0])
        assert job.counts == (2, 3)
        assert all(isinstance(c, int) for c in job.counts)


class TestAsk:
    def test_fields(self):
        ask = Ask(task_type=2, capacity=3, value=4.5)
        assert (ask.task_type, ask.capacity, ask.value) == (2, 3, 4.5)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ModelError):
            Ask(0, 0, 1.0)

    def test_fractional_capacity_rejected(self):
        with pytest.raises(ModelError):
            Ask(0, 1.5, 1.0)

    def test_nonpositive_value_rejected(self):
        with pytest.raises(ModelError):
            Ask(0, 1, 0.0)
        with pytest.raises(ModelError):
            Ask(0, 1, -1.0)

    def test_nonfinite_value_rejected(self):
        with pytest.raises(ModelError):
            Ask(0, 1, math.inf)
        with pytest.raises(ModelError):
            Ask(0, 1, math.nan)

    def test_negative_type_rejected(self):
        with pytest.raises(ModelError):
            Ask(-1, 1, 1.0)

    def test_with_value_copies(self):
        ask = Ask(0, 2, 3.0)
        other = ask.with_value(5.0)
        assert other.value == 5.0
        assert other.capacity == 2
        assert ask.value == 3.0  # original untouched

    def test_with_capacity_copies(self):
        ask = Ask(0, 2, 3.0)
        assert ask.with_capacity(1).capacity == 1

    def test_is_hashable_and_frozen(self):
        ask = Ask(0, 1, 1.0)
        assert hash(ask) == hash(Ask(0, 1, 1.0))
        with pytest.raises(AttributeError):
            ask.value = 2.0  # type: ignore[misc]  # rit: noqa[RIT003]


class TestUser:
    def test_truthful_ask(self):
        user = User(user_id=3, task_type=1, capacity=4, cost=2.5)
        ask = user.truthful_ask()
        assert ask == Ask(task_type=1, capacity=4, value=2.5)

    def test_ask_with_deviation(self):
        user = User(0, 0, 4, 2.0)
        deviated = user.ask(capacity=2, value=9.0)
        assert (deviated.capacity, deviated.value) == (2, 9.0)

    def test_ask_cannot_exceed_true_capacity(self):
        user = User(0, 0, 4, 2.0)
        with pytest.raises(ModelError):
            user.ask(capacity=5)

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ModelError):
            User(-1, 0, 1, 1.0)
        with pytest.raises(ModelError):
            User(0, -1, 1, 1.0)
        with pytest.raises(ModelError):
            User(0, 0, 0, 1.0)
        with pytest.raises(ModelError):
            User(0, 0, 1, 0.0)


class TestPopulation:
    def _pop(self):
        return Population(
            [
                User(0, 0, 2, 1.0),
                User(1, 1, 5, 2.0),
                User(2, 0, 3, 0.5),
            ]
        )

    def test_len_iter_contains(self):
        pop = self._pop()
        assert len(pop) == 3
        assert {u.user_id for u in pop} == {0, 1, 2}
        assert 1 in pop
        assert 7 not in pop

    def test_getitem(self):
        pop = self._pop()
        assert pop[1].capacity == 5
        with pytest.raises(ModelError):
            pop[9]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ModelError):
            Population([User(0, 0, 1, 1.0), User(0, 1, 1, 1.0)])

    def test_k_max(self):
        assert self._pop().k_max == 5

    def test_k_max_of_empty_population_raises(self):
        with pytest.raises(ModelError):
            Population([]).k_max

    def test_capacity_by_type(self):
        assert self._pop().capacity_by_type(3) == [5, 5, 0]

    def test_of_type(self):
        assert [u.user_id for u in self._pop().of_type(0)] == [0, 2]

    def test_truthful_asks(self):
        asks = self._pop().truthful_asks()
        assert set(asks) == {0, 1, 2}
        assert asks[2] == Ask(0, 3, 0.5)

    def test_subset(self):
        sub = self._pop().subset([2, 0])
        assert [u.user_id for u in sub] == [0, 2]

    def test_extended(self):
        pop = self._pop().extended([User(10, 2, 1, 1.0)])
        assert len(pop) == 4
        assert 10 in pop

    def test_extended_duplicate_rejected(self):
        with pytest.raises(ModelError):
            self._pop().extended([User(0, 2, 1, 1.0)])
