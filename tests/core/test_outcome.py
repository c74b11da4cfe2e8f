"""Tests for mechanism outcome containers and utility accounting."""

from dataclasses import replace

import pytest

from repro.core.exceptions import ModelError
from repro.core.outcome import MechanismOutcome, RoundRecord
from repro.core.types import Job


def sample_outcome():
    return MechanismOutcome(
        allocation={1: 2, 2: 1},
        auction_payments={1: 6.0, 2: 3.0},
        payments={1: 7.0, 2: 3.0, 3: 0.5},
        completed=True,
        rounds=[RoundRecord(0, 0, 3, 3, 2.0, 4, False)],
        elapsed_auction=0.01,
        elapsed_total=0.02,
    )


class TestAccessors:
    def test_tasks_of(self):
        out = sample_outcome()
        assert out.tasks_of(1) == 2
        assert out.tasks_of(99) == 0

    def test_payment_of(self):
        out = sample_outcome()
        assert out.payment_of(3) == 0.5
        assert out.payment_of(99) == 0.0

    def test_auction_payment_of(self):
        out = sample_outcome()
        assert out.auction_payment_of(2) == 3.0
        assert out.auction_payment_of(3) == 0.0

    def test_utility_of(self):
        out = sample_outcome()
        assert out.utility_of(1, cost=2.0) == pytest.approx(7.0 - 4.0)
        assert out.utility_of(3, cost=5.0) == pytest.approx(0.5)
        assert out.utility_of(42, cost=5.0) == 0.0

    def test_group_utility(self):
        out = sample_outcome()
        assert out.group_utility([1, 2], cost=1.0) == pytest.approx(
            (7.0 - 2.0) + (3.0 - 1.0)
        )


class TestAggregates:
    def test_totals(self):
        out = sample_outcome()
        assert out.total_payment == pytest.approx(10.5)
        assert out.total_auction_payment == pytest.approx(9.0)
        assert out.total_allocated == 3

    def test_average_utility(self):
        out = sample_outcome()
        costs = {1: 2.0, 2: 1.0, 3: 9.0}
        expected = (10.5 - (2 * 2.0 + 1 * 1.0)) / 10
        assert out.average_utility(costs, 10) == pytest.approx(expected)

    def test_average_utility_missing_cost_raises(self):
        out = sample_outcome()
        with pytest.raises(ModelError):
            out.average_utility({1: 2.0}, 10)

    def test_average_utility_bad_n_raises(self):
        with pytest.raises(ModelError):
            sample_outcome().average_utility({}, 0)

    def test_solicitation_rewards(self):
        rewards = sample_outcome().solicitation_rewards()
        assert rewards == {1: pytest.approx(1.0), 3: pytest.approx(0.5)}

    def test_check_covers(self):
        out = sample_outcome()
        assert out.check_covers(Job([3]))
        assert not out.check_covers(Job([4]))


class TestVoid:
    def test_void_zeroes_everything_but_keeps_diagnostics(self):
        out = sample_outcome()
        voided = out.void()
        assert voided.allocation == {}
        assert voided.payments == {}
        assert voided.auction_payments == {}
        assert not voided.completed
        assert len(voided.rounds) == 1
        assert voided.elapsed_auction == out.elapsed_auction

    def test_void_does_not_mutate_original(self):
        out = sample_outcome()
        out.void()
        assert out.completed
        assert out.total_payment == pytest.approx(10.5)


class TestEquality:
    def test_same_seed_runs_compare_equal(self):
        # Elapsed seconds are measurements, not results: two runs of the
        # same seed differ in them and must still compare equal.
        from repro.core.rit import RIT
        from repro.workloads.scenarios import paper_scenario
        from repro.workloads.users import UserDistribution

        job = Job.uniform(3, 5)
        scenario = paper_scenario(
            90, job, 3, distribution=UserDistribution(num_types=3)
        )
        mech = RIT(round_budget="until-complete")
        first, second = (
            mech.run(job, scenario.truthful_asks(), scenario.tree, 11)
            for _ in range(2)
        )
        assert first.completed and first.payments
        assert first == replace(second, elapsed_auction=-1.0, elapsed_total=-1.0)
        uid = next(iter(second.payments))
        repaid = {**second.payments, uid: second.payments[uid] + 1.0}
        assert first != replace(second, payments=repaid)
