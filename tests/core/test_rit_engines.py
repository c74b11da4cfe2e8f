"""RIT-level engine equivalence and the pre-engine golden freeze.

``tests/goldens/rit_engine/pre_pr_outcomes.json`` was captured by running
the mechanism *before* the sorted engine existed (commit ``1f8922f``),
over five seeded scenarios.  Both engines must keep reproducing those
outcomes byte for byte — allocations, prices, payments and per-round logs
— which is the acceptance criterion that the fast path changed nothing
observable.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import STAGE_NAMES
from repro.core.exceptions import ConfigurationError
from repro.core.rit import ENGINES, RIT
from repro.core.types import Job
from repro.obs import Tracer
from repro.workloads.scenarios import paper_scenario
from repro.workloads.users import UserDistribution

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent
    / "goldens"
    / "rit_engine"
    / "pre_pr_outcomes.json"
)


def load_goldens():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def build_scenario(config):
    job = Job.uniform(config["types"], config["tasks_per_type"])
    scenario = paper_scenario(
        config["users"],
        job,
        rng=config["scenario_seed"],
        distribution=UserDistribution(num_types=config["types"]),
    )
    return job, scenario


def outcome_rounds(outcome):
    return [
        [
            r.task_type,
            r.round_index,
            r.q_before,
            r.num_winners,
            None if math.isnan(r.price) else r.price,
            r.n_s,
            r.overflow_trimmed,
        ]
        for r in outcome.rounds
    ]


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        for engine in ("bogus", "columnar"):
            with pytest.raises(ConfigurationError):
                RIT(engine=engine)

    def test_default_engine_is_sorted(self):
        assert RIT().engine == "sorted"
        assert ENGINES == ("sorted", "reference")


class TestPrePRGoldens:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("key", sorted(load_goldens()))
    def test_outcome_identical_to_pre_engine_run(self, key, engine):
        golden = load_goldens()[key]
        config = golden["config"]
        job, scenario = build_scenario(config)
        mech = RIT(round_budget=config["policy"], engine=engine)
        outcome = mech.run(
            job,
            scenario.truthful_asks(),
            scenario.tree,
            np.random.default_rng(config["run_seed"]),
        )
        assert outcome.completed == golden["completed"]
        assert {
            str(uid): count for uid, count in sorted(outcome.allocation.items())
        } == golden["allocation"]
        assert {
            str(uid): pay
            for uid, pay in sorted(outcome.auction_payments.items())
        } == golden["auction_payments"]
        assert {
            str(uid): pay for uid, pay in sorted(outcome.payments.items())
        } == golden["payments"]
        assert len(outcome.rounds) == golden["num_rounds"]
        assert outcome_rounds(outcome) == golden["rounds"]


class TestEngineEquivalence:
    @pytest.mark.parametrize("policy", ["paper", "until-complete"])
    def test_engines_agree_on_random_instances(self, policy):
        gen = np.random.default_rng(0 if policy == "paper" else 1)
        for trial in range(4):
            users = int(gen.integers(40, 200))
            types = int(gen.integers(1, 5))
            job = Job.uniform(types, int(gen.integers(2, 15)))
            scenario = paper_scenario(
                users,
                job,
                rng=int(gen.integers(0, 1000)),
                distribution=UserDistribution(num_types=types),
            )
            asks = scenario.truthful_asks()
            run_seed = int(gen.integers(0, 2**31))
            outcomes = {}
            for engine in ENGINES:
                mech = RIT(round_budget=policy, engine=engine)
                outcomes[engine] = mech.run(
                    job, asks, scenario.tree, np.random.default_rng(run_seed)
                )
            fast, other = outcomes["sorted"], outcomes["reference"]
            context = f"policy {policy} trial {trial}"
            assert fast.completed == other.completed, context
            assert fast.allocation == other.allocation, context
            assert fast.auction_payments == other.auction_payments, context
            assert fast.payments == other.payments, context
            assert outcome_rounds(fast) == outcome_rounds(other), context

    def test_stage_spans_emitted_by_sorted_engine(self):
        job = Job.uniform(2, 5)
        scenario = paper_scenario(
            60, job, rng=0, distribution=UserDistribution(num_types=2)
        )
        asks = scenario.truthful_asks()
        tracer = Tracer("sorted")
        outcome = RIT(engine="sorted", tracer=tracer).run(
            job, asks, scenario.tree, np.random.default_rng(0)
        )
        untraced = RIT(engine="sorted").run(
            job, asks, scenario.tree, np.random.default_rng(0)
        )
        assert outcome == untraced
        names = {e["name"] for e in tracer.events if e["ev"] == "span_start"}
        assert set(STAGE_NAMES) <= names
