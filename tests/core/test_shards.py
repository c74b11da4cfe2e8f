"""RNG policies and the shard/join decomposition of ``RIT.run``.

The sharded service path (``RIT.shard_tasks`` → ``run_type_shard`` per
task → ``join_shards``) must be an exact refactoring of the monolithic
``run`` under ``rng_policy="per-type"`` — same winners, payments, and
round records, whatever order or thread the tasks run on.
The default ``"stream"`` policy keeps the historical single-generator
draw order (pinned separately by the golden tests).
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.rit import (
    RIT,
    RNG_POLICIES,
    pools_from_arrays,
    profile_arrays,
)
from repro.core.rng import as_generator
from repro.service.ledger import canonical_outcome
from repro.workloads.scenarios import paper_scenario
from repro.workloads.users import UserDistribution
from repro.core.engine import STAGE_NAMES
from repro.core.types import Job
from repro.obs import Tracer


def scenario_inputs(seed=3, users=90, types=3, tasks_per_type=5):
    job = Job.uniform(types, tasks_per_type)
    scenario = paper_scenario(
        users, job, seed, distribution=UserDistribution(num_types=types)
    )
    return job, scenario.truthful_asks(), scenario.tree


class TestRngPolicy:
    def test_registry(self):
        assert RNG_POLICIES == ("stream", "per-type")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            RIT(rng_policy="bogus")

    def test_policies_are_self_deterministic(self):
        job, asks, tree = scenario_inputs()
        for policy in RNG_POLICIES:
            mech = RIT(rng_policy=policy, round_budget="until-complete")
            first = mech.run(job, asks, tree, 11)
            second = mech.run(job, asks, tree, 11)
            assert canonical_outcome(first) == canonical_outcome(second)

    def test_engines_agree_under_per_type(self):
        job, asks, tree = scenario_inputs()
        outcomes = [
            RIT(
                engine=engine,
                rng_policy="per-type",
                round_budget="until-complete",
            ).run(job, asks, tree, 11)
            for engine in ("sorted", "reference")
        ]
        assert canonical_outcome(outcomes[0]) == canonical_outcome(outcomes[1])


def sorted_tasks(mech, job, asks, seed):
    """``RIT.shard_tasks`` over the profile's sorted per-type pools."""
    uid_arr, type_arr, val_arr, cap_arr = profile_arrays(asks)
    pools = pools_from_arrays(uid_arr, type_arr, val_arr, cap_arr)
    return mech.shard_tasks(job, pools.get, int(cap_arr.max()), seed)


class TestShardDecomposition:
    def test_manual_shard_merge_equals_run(self):
        job, asks, tree = scenario_inputs()
        seed = 11
        mech = RIT(rng_policy="per-type", round_budget="until-complete")
        whole = mech.run(job, asks, tree, seed)
        shards = [
            mech.run_type_shard(*task)
            for task in sorted_tasks(mech, job, asks, seed)
        ]
        merged = mech.join_shards(job, asks, tree, shards)
        assert canonical_outcome(merged) == canonical_outcome(whole)

    def test_join_with_no_shards_voids_nonempty_job(self):
        job, asks, tree = scenario_inputs()
        mech = RIT(rng_policy="per-type")
        outcome = mech.join_shards(job, {}, tree, [])
        assert not outcome.completed
        assert outcome.payments == {}

    def test_shard_results_are_frozen(self):
        job, asks, tree = scenario_inputs(users=40)
        mech = RIT(rng_policy="per-type", round_budget="until-complete")
        gen = as_generator(1)
        uid_arr, type_arr, val_arr, cap_arr = profile_arrays(asks)
        by_type = pools_from_arrays(uid_arr, type_arr, val_arr, cap_arr)
        shard = mech.run_type_shard(
            0, job.tasks_of(0), by_type.get(0), int(cap_arr.max()),
            job.num_types, gen,
        )
        with pytest.raises(Exception):
            shard.covered = False


class TestShardTasks:
    """The contract both ``RIT.run`` and the epoch service build on."""

    def test_tasks_cover_positive_types_in_order(self):
        job = Job((4, 0, 3))
        scenario = paper_scenario(
            60, job, 5, distribution=UserDistribution(num_types=3)
        )
        mech = RIT(rng_policy="per-type")
        tasks = sorted_tasks(mech, job, scenario.truthful_asks(), 7)
        assert [(tau, m_i) for tau, m_i, *_ in tasks] == [(0, 4), (2, 3)]

    def test_stream_tasks_share_one_generator(self):
        job, asks, _ = scenario_inputs()
        mech = RIT(rng_policy="stream")
        gen = as_generator(3)
        tasks = sorted_tasks(mech, job, asks, gen)
        assert all(task[-1] is gen for task in tasks)

    def test_per_type_tasks_run_in_any_order_and_concurrently(self):
        job, asks, tree = scenario_inputs()
        seed = 11
        for engine in ("sorted", "reference"):
            mech = RIT(
                engine=engine,
                rng_policy="per-type",
                round_budget="until-complete",
            )
            whole = mech.run(job, asks, tree, seed)
            tasks = sorted_tasks(mech, job, asks, seed)
            backwards = {
                task[0]: mech.run_type_shard(*task)
                for task in reversed(tasks)
            }
            reversed_join = mech.join_shards(
                job, asks, tree, [backwards[tau] for tau, *_ in tasks]
            )
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [
                    pool.submit(mech.run_type_shard, *task)
                    for task in sorted_tasks(mech, job, asks, seed)
                ]
                threaded = [future.result() for future in futures]
            threaded_join = mech.join_shards(job, asks, tree, threaded)
            expected = canonical_outcome(whole)
            assert canonical_outcome(reversed_join) == expected
            assert canonical_outcome(threaded_join) == expected

    def test_k_max_override_wins(self):
        job, asks, _ = scenario_inputs()
        mech = RIT(rng_policy="per-type", k_max=99)
        assert {task[3] for task in sorted_tasks(mech, job, asks, 1)} == {99}


class TestStageSeconds:
    """Stage seconds are span durations: one span per stage per round."""

    def test_every_round_span_holds_its_stages(self):
        job, asks, tree = scenario_inputs()
        tracer = Tracer("stages")
        mech = RIT(
            engine="sorted",
            rng_policy="per-type",
            round_budget="until-complete",
            tracer=tracer,
        )
        outcome = mech.run(job, asks, tree, 11)
        names = {}
        children = {}
        for e in tracer.events:
            if e["ev"] == "span_start":
                names[e["id"]] = e["name"]
                children.setdefault(e["parent"], []).append(e["name"])
        rounds = [sid for sid, name in names.items() if name == "round"]
        assert len(rounds) == len(outcome.rounds)
        for sid, record in zip(rounds, outcome.rounds):
            stages = children.get(sid, [])
            # Every round samples and updates capacity; consensus and
            # select only run when the sample is non-empty and n_s > 0.
            assert stages[0] == "sample" and stages[-1] == "consume"
            assert stages in (
                ["sample", "consume"],
                ["sample", "consensus", "consume"],
                list(STAGE_NAMES),
            )
            if record.num_winners:
                assert stages == list(STAGE_NAMES)
        stage_parents = {
            names[parent]
            for parent, kids in children.items()
            for kid in kids
            if kid in STAGE_NAMES
        }
        assert stage_parents == {"round"}

    def test_reference_engine_reports_no_stages(self):
        job, asks, tree = scenario_inputs()
        tracer = Tracer("reference")
        mech = RIT(engine="reference", rng_policy="per-type", tracer=tracer)
        for task in sorted_tasks(mech, job, asks, 11):
            mech.run_type_shard(*task)
        mech.run(job, asks, tree, 11)
        names = {e["name"] for e in tracer.events if e["ev"] == "span_start"}
        assert "round" in names
        assert not names & set(STAGE_NAMES)
