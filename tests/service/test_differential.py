"""The service's correctness anchor: online == offline, bit for bit.

For a fixed root seed and admitted event stream, the concurrent sharded
service must produce epoch outcomes *bit-identical* to running the plain
offline ``RIT.run`` (``rng_policy="per-type"``) over the cumulative state
at each epoch close — identical payments, winners, and round diagnostics
(which pin the underlying RNG draws).  The seeded scenarios cover
count-triggered and tick-triggered epochs, both registry engines, and
withdrawal grafting mid-stream.
"""

import pytest

from repro.core.rit import RIT
from repro.core.rng import spawn_seeds
from repro.service import (
    MechanismService,
    ServiceConfig,
    build_scenario,
    differential_check,
    replay_outcomes,
    scenario_event_stream,
)

SCENARIOS = [
    # (seed, users, types, tasks_per_type, epoch_events, epoch_ticks,
    #  withdraw_fraction, engine)
    pytest.param(5, 120, 3, 6, 32, None, 0.0, "sorted", id="seed5-count-sorted"),
    pytest.param(9, 200, 4, 8, 24, 40, 0.05, "sorted", id="seed9-ticks-sorted"),
    pytest.param(13, 150, 2, 10, 48, 25, 0.1, "reference", id="seed13-ticks-reference"),
    pytest.param(17, 180, 3, 7, 28, None, 0.08, "sorted", id="seed17-count-sorted"),
    pytest.param(23, 140, 4, 6, 30, 35, 0.12, "sorted", id="seed23-ticks-sorted"),
]


@pytest.mark.parametrize(
    "seed,users,types,tasks_per_type,epoch_events,epoch_ticks,"
    "withdraw_fraction,engine",
    SCENARIOS,
)
def test_sharded_service_is_bit_identical_to_offline_replay(
    seed, users, types, tasks_per_type, epoch_events, epoch_ticks,
    withdraw_fraction, engine,
):
    scenario_rng, stream_rng = spawn_seeds(seed, 2)
    scenario = build_scenario(users, types, tasks_per_type, scenario_rng)
    events = scenario_event_stream(
        scenario, stream_rng, withdraw_fraction=withdraw_fraction
    )
    config = ServiceConfig(
        seed=seed,
        epoch_max_events=epoch_events,
        epoch_max_ticks=epoch_ticks,
    )
    service = MechanismService(
        RIT(engine=engine, rng_policy="per-type", round_budget="until-complete"),
        scenario.job,
        config,
    )
    report = service.serve_stream(events)
    assert len(report.epochs) >= 3  # a meaningful multi-epoch run

    replayed = replay_outcomes(
        report.consumed,
        scenario.job,
        RIT(engine=engine, rng_policy="per-type", round_budget="until-complete"),
        seed=seed,
        policy=config.policy(),
    )
    problems = differential_check(
        report.outcomes(), [outcome for _, outcome in replayed]
    )
    assert problems == []
    # The replay cut the same batches from the same stream.
    assert [batch.index for batch, _ in replayed] == [
        epoch.index for epoch in report.epochs
    ]
    assert [batch.num_events for batch, _ in replayed] == [
        epoch.batch_events for epoch in report.epochs
    ]


def test_differential_check_reports_mismatches():
    scenario_rng, stream_rng = spawn_seeds(5, 2)
    scenario = build_scenario(80, 2, 5, scenario_rng)
    events = scenario_event_stream(scenario, stream_rng)
    mech = RIT(rng_policy="per-type", round_budget="until-complete")
    service = MechanismService(
        mech, scenario.job, ServiceConfig(seed=5, epoch_max_events=40)
    )
    report = service.serve_stream(events)
    replayed = replay_outcomes(
        report.consumed,
        scenario.job,
        RIT(rng_policy="per-type", round_budget="until-complete"),
        seed=6,  # wrong root seed: outcomes must differ
        policy=service.config.policy(),
    )
    problems = differential_check(
        report.outcomes(), [outcome for _, outcome in replayed]
    )
    assert problems != []
