"""Seeded open-loop load generator for the mechanism service.

Turns a :class:`repro.workloads.scenarios.Scenario` into an ordered
ingestion stream: referral edges and ask submissions in solicitation
(BFS) order — a parent always solicits before a child joins, exactly how
the incentive tree grows in §4 — followed by an optional seeded cohort of
withdrawals.  Virtual-time ticks advance by seeded integer gaps, so the
epoch scheduler's Δ-tick trigger is exercised deterministically.

``run_service_bench`` is the ``rit loadgen --bench`` engine: it drives
the stream open-loop through a full :class:`~repro.service.service
.MechanismService` (bounded queue, sharded workers, ledger off) and
reports throughput and epoch-latency percentiles as the ``service``
section of ``BENCH_RIT.json`` (see
:func:`repro.devtools.bench.validate_bench_schema`).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.core.exceptions import ConfigurationError
from repro.core.rit import RIT
from repro.core.rng import SeedLike, as_generator, spawn_seeds
from repro.core.types import Job
from repro.service.events import AskSubmitted, ReferralEdge, ServiceEvent, Withdrawal
from repro.service.service import MechanismService, ServiceConfig
from repro.socialnet.generators import forest_fire, twitter_like, watts_strogatz
from repro.socialnet.graph import SocialGraph
from repro.tree.incentive_tree import ROOT
from repro.workloads.scenarios import Scenario, paper_scenario
from repro.workloads.users import UserDistribution

__all__ = [
    "GRAPH_REGIMES",
    "scenario_event_stream",
    "build_scenario",
    "run_service_bench",
]


def _twitter_graph(num_users: int, rng: SeedLike = None) -> SocialGraph:
    return twitter_like(num_users, rng=rng, mean_out_degree=12.0)


def _watts_strogatz_graph(num_users: int, rng: SeedLike = None) -> SocialGraph:
    return watts_strogatz(num_users, rng=rng)


def _forest_fire_graph(num_users: int, rng: SeedLike = None) -> SocialGraph:
    return forest_fire(num_users, rng=rng)


#: Social-graph regimes a loadgen scenario can grow its tree over
#: (``rit loadgen --graph``): the twitter-like default plus the
#: small-world and forest-fire generators from
#: :mod:`repro.socialnet.generators`, so attack and bench runs cover
#: more than one solicitation-forest shape.
GRAPH_REGIMES = {
    "twitter": _twitter_graph,
    "watts-strogatz": _watts_strogatz_graph,
    "forest-fire": _forest_fire_graph,
}


def scenario_event_stream(
    scenario: Scenario,
    rng: SeedLike = None,
    *,
    withdraw_fraction: float = 0.0,
    max_gap_ticks: int = 2,
) -> List[ServiceEvent]:
    """The scenario's solicitation history as an ordered event stream.

    Ticks start at 0 and advance by a seeded draw from
    ``{0, …, max_gap_ticks}`` before every event.  ``withdraw_fraction``
    of the joined users (seeded choice, without replacement) withdraw
    after the last join — their subtrees are grafted upward by the
    service state machine.
    """
    if not 0.0 <= withdraw_fraction < 1.0:
        raise ConfigurationError(
            f"withdraw_fraction must be in [0, 1), got {withdraw_fraction}"
        )
    if max_gap_ticks < 0:
        raise ConfigurationError(
            f"max_gap_ticks must be >= 0, got {max_gap_ticks}"
        )
    gen = as_generator(rng)
    parents = scenario.tree.to_parent_map()
    events: List[ServiceEvent] = []
    tick = 0

    def advance() -> int:
        nonlocal tick
        tick += int(gen.integers(0, max_gap_ticks + 1))
        return tick

    joined: List[int] = []
    for uid in scenario.tree.bfs_order():
        if uid not in scenario.population:
            continue
        parent = parents.get(uid, ROOT)
        if parent != ROOT:
            events.append(
                ReferralEdge(tick=advance(), parent_id=parent, child_id=uid)
            )
        ask = scenario.population[uid].truthful_ask()
        events.append(
            AskSubmitted(
                tick=advance(),
                user_id=uid,
                task_type=ask.task_type,
                capacity=ask.capacity,
                value=ask.value,
            )
        )
        joined.append(uid)
    num_withdraw = int(withdraw_fraction * len(joined))
    if num_withdraw:
        leavers = gen.choice(len(joined), size=num_withdraw, replace=False)
        for position in leavers.tolist():
            events.append(Withdrawal(tick=advance(), user_id=joined[position]))
    return events


def build_scenario(
    users: int,
    types: int,
    tasks_per_type: int,
    rng: SeedLike = None,
    *,
    graph: str = "twitter",
) -> Scenario:
    """The §7-A scenario at loadgen scale with a right-sized job.

    The user distribution is re-typed to the job's type count — the
    stock §7-A distribution spreads users over 10 types, which would make
    most asks structurally invalid against a smaller job.  ``graph``
    names a :data:`GRAPH_REGIMES` entry; all regimes consume the same
    spawned RNG streams, so switching regimes changes only the
    solicitation forest, never the user profiles.
    """
    builder = GRAPH_REGIMES.get(graph)
    if builder is None:
        raise ConfigurationError(
            f"unknown graph regime {graph!r}; expected one of "
            f"{sorted(GRAPH_REGIMES)}"
        )
    return paper_scenario(
        users,
        Job.uniform(types, tasks_per_type),
        rng,
        distribution=UserDistribution(num_types=types),
        graph_builder=builder,
    )


def run_service_bench(
    *,
    users: int = 26000,
    types: int = 4,
    tasks_per_type: int = 50,
    seed: int = 0,
    epoch_max_events: int = 8192,
    epoch_max_ticks: Optional[int] = None,
    queue_size: int = 4096,
    withdraw_fraction: float = 0.02,
    engine: str = "sorted",
    min_events: int = 0,
    graph: str = "twitter",
    attack: Optional[str] = None,
    attack_epoch: int = 4,
    attack_seed: Optional[int] = None,
) -> Dict[str, Any]:
    """Drive one open-loop service run; returns the bench ``service`` doc.

    With the defaults the generated stream carries >= 50k events
    (referral + ask per non-root user, plus withdrawals).  ``min_events``
    asserts a floor on the generated stream — the bench refuses to
    silently measure a smaller workload than asked for.

    ``attack`` rewrites the stream with a seeded adversary burst
    (:func:`repro.sentinel.attacks.inject_attack`) at ``attack_epoch``
    and attaches a :class:`~repro.sentinel.plane.SentinelPlane`; the
    result then carries a ``sentinel`` fragment (detection latency,
    alert counts, the injection schedule) that the CLI merges into
    ``BENCH_RIT.json``'s ``sentinel`` section.
    """
    if users <= 0:
        raise ConfigurationError(f"users must be positive, got {users}")
    scenario_rng, stream_rng = spawn_seeds(seed, 2)
    scenario = build_scenario(
        users, types, tasks_per_type, scenario_rng, graph=graph
    )
    events = scenario_event_stream(
        scenario, stream_rng, withdraw_fraction=withdraw_fraction
    )
    if len(events) < min_events:
        raise ConfigurationError(
            f"generated stream has {len(events)} events, below the "
            f"requested floor {min_events}; raise --users"
        )
    schedule: Optional[Dict[str, Any]] = None
    sentinel = None
    if attack is not None:
        # Lazy import: repro.sentinel imports repro.service, so the
        # dependency must stay one-way at module-load time.
        from repro.sentinel.attacks import inject_attack
        from repro.sentinel.plane import SentinelPlane

        events, schedule = inject_attack(
            events,
            scenario.job,
            kind=attack,
            onset_epoch=attack_epoch,
            epoch_max_events=epoch_max_events,
            seed=attack_seed if attack_seed is not None else seed,
        )
        schedule["seed"] = attack_seed if attack_seed is not None else seed
        sentinel = SentinelPlane()
    # until-complete so epochs actually cover the job and exercise the
    # payment phase — a voided epoch skips tree_payments entirely and
    # would make the latency numbers flattering.
    mechanism = RIT(
        engine=engine, rng_policy="per-type", round_budget="until-complete"
    )
    config = ServiceConfig(
        seed=seed,
        queue_size=queue_size,
        epoch_max_events=epoch_max_events,
        epoch_max_ticks=epoch_max_ticks,
    )
    service = MechanismService(
        mechanism,
        scenario.job,
        config,
        sentinel=sentinel,
        meta_extra={"attack": schedule} if schedule is not None else None,
    )
    t_start = time.perf_counter()
    report = service.serve_stream(events, open_loop=True)
    elapsed = time.perf_counter() - t_start

    from repro.devtools.bench import latency_summary

    latencies = [epoch.latency_seconds for epoch in report.epochs]
    completed = sum(1 for epoch in report.epochs if epoch.outcome.completed)
    doc: Dict[str, Any] = {
        "config": {
            "users": users,
            "types": types,
            "tasks_per_type": tasks_per_type,
            "seed": seed,
            "epoch_max_events": epoch_max_events,
            "epoch_max_ticks": epoch_max_ticks,
            "queue_size": queue_size,
            "withdraw_fraction": withdraw_fraction,
            "engine": engine,
            "graph": graph,
        },
        "events": {
            "generated": len(events),
            "offered": report.offered,
            "accepted": report.accepted,
            "invalid": report.invalid,
            "rejected": report.rejected,
            "gated": report.gated,
            "applied": report.applied,
            "refused": report.refused,
        },
        "events_per_sec": report.offered / elapsed if elapsed > 0 else 0.0,
        "elapsed_seconds": elapsed,
        "epochs": {
            "count": len(report.epochs),
            "completed": completed,
            "voided": len(report.epochs) - completed,
        },
        "epoch_latency_seconds": latency_summary(latencies),
        "queue": {
            "capacity": queue_size,
            "highwater": report.queue_highwater,
        },
        # The telemetry plane's fixed-boundary histogram summaries; the
        # CLI splits this off into the bench doc's ``service_slo``
        # section (schema-validated separately).
        "slo": service.telemetry.slo_summary(),
    }
    if sentinel is not None and schedule is not None:
        from repro.sentinel.harness import sentinel_section_for_run

        doc["sentinel"] = sentinel_section_for_run(
            sentinel, schedule, graph=graph
        )
    return doc
