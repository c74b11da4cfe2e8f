"""The service telemetry plane (`repro.service.telemetry`)."""

import pytest

from repro.core.outcome import MechanismOutcome
from repro.core.rit import RIT
from repro.core.rng import spawn_seeds
from repro.obs import Tracer, canonical_events
from repro.service import (
    WIN_RATE_DEPTH_CAP,
    MechanismService,
    ServiceConfig,
    ServiceTelemetry,
    build_scenario,
    canonical_outcome,
    epoch_gauges,
    scenario_event_stream,
)
from repro.tree.incentive_tree import ROOT, IncentiveTree


def small_run(seed=0, users=100, types=3, tasks_per_type=5, **kwargs):
    scenario_rng, stream_rng = spawn_seeds(seed, 2)
    scenario = build_scenario(users, types, tasks_per_type, scenario_rng)
    events = scenario_event_stream(
        scenario, stream_rng, withdraw_fraction=0.05
    )
    mechanism = RIT(rng_policy="per-type", round_budget="until-complete")
    service = MechanismService(
        mechanism,
        scenario.job,
        ServiceConfig(seed=seed, epoch_max_events=32),
        **kwargs,
    )
    report = service.serve_stream(events)
    return service, report


def chain_tree():
    tree = IncentiveTree()
    tree.attach(1, ROOT)
    tree.attach(2, 1)
    tree.attach(3, 1)
    tree.attach(4, 2)
    return tree


class TestEpochGauges:
    def test_pure_function_of_outcome_and_tree(self):
        tree = chain_tree()
        outcome = MechanismOutcome(allocation={1: 2, 3: 1, 4: 0})
        a = epoch_gauges(outcome, tree)
        b = epoch_gauges(outcome, tree)
        assert a == b
        assert list(a) == sorted(a)  # deterministic name-sorted order

    def test_depth_surface(self):
        tree = chain_tree()  # depths: 1→1, 2→2, 3→2, 4→3
        outcome = MechanismOutcome(allocation={1: 2, 3: 1, 4: 0})
        gauges = epoch_gauges(outcome, tree)
        assert gauges["epoch_participants"] == 4.0
        assert gauges["referral_depth_max"] == 3.0
        assert gauges["referral_depth_mean"] == pytest.approx(8 / 4)
        assert gauges["win_rate/depth1"] == 1.0  # user 1 won
        assert gauges["win_rate/depth2"] == 0.5  # 3 won, 2 did not
        assert gauges["win_rate/depth3"] == 0.0  # zero allocation ≠ win

    def test_empty_tree(self):
        gauges = epoch_gauges(MechanismOutcome(), IncentiveTree())
        assert gauges["epoch_participants"] == 0.0
        assert gauges["referral_depth_max"] == 0.0
        assert gauges["referral_depth_mean"] == 0.0
        assert not any(name.startswith("win_rate/") for name in gauges)

    def test_depth_cap_folds_deep_chains(self):
        tree = IncentiveTree()
        previous = ROOT
        for uid in range(1, 15):  # chain far deeper than the cap
            tree.attach(uid, previous)
            previous = uid
        gauges = epoch_gauges(MechanismOutcome(allocation={14: 1}), tree)
        levels = {
            int(name.split("depth")[1])
            for name in gauges
            if name.startswith("win_rate/")
        }
        assert max(levels) == WIN_RATE_DEPTH_CAP
        # The depth-14 winner folded into the cap level's population of 7.
        assert gauges[f"win_rate/depth{WIN_RATE_DEPTH_CAP}"] == pytest.approx(
            1 / 7
        )


class TestServiceTelemetry:
    def test_ring_is_bounded(self):
        telemetry = ServiceTelemetry(ring_size=2)
        tree = chain_tree()
        for index in range(5):
            telemetry.close_epoch(
                index=index,
                batch_events=10,
                users=4,
                latency_seconds=0.01,
                outcome=MechanismOutcome(allocation={1: 1}),
                tree=tree,
            )
        frames = telemetry.recent_frames()
        assert [f["epoch"] for f in frames] == [3, 4]  # oldest evicted
        assert telemetry.epochs_closed == 5

    def test_ring_size_validated(self):
        with pytest.raises(ValueError):
            ServiceTelemetry(ring_size=0)

    def test_shard_observations_fold_into_next_frame(self):
        telemetry = ServiceTelemetry()
        telemetry.observe_shard(0.2)
        telemetry.observe_shard(0.3)
        frame = telemetry.close_epoch(
            index=0,
            batch_events=5,
            users=4,
            latency_seconds=0.6,
            outcome=MechanismOutcome(),
            tree=chain_tree(),
        )
        assert frame["shards"] == 2
        assert frame["shard_seconds"] == pytest.approx(0.5)
        # The accumulator resets per epoch.
        next_frame = telemetry.close_epoch(
            index=1, batch_events=1, users=4, latency_seconds=0.1,
            outcome=MechanismOutcome(), tree=chain_tree(),
        )
        assert next_frame["shards"] == 0

    def test_slo_summary_shape(self):
        service, report = small_run()
        slo = service.telemetry.slo_summary()
        assert slo["epochs_closed"] == len(report.epochs)
        assert slo["shards_run"] == service.telemetry.shards_run > 0
        for key in ("ingest", "epoch", "shard", "queue_depth", "batch_events"):
            summary = slo[key]
            assert set(summary) == {
                "count", "sum", "min", "max", "p50", "p95", "p99",
            }
            if summary["count"]:
                assert (
                    summary["min"] <= summary["p50"] <= summary["p95"]
                    <= summary["p99"] <= summary["max"]
                )
        assert slo["epoch"]["count"] == len(report.epochs)
        assert slo["batch_events"]["sum"] == float(report.applied)

    def test_counters_snapshot_names_are_cataloged(self):
        from repro.obs.catalog import COUNTER_CATALOG

        service, _ = small_run()
        snapshot = service.telemetry.counters_snapshot(
            {"service_events_offered": service.frontend.offered}
        )
        for name, entry in snapshot.items():
            assert name in COUNTER_CATALOG, name
            assert entry["unit"] == "count"

    def test_phase_transitions(self):
        service, _ = small_run()
        assert service.telemetry.phase == "drained"


class TestDifferentialWithTelemetry:
    def test_telemetry_and_tracing_leave_outcomes_bit_identical(self):
        plain_service, plain = small_run(seed=7)
        tracer = Tracer("telemetry-diff", seed=7)
        traced_service, traced = small_run(
            seed=7, tracer=tracer, telemetry=ServiceTelemetry(ring_size=8)
        )
        assert len(plain.epochs) == len(traced.epochs)
        for a, b in zip(plain.epochs, traced.epochs):
            assert canonical_outcome(a.outcome) == canonical_outcome(b.outcome)
        # The traced run recorded the distribution mirror.
        kinds = {e.get("ev") for e in tracer.events}
        assert "distribution" in kinds

    def test_traced_rerun_canonical_stream_is_stable(self):
        streams = []
        for _ in range(2):
            tracer = Tracer("telemetry-rerun", seed=3)
            small_run(seed=3, tracer=tracer)
            streams.append(canonical_events(tracer.events))
        assert streams[0] == streams[1]

    def test_gauges_match_final_epoch_frame(self):
        service, _ = small_run()
        frames = service.telemetry.recent_frames()
        assert frames, "run closed no epochs"
        last = frames[-1]
        for name, value in last["gauges"].items():
            assert service.telemetry.gauges[name]["value"] == value
