"""End-to-end MechanismService runs: counters, ledger, tracing, sharding."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.rit import RIT
from repro.core.rng import spawn_seeds
from repro.devtools.trace_schema import validate_trace_events
from repro.obs import Tracer
from repro.service import (
    MechanismService,
    OutcomeLedger,
    ServiceConfig,
    build_scenario,
    canonical_outcome,
    scenario_event_stream,
)


def mechanism(**overrides):
    params = dict(rng_policy="per-type", round_budget="until-complete")
    params.update(overrides)
    return RIT(**params)


def small_stream(seed=0, users=120, types=3, tasks_per_type=6, withdraw=0.05):
    scenario_rng, stream_rng = spawn_seeds(seed, 2)
    scenario = build_scenario(users, types, tasks_per_type, scenario_rng)
    events = scenario_event_stream(
        scenario, stream_rng, withdraw_fraction=withdraw
    )
    return scenario, events


class TestConstruction:
    def test_stream_policy_rejected(self):
        scenario, _ = small_stream()
        with pytest.raises(ConfigurationError):
            MechanismService(RIT(rng_policy="stream"), scenario.job)


class TestServeStream:
    def test_counters_and_epoch_coverage(self):
        scenario, events = small_stream()
        service = MechanismService(
            mechanism(), scenario.job, ServiceConfig(seed=0, epoch_max_events=32)
        )
        report = service.serve_stream(events)
        assert report.offered == len(events)
        assert report.accepted == len(events)  # closed-loop: nothing dropped
        assert report.rejected == 0
        assert len(report.consumed) == report.accepted
        assert report.applied + report.refused == len(report.consumed)
        assert sum(e.batch_events for e in report.epochs) == report.applied
        assert [e.index for e in report.epochs] == list(range(len(report.epochs)))
        assert report.queue_highwater <= service.config.queue_size

    def test_ledger_records_every_epoch(self, tmp_path):
        scenario, events = small_stream()
        ledger = OutcomeLedger(tmp_path, "svc-test")
        service = MechanismService(
            mechanism(),
            scenario.job,
            ServiceConfig(seed=0, epoch_max_events=32),
            ledger=ledger,
        )
        report = service.serve_stream(events)
        records = ledger.read_epochs()
        assert len(records) == len(report.epochs)
        meta = ledger.read_meta()
        assert meta["rng_policy"] == "per-type"
        # Ledger lines are the canonical projection of the in-memory outcome.
        for record, epoch in zip(records, report.epochs):
            assert record["outcome"] == canonical_outcome(epoch.outcome)
            assert record["batch_events"] == epoch.batch_events

    def test_trace_is_schema_valid_with_service_counters(self):
        scenario, events = small_stream(users=80, tasks_per_type=4)
        tracer = Tracer("svc-trace", seed=0)
        service = MechanismService(
            mechanism(),
            scenario.job,
            ServiceConfig(seed=0, epoch_max_events=32),
            tracer=tracer,
        )
        service.serve_stream(events)
        assert validate_trace_events(tracer.events) == []
        names = {e.get("name") for e in tracer.events}
        assert {"service", "epoch", "shard", "join"} <= names
        counters = {
            e["name"] for e in tracer.events if e["ev"] == "counter"
        }
        assert {
            "service_events_offered",
            "service_events_accepted",
            "service_events_applied",
            "service_epochs_closed",
            "service_shards_run",
        } <= counters
