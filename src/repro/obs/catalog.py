"""Counter catalog: every counter name the instrumented stack may emit.

The catalog is the contract between the emitters (``repro.core.rit``,
``repro.attacks.evaluator``, the simulation runners, ``report``) and the
consumers (the trace schema validator, ``docs/observability.md``, the
Prometheus export).  A counter event whose name is not a catalog entry
is a schema violation.  Counters count — every entry has unit
``"count"`` — and durations are spans, so no entry measures time.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["COUNTER_CATALOG", "catalog_markdown_table"]

#: Counter name → description.
COUNTER_CATALOG: Dict[str, str] = {
    # repro.core.rit — mechanism lifecycle
    "mechanism_runs": "Mechanism.run invocations",
    "runs_completed": "runs whose allocation covered the job",
    "runs_voided": "runs voided by Algorithm 3 line 27",
    "types_covered": "task types fully allocated in the auction phase",
    # repro.core.rit — CRA round loop (Algorithm 3 lines 8-21)
    "cra_rounds": "CRA rounds executed across all task types",
    "winners_selected": "winning unit asks across all rounds",
    "tasks_allocated": "tasks assigned (one per winning unit)",
    "zero_winner_rounds": "rounds that selected no winner",
    "overflow_trims": "rounds that hit the Algorithm 1 line 13-16 trim",
    "fenwick_rebuilds": "Fenwick capacity-state rebuilds (sorted engine)",
    # repro.core.cra / repro.core.engine — sample stage (Algorithm 1 lines 2-4)
    "sample_units_drawn": "unit asks drawn into CRA price samples",
    "empty_samples": "CRA rounds whose price sample was empty",
    # repro.core.payments — payment determination (Algorithm 3 lines 22-25)
    "payment_recipients": "users with a non-zero final payment",
    "payments_pruned": "zero-valued payments dropped from the outcome",
    "tree_payment_nodes": "tree nodes visited by tree_payments",
    # repro.attacks.evaluator
    "attack_comparisons": "paired honest-vs-attack mechanism runs",
    "sybil_identities_spawned": "fake identities materialized by sybil attacks",
    "misreports_evaluated": "misreport deviations evaluated",
    # repro.simulation.runner / parallel
    "reps_completed": "simulation repetitions measured",
    "worker_traces_merged": "per-worker event sinks absorbed by the parent",
    # repro.service — ingestion frontend
    "service_events_offered": "events presented to the ingestion frontend",
    "service_events_accepted": "events admitted into the ingestion queue",
    "service_events_invalid": "events refused by structural validation",
    "service_events_rejected": "events rejected by queue backpressure",
    "service_queue_highwater": "new ingestion-queue depth peaks (delta = peak growth)",
    # repro.service — state machine and epoch scheduler
    "service_events_applied": "events applied to the cumulative service state",
    "service_events_refused": "events refused by stateful admission checks",
    "service_events_gated": "events refused by the sentinel admission gate at the frontend",
    "service_epochs_closed": "epoch batches closed and executed",
    "service_shards_run": "per-type auction shards executed by workers",
    # repro.sentinel — streaming attack detectors
    "sentinel_alerts": "anomaly alerts raised by the sentinel detector plane",
    # repro.arena — head-to-head mechanism arena
    "arena_replays": "full stream replays executed by the arena harness",
    "arena_epochs_run": "epochs executed across arena replays",
    "arena_posted_wins": "posted-price wins granted by the OMG mechanism",
    "arena_lottery_payouts": "identities paid by a settled GLT lottery epoch",
    # repro.simulation.report
    "figures_rendered": "report figures rendered",
    "shape_checks_passed": "qualitative shape checks that passed",
    "shape_checks_failed": "qualitative shape checks that failed",
}


def catalog_markdown_table() -> str:
    """The counter table committed in ``docs/observability.md``, generated.

    The doc embeds this function's exact output between the
    ``<!-- COUNTER_CATALOG:begin -->`` / ``:end`` markers, and the
    catalog-drift self-gate (``tests/obs/test_catalog_gate.py``)
    regenerates it on every run — a counter added to the catalog without
    refreshing the doc (or vice versa) fails the suite instead of rotting
    silently.
    """
    lines = ["| counter | meaning |", "|---|---|"]
    for name, description in COUNTER_CATALOG.items():
        lines.append(f"| `{name}` | {description} |")
    return "\n".join(lines)

