"""Counter catalog: every counter name the instrumented stack may emit.

The catalog is the contract between the emitters (``repro.core.rit``,
``repro.attacks.evaluator``, the simulation runners, ``report``) and the
consumers (the trace schema validator, ``docs/observability.md``, the
Prometheus export).  A counter event whose name is neither an exact
catalog entry nor prefixed by a registered family is a schema violation.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

__all__ = [
    "COUNTER_CATALOG",
    "COUNTER_FAMILIES",
    "catalog_markdown_table",
    "describe_counter",
]

#: Exact counter names → (unit, description).
COUNTER_CATALOG: Dict[str, Tuple[str, str]] = {
    # repro.core.rit — mechanism lifecycle
    "mechanism_runs": ("count", "Mechanism.run invocations"),
    "runs_completed": ("count", "runs whose allocation covered the job"),
    "runs_voided": ("count", "runs voided by Algorithm 3 line 27"),
    "types_covered": ("count", "task types fully allocated in the auction phase"),
    # repro.core.rit — CRA round loop (Algorithm 3 lines 8-21)
    "cra_rounds": ("count", "CRA rounds executed across all task types"),
    "winners_selected": ("count", "winning unit asks across all rounds"),
    "tasks_allocated": ("count", "tasks assigned (one per winning unit)"),
    "zero_winner_rounds": ("count", "rounds that selected no winner"),
    "overflow_trims": ("count", "rounds that hit the Algorithm 1 line 13-16 trim"),
    "fenwick_rebuilds": ("count", "Fenwick capacity-state rebuilds (sorted engine)"),
    # repro.core.cra / repro.core.engine — sample stage (Algorithm 1 lines 2-4)
    "sample_units_drawn": ("count", "unit asks drawn into CRA price samples"),
    "empty_samples": ("count", "CRA rounds whose price sample was empty"),
    # repro.core.payments — payment determination (Algorithm 3 lines 22-25)
    "payment_recipients": ("count", "users with a non-zero final payment"),
    "payments_pruned": ("count", "zero-valued payments dropped from the outcome"),
    "tree_payment_nodes": ("count", "tree nodes visited by tree_payments"),
    # repro.attacks.evaluator
    "attack_comparisons": ("count", "paired honest-vs-attack mechanism runs"),
    "sybil_identities_spawned": ("count", "fake identities materialized by sybil attacks"),
    "misreports_evaluated": ("count", "misreport deviations evaluated"),
    # repro.simulation.runner / parallel
    "reps_completed": ("count", "simulation repetitions measured"),
    "worker_traces_merged": ("count", "per-worker event sinks absorbed by the parent"),
    # repro.service — ingestion frontend
    "service_events_offered": ("count", "events presented to the ingestion frontend"),
    "service_events_accepted": ("count", "events admitted into the ingestion queue"),
    "service_events_invalid": ("count", "events refused by structural validation"),
    "service_events_rejected": ("count", "events rejected by queue backpressure"),
    "service_queue_highwater": ("count", "new ingestion-queue depth peaks (delta = peak growth)"),
    # repro.service — state machine and epoch scheduler
    "service_events_applied": ("count", "events applied to the cumulative service state"),
    "service_events_refused": ("count", "events refused by stateful admission checks"),
    "service_events_gated": ("count", "events refused by the sentinel admission gate at the frontend"),
    "service_epochs_closed": ("count", "epoch batches closed and executed"),
    "service_shards_run": ("count", "per-type auction shards executed by workers"),
    # repro.sentinel — streaming attack detectors
    "sentinel_alerts": ("count", "anomaly alerts raised by the sentinel detector plane"),
    # repro.arena — head-to-head mechanism arena
    "arena_replays": ("count", "full stream replays executed by the arena harness"),
    "arena_epochs_run": ("count", "epochs executed across arena replays"),
    "arena_posted_wins": ("count", "posted-price wins granted by the OMG mechanism"),
    "arena_lottery_payouts": ("count", "identities paid by a settled GLT lottery epoch"),
    # repro.simulation.report
    "figures_rendered": ("count", "report figures rendered"),
    "shape_checks_passed": ("count", "qualitative shape checks that passed"),
    "shape_checks_failed": ("count", "qualitative shape checks that failed"),
    # engine stage timings (measured seconds; excluded from canonical stream)
    "stage_seconds/sample": ("seconds", "CRA sample stage, summed over rounds"),
    "stage_seconds/consensus": ("seconds", "CRA consensus stage, summed over rounds"),
    "stage_seconds/select": ("seconds", "CRA select stage, summed over rounds"),
    "stage_seconds/consume": ("seconds", "capacity consume stage, summed over rounds"),
}

#: Prefix families for dynamically-named counters: prefix → (unit, description).
COUNTER_FAMILIES: Dict[str, Tuple[str, str]] = {
    "figure_seconds/": ("seconds", "per-figure render time in report generation"),
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
    lines = ["| counter | unit | meaning |", "|---|---|---|"]
    for name, (unit, description) in COUNTER_CATALOG.items():
        lines.append(f"| `{name}` | {unit} | {description} |")
    for prefix, (unit, description) in COUNTER_FAMILIES.items():
        lines.append(
            f"| `{prefix}*` | {unit} | {description} (family prefix) |"
        )
    return "\n".join(lines)


def describe_counter(name: str) -> Optional[Tuple[str, str]]:
    """``(unit, description)`` for a counter name, or None if uncataloged."""
    spec = COUNTER_CATALOG.get(name)
    if spec is not None:
        return spec
    for prefix, family_spec in COUNTER_FAMILIES.items():
        if name.startswith(prefix):
            return family_spec
    return None
