"""The `rit sentinel` empirical gate (`repro.sentinel.harness`)."""

import json

from repro.devtools.bench import _validate_sentinel_section, validate_bench_schema
from repro.sentinel.harness import (
    ATTACK_SCENARIOS,
    CLEAN_SCENARIOS,
    DEFAULT_DETECTION_BUDGET,
    _drive,
    attack_result_doc,
    render_sentinel_report,
    run_sentinel_report,
)


class TestPinnedScenarios:
    def test_three_graph_regimes_pinned(self):
        assert [s["graph"] for s in CLEAN_SCENARIOS] == [
            "twitter", "watts-strogatz", "forest-fire",
        ]

    def test_all_attack_kinds_pinned(self):
        assert [s["kind"] for s in ATTACK_SCENARIOS] == [
            "sybil", "collusion", "churn",
        ]


class TestSmokeReport:
    def test_smoke_gate_passes_and_validates(self):
        section, problems = run_sentinel_report(smoke=True)
        assert problems == []
        assert section["detection_within_k"] is True
        assert section["zero_false_positives"] is True
        assert len(section["clean"]) == 1
        assert len(section["attacks"]) == 1
        assert section["clean"][0]["differential_ok"] is True
        assert section["attacks"][0]["kind"] == "sybil"
        assert section["attacks"][0]["epochs_to_detect"] <= section["k"]
        # The section is what lands in BENCH_RIT.json: schema-clean both
        # standalone and mounted on a versioned document.
        assert _validate_sentinel_section(section) == []
        mounted = [
            e
            for e in validate_bench_schema(
                {"schema_version": 1, "sentinel": section}
            )
            if e.startswith("sentinel")
        ]
        assert mounted == []
        assert json.loads(json.dumps(section)) == section

    def test_render_mentions_verdicts(self):
        section, _ = run_sentinel_report(smoke=True)
        text = render_sentinel_report(section)
        assert "detection within K=3: True" in text
        assert "zero false positives: True" in text
        assert "sybil" in text


class TestDrive:
    def test_collusion_on_watts_strogatz_detected_within_k(self):
        base = {"seed": 5, "users": 400, "types": 3, "tasks_per_type": 6,
                "epoch_max_events": 32, "graph": "watts-strogatz"}
        attack = {"kind": "collusion", "onset_epoch": 5, "attack_seed": 202}
        plane, report, schedule, problems = _drive(base, attack=attack)
        assert problems == []
        assert report.gated == 0
        assert schedule["seed"] == 202
        entry = attack_result_doc(plane, schedule)
        assert entry["kind"] == "collusion"
        assert entry["alerts_before_onset"] == 0
        assert 0 <= entry["epochs_to_detect"] <= DEFAULT_DETECTION_BUDGET
