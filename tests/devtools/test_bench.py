"""Smoke tests for the ``rit bench`` performance baseline tooling."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.engine import STAGE_NAMES
from repro.core.exceptions import ConfigurationError
from repro.devtools.bench import (
    BENCH_SCHEMA_VERSION,
    SCENARIO_PRESETS,
    _percentile,
    merge_bench_sections,
    run_scaling_bench,
    run_scenario_bench,
    validate_bench_schema,
    write_bench,
)
from repro.obs import span_seconds

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
COMMITTED_BENCH = REPO_ROOT / "BENCH_RIT.json"

TINY = dict(users=80, types=2, tasks_per_type=5, reps=2, seed=0)


class TestRunScalingBench:
    def test_tiny_config_produces_valid_document(self):
        doc = run_scaling_bench(**TINY)
        assert validate_bench_schema(doc) == []
        assert doc["schema_version"] == BENCH_SCHEMA_VERSION
        assert set(doc["engines"]) == {"sorted", "reference"}
        assert doc["speedup_sorted_vs_reference"] > 0.0
        assert doc["speedup_vs_pre_pr"] > 0.0
        sorted_doc = doc["engines"]["sorted"]
        assert sorted_doc["completed_all_reps"] is True
        assert sorted_doc["seconds"]["min"] <= sorted_doc["seconds"]["p50"]
        assert set(sorted_doc["stages"]) == {
            "sample",
            "consensus",
            "select",
            "consume",
        }
        # The reference engine reports no stage breakdown.
        assert doc["engines"]["reference"]["stages"] == {}

    def test_stages_are_span_totals_of_traced_reps(self, monkeypatch):
        import repro.devtools.bench as bench

        totals = []

        def recording(events):
            totals.append(span_seconds(events))
            return totals[-1]

        monkeypatch.setattr(bench, "span_seconds", recording)
        doc = run_scaling_bench(**TINY, engines=("sorted",))
        assert len(totals) == TINY["reps"]
        stages = doc["engines"]["sorted"]["stages"]
        for stage in STAGE_NAMES:
            samples = [total[stage] for total in totals]
            assert stages[stage]["min"] == min(samples) > 0.0
            assert stages[stage]["p50"] > 0.0

    def test_non_positive_stage_p50_flagged(self):
        doc = run_scaling_bench(**TINY, engines=("sorted",))
        doc["engines"]["sorted"]["stages"]["select"]["p50"] = 0.0
        assert any(
            "stages.select.p50" in e for e in validate_bench_schema(doc)
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            run_scaling_bench(**{**TINY, "reps": 0})
        with pytest.raises(ConfigurationError):
            run_scaling_bench(**{**TINY, "engines": ("bogus",)})

    def test_single_engine_omits_speedups(self):
        doc = run_scaling_bench(**TINY, engines=("reference",))
        assert "speedup_sorted_vs_reference" not in doc
        assert "speedup_vs_pre_pr" not in doc
        assert validate_bench_schema(doc) == []


class TestEngineSubsets:
    def test_unrequested_engines_marked_skipped(self):
        doc = run_scaling_bench(**TINY, engines=("sorted",))
        assert doc["engines"]["reference"] == {"skipped": True}
        assert "speedup_sorted_vs_reference" not in doc
        assert doc["speedup_vs_pre_pr"] > 0.0
        assert validate_bench_schema(doc) == []

    def test_skipped_marker_must_carry_no_measurements(self):
        doc = run_scaling_bench(**TINY, engines=("sorted",))
        doc["engines"]["reference"] = {"skipped": True, "seconds": {}}
        assert any(
            "no measurements" in e for e in validate_bench_schema(doc)
        )

    def test_all_engines_skipped_flagged(self):
        doc = run_scaling_bench(**TINY, engines=("sorted",))
        for name in doc["engines"]:
            doc["engines"][name] = {"skipped": True}
        assert any(
            "every engine is skipped" in e for e in validate_bench_schema(doc)
        )

    def test_sorted_without_every_stage_flagged(self):
        doc = run_scaling_bench(**TINY, engines=("sorted",))
        del doc["engines"]["sorted"]["stages"]["consume"]
        assert any(
            "sorted.stages must cover" in e for e in validate_bench_schema(doc)
        )


class TestScenarios:
    def test_presets_cover_the_issue_scales(self):
        assert SCENARIO_PRESETS["100k"]["users"] == 100_000
        assert SCENARIO_PRESETS["1m"]["users"] == 1_000_000
        for preset in SCENARIO_PRESETS.values():
            assert tuple(preset["engines"]) == ("sorted",)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            run_scenario_bench("bogus")

    def test_unknown_scenario_name_flagged(self):
        doc = run_scaling_bench(**TINY)
        doc["scenarios"] = {"bogus": {"config": TINY, "engines": {}}}
        errors = validate_bench_schema(doc)
        assert any("unknown scenario preset" in e for e in errors)

    def test_scenario_engines_reuse_the_engine_schema(self):
        doc = run_scaling_bench(**TINY)
        doc["scenarios"] = {
            "100k": {
                "config": dict(
                    TINY, scenario_seed=2, round_budget="until-complete"
                ),
                "engines": {"sorted": {"skipped": True}},
            }
        }
        errors = validate_bench_schema(doc)
        assert any(
            "scenarios.100k.engines: every engine is skipped" in e
            for e in errors
        )


class TestValidateSchema:
    def test_rejects_non_object(self):
        assert validate_bench_schema([]) != []

    def test_reports_missing_keys(self):
        errors = validate_bench_schema({})
        assert any("schema_version" in e for e in errors)
        assert any("engines" in e for e in errors)

    def test_flags_unknown_engine_and_stage(self):
        doc = run_scaling_bench(**TINY)
        doc["engines"]["bogus"] = doc["engines"]["sorted"]
        assert any("unknown engine" in e for e in validate_bench_schema(doc))


class TestPercentile:
    """Nearest-rank: the 1-based rank is ``ceil(q · n)``."""

    def test_small_even_sets_take_the_lower_median(self):
        assert _percentile([4.0, 1.0, 3.0, 2.0], 0.50) == 2.0
        assert _percentile([float(v) for v in range(1, 9)], 0.50) == 4.0

    def test_default_reps_p95_is_the_largest_sample(self):
        # ``rit bench`` defaults to 15 reps: ceil(0.95 · 15) = 15.
        assert _percentile([float(v) for v in range(1, 16)], 0.95) == 15.0

    def test_exact_products_stay_on_their_rank(self):
        assert _percentile([float(v) for v in range(1, 21)], 0.95) == 19.0

    @pytest.mark.parametrize(
        "n, p50, p95", [(3, 2.0, 3.0), (5, 3.0, 5.0)]
    )
    def test_preset_rep_counts_unchanged(self, n, p50, p95):
        samples = [float(v) for v in range(n, 0, -1)]
        assert _percentile(samples, 0.50) == p50
        assert _percentile(samples, 0.95) == p95

    def test_empty_set_rejected(self):
        with pytest.raises(ConfigurationError):
            _percentile([], 0.5)


def valid_analysis_section():
    return {
        "files_analyzed": 115,
        "findings_total": 1,
        "findings_by_rule": {"RIT013": 1},
        "cold_seconds": 0.8,
        "warm_cache_seconds": 0.2,
        "warm_files_parsed": 0,
    }


class TestValidateAnalysisSection:
    def base_doc(self):
        doc = run_scaling_bench(**TINY)
        doc["analysis"] = valid_analysis_section()
        return doc

    def test_valid_section_accepted(self):
        assert validate_bench_schema(self.base_doc()) == []

    def test_warm_reparse_flagged(self):
        # The cache contract: a warm run over an unchanged tree parses
        # nothing, and the committed bench doc proves it.
        doc = self.base_doc()
        doc["analysis"]["warm_files_parsed"] = 3
        assert any(
            "warm_files_parsed" in e for e in validate_bench_schema(doc)
        )

    def test_rule_counts_must_sum_to_total(self):
        doc = self.base_doc()
        doc["analysis"]["findings_total"] = 7
        assert any("sum" in e for e in validate_bench_schema(doc))

    def test_non_rit_rule_key_flagged(self):
        doc = self.base_doc()
        doc["analysis"]["findings_by_rule"] = {"E501": 1}
        assert any("not a RIT rule id" in e for e in validate_bench_schema(doc))

    def test_negative_timing_flagged(self):
        doc = self.base_doc()
        doc["analysis"]["warm_cache_seconds"] = -1.0
        assert any(
            "warm_cache_seconds" in e for e in validate_bench_schema(doc)
        )


CLEAN_SHA = "a" * 64
ATTACKED_SHA = "b" * 64


def valid_arena_section():
    """A hand-built minimal arena section (the live one is exercised in
    ``tests/arena/test_harness.py``; this pins the validator itself)."""

    def run_doc(sha):
        return {
            "epochs": 19,
            "completed_epochs": 12,
            "stream_sha256": sha,
            "tasks_allocated": 15,
            "total_payment": 120.5,
            "auction_payment": 90.25,
            "platform_utility": 29.5,
            "completed": True,
        }

    def entry(accounting, budget_cents=None):
        return {
            "accounting": accounting,
            "clean": run_doc(CLEAN_SHA),
            "attacked": run_doc(ATTACKED_SHA),
            "budget": {
                "checked": budget_cents is not None,
                "consistent": True,
                "budget_cents": budget_cents,
            },
            "sybil_gain": 0.0,
        }

    return {
        "config": {
            "seed": 7,
            "users": 220,
            "types": 3,
            "tasks_per_type": 5,
            "epoch_max_events": 24,
            "attack": "sybil",
            "attack_epoch": 3,
            "attack_seed": 115,
        },
        "stream": {
            "clean_sha256": CLEAN_SHA,
            "attacked_sha256": ATTACKED_SHA,
            "clean_events": 439,
            "attacked_events": 463,
            "schedule": {"kind": "sybil", "victim": 4},
        },
        "mechanisms": {
            "rit": entry("cumulative"),
            "omg": entry("incremental"),
            "glt": entry("cumulative", budget_cents=100_000),
            "lv-moscibroda": entry("cumulative"),
        },
        "sybil_gains": {
            "rit": -0.9,
            "omg": 0.0,
            "glt": 0.0,
            "lv-moscibroda": 0.0,
        },
        "rit_sybil_gain_minimal": True,
        "determinism": {
            "runs": 2,
            "bit_identical": True,
            "canonical_sha256": "c" * 64,
        },
    }


class TestValidateArenaSection:
    def base_doc(self):
        doc = run_scaling_bench(**TINY)
        doc["arena"] = valid_arena_section()
        return doc

    def test_valid_section_accepted(self):
        assert validate_bench_schema(self.base_doc()) == []

    def test_docs_without_arena_section_stay_valid(self):
        assert validate_bench_schema(run_scaling_bench(**TINY)) == []

    def test_non_object_section_flagged(self):
        doc = self.base_doc()
        doc["arena"] = []
        assert any(
            "arena is not an object" in e for e in validate_bench_schema(doc)
        )

    def test_roster_must_be_at_least_four_including_rit(self):
        doc = self.base_doc()
        del doc["arena"]["mechanisms"]["rit"]
        errors = validate_bench_schema(doc)
        assert any("must include 'rit'" in e for e in errors)
        assert any("at least 4" in e for e in errors)

    def test_unknown_mechanism_flagged(self):
        doc = self.base_doc()
        doc["arena"]["mechanisms"]["vcg"] = doc["arena"]["mechanisms"]["omg"]
        assert any(
            "unknown mechanism" in e for e in validate_bench_schema(doc)
        )

    def test_fingerprint_divergence_flagged(self):
        # A mechanism recording different stream bytes than the match
        # reference broke the identical-injection guarantee.
        doc = self.base_doc()
        doc["arena"]["mechanisms"]["omg"]["attacked"]["stream_sha256"] = (
            "0" * 64
        )
        assert any(
            "diverges from the match reference" in e
            for e in validate_bench_schema(doc)
        )

    def test_checked_budget_must_be_consistent(self):
        doc = self.base_doc()
        doc["arena"]["mechanisms"]["glt"]["budget"]["consistent"] = False
        assert any(
            "budget.consistent" in e for e in validate_bench_schema(doc)
        )

    def test_unchecked_budget_is_exempt(self):
        doc = self.base_doc()
        doc["arena"]["mechanisms"]["rit"]["budget"]["consistent"] = False
        assert validate_bench_schema(doc) == []

    def test_non_deterministic_scorecard_flagged(self):
        doc = self.base_doc()
        doc["arena"]["determinism"]["bit_identical"] = False
        assert any(
            "bit_identical" in e for e in validate_bench_schema(doc)
        )

    def test_single_run_determinism_flagged(self):
        doc = self.base_doc()
        doc["arena"]["determinism"]["runs"] = 1
        assert any(">= 2" in e for e in validate_bench_schema(doc))

    def test_rit_losing_on_sybil_gain_flagged(self):
        doc = self.base_doc()
        doc["arena"]["rit_sybil_gain_minimal"] = False
        assert any(
            "rit_sybil_gain_minimal" in e for e in validate_bench_schema(doc)
        )

    def test_bad_attack_kind_flagged(self):
        doc = self.base_doc()
        doc["arena"]["config"]["attack"] = "ddos"
        assert any(
            "sybil/collusion/churn" in e for e in validate_bench_schema(doc)
        )

    def test_bool_event_count_flagged(self):
        doc = self.base_doc()
        doc["arena"]["stream"]["clean_events"] = True
        assert any(
            "clean_events" in e for e in validate_bench_schema(doc)
        )


class TestCommittedBaseline:
    def test_committed_bench_json_is_valid(self):
        assert COMMITTED_BENCH.exists(), "BENCH_RIT.json must be committed"
        doc = json.loads(COMMITTED_BENCH.read_text())
        assert validate_bench_schema(doc) == []
        # The acceptance bar this PR shipped against: >= 2x vs pre-engine.
        assert doc["speedup_vs_pre_pr"] >= 2.0
        assert doc["config"]["users"] == 2000
        assert doc["config"]["scenario_seed"] == 2

    def test_committed_bench_has_analysis_section(self):
        doc = json.loads(COMMITTED_BENCH.read_text())
        analysis = doc["analysis"]
        assert analysis["files_analyzed"] > 100
        assert analysis["warm_files_parsed"] == 0

    def test_committed_bench_has_arena_section(self):
        # The committed head-to-head record: full roster, bit-identical
        # rerun, RIT conceding nothing to the sybil schedule.
        doc = json.loads(COMMITTED_BENCH.read_text())
        arena = doc["arena"]
        assert len(arena["mechanisms"]) >= 4
        assert arena["determinism"]["bit_identical"] is True
        assert arena["rit_sybil_gain_minimal"] is True
        assert arena["sybil_gains"]["rit"] == 0.0
        assert arena["mechanisms"]["glt"]["budget"]["consistent"] is True


class TestCLI:
    def test_bench_subcommand_writes_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--users", "80",
                "--types", "2",
                "--tasks-per-type", "5",
                "--reps", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert validate_bench_schema(doc) == []
        stdout = capsys.readouterr().out
        assert "speedup sorted vs reference" in stdout
        assert str(out) in stdout

    def test_bench_engine_flag_skips_the_rest(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--users", "80",
                "--types", "2",
                "--tasks-per-type", "5",
                "--reps", "2",
                "--engine", "reference",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert validate_bench_schema(doc) == []
        assert doc["engines"]["sorted"] == {"skipped": True}
        assert doc["engines"]["reference"]["completed_all_reps"] is True
        assert "skipped" in capsys.readouterr().out

    def test_bench_smoke_gates_on_schema(self, tmp_path, capsys):
        out = tmp_path / "smoke.json"
        code = main(["bench", "--smoke", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert validate_bench_schema(doc) == []
        assert doc["engines"]["sorted"]["completed_all_reps"] is True
        assert doc["engines"]["reference"]["completed_all_reps"] is True
        stdout = capsys.readouterr().out
        assert "speedup sorted vs reference" in stdout
        assert "bench smoke OK: document is schema-valid" in stdout


def test_write_bench_round_trips(tmp_path):
    doc = run_scaling_bench(**TINY)
    path = tmp_path / "b.json"
    write_bench(doc, str(path))
    assert json.loads(path.read_text()) == json.loads(
        json.dumps(doc)
    )


class TestMergeBenchSections:
    def test_invalid_section_leaves_fresh_file_unwritten(self, tmp_path):
        path = tmp_path / "bench.json"
        broken = dict(valid_analysis_section(), findings_total=7)
        errors = merge_bench_sections(str(path), {"analysis": broken})
        assert any("sum" in e for e in errors)
        assert not path.exists()

    def test_valid_section_written_to_fresh_file(self, tmp_path):
        path = tmp_path / "bench.json"
        section = valid_analysis_section()
        assert merge_bench_sections(str(path), {"analysis": section}) == []
        assert json.loads(path.read_text()) == {"analysis": section}

    def test_envelope_doc_is_validated_whole(self, tmp_path):
        path = tmp_path / "bench.json"
        doc = run_scaling_bench(**TINY)
        doc["engines"]["sorted"]["seconds"] = "fast"
        write_bench(doc, str(path))
        before = path.read_text()
        errors = merge_bench_sections(
            str(path), {"analysis": valid_analysis_section()}
        )
        assert errors != []
        assert path.read_text() == before

    def test_merge_keeps_other_sections(self, tmp_path):
        path = tmp_path / "bench.json"
        doc = run_scaling_bench(**TINY)
        write_bench(doc, str(path))
        section = valid_analysis_section()
        assert merge_bench_sections(str(path), {"analysis": section}) == []
        merged = json.loads(path.read_text())
        assert merged["analysis"] == section
        assert merged["engines"] == json.loads(json.dumps(doc["engines"]))
