"""CLI coverage for ``rit serve`` and ``rit top``."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.smoke is False
        assert args.epoch_events == 64
        assert args.ledger is None
        assert args.metrics_port is None
        assert args.metrics_host == "127.0.0.1"
        assert args.probe_metrics is False
        assert args.graph == "twitter"
        assert args.attack is None
        assert args.attack_epoch == 4
        assert args.attack_seed is None

    def test_loadgen_is_not_a_subcommand(self, capsys):
        # Service throughput is perfbench's job; the racing bench is gone.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["loadgen"])
        assert exc.value.code == 2
        assert "invalid choice: 'loadgen'" in capsys.readouterr().err

    def test_top_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.command == "top"
        assert args.url is None
        assert args.trace is None
        assert args.interval == 2.0
        assert args.once is False


class TestServe:
    def test_smoke_differential_gate_passes(self, capsys):
        assert main(["serve", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "differential check OK" in out

    def test_smoke_writes_ledger_and_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "service_trace.jsonl"
        code = main(
            [
                "serve",
                "--smoke",
                "--ledger",
                str(tmp_path / "ledger"),
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ledger ->" in out
        assert trace_path.exists()
        runs = list((tmp_path / "ledger").iterdir())
        assert len(runs) == 1
        assert (runs[0] / "epochs.jsonl").exists()
        assert (runs[0] / "meta.json").exists()

    def test_smoke_with_metrics_probe(self, capsys):
        code = main(["serve", "--smoke", "--metrics-port", "0",
                     "--probe-metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics endpoint" in out
        assert "metrics probe OK" in out
        assert "differential check OK" in out

    def test_probe_requires_metrics_port(self, capsys):
        assert main(["serve", "--smoke", "--probe-metrics"]) == 2
        assert "--metrics-port" in capsys.readouterr().out

    def test_smoke_attack_is_detected_and_differential_holds(self, capsys):
        assert main(["serve", "--smoke", "--attack", "sybil"]) == 0
        out = capsys.readouterr().out
        assert "sentinel: sybil injected at epoch 4, detected at epoch" in out
        assert "differential check OK" in out

    def test_attack_schedule_lands_in_its_own_ledger_run(
        self, tmp_path, capsys
    ):
        ledger = tmp_path / "ledger"
        assert main(["serve", "--smoke", "--ledger", str(ledger)]) == 0
        assert main(["serve", "--smoke", "--ledger", str(ledger),
                     "--attack", "churn", "--attack-seed", "3"]) == 0
        metas = [
            json.loads((run / "meta.json").read_text())
            for run in sorted(ledger.iterdir())
        ]
        assert len(metas) == 2
        attacked = [meta["attack"] for meta in metas if "attack" in meta]
        assert len(attacked) == 1
        assert attacked[0]["kind"] == "churn"
        assert attacked[0]["seed"] == 3


class TestTop:
    def test_renders_service_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "service_trace.jsonl"
        assert main(
            ["serve", "--smoke", "--trace-out", str(trace_path)]
        ) == 0
        capsys.readouterr()
        assert main(["top", "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "phase: trace" in out
        assert "SLO" in out

    def test_requires_a_source(self, capsys):
        assert main(["top"]) == 2
        assert "exactly one" in capsys.readouterr().out
