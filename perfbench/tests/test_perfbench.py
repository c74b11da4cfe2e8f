"""The benchmark's own checks, on seconds-long shapes of each workload.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import repro.service.workers as workers_module
from perfbench import harness, run as cli
from perfbench.harness import END_TO_END, PER_LAYER, ROOT, peak_rss_mb, reset_peak_rss, run
from perfbench.layers import LayerProbe, array_bytes
from perfbench.passes import StampedLedger, nearest_rank, run_pass
from perfbench.workloads import WORKLOADS, build_inputs, tiny

SEED = 7


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_the_runs_print():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert cli.WORKLOAD_NAMES == tuple(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_tiny_shape_emits_every_metric_with_its_unit(name, trace):
    line, record = run(tiny(WORKLOADS[name]), SEED, 0.2, trace=trace)
    assert line["correct"], record["problems"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and line["failed"] == 0
    units = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    for key in ("commit", "nproc", "python", "numpy", "argv", "seed", "src_sha256"):
        assert key in record["provenance"]
    assert record["provenance"]["seed"] == SEED
    if not trace:
        pooled = record["result_latency_p50_s"]
        assert pooled["samples"] >= len(record["passes"])
        assert all(p["result_latency_p50_s"]["samples"] >= 1 for p in record["passes"])


def test_forced_tiny_queue_on_paced_rejects_offers():
    workload = dataclasses.replace(tiny(WORKLOADS["paced"]), queue_size=1)
    line, record = run(workload, SEED, 0.2, trace=False)
    assert line["correct"], record["problems"]  # replay of what was consumed
    assert line["failed"] > 0
    assert record["error_rate"] == line["failed"] / line["attempted"] > 0


def test_wrappers_leave_outcomes_bit_identical_and_are_removed(tmp_path):
    inputs = build_inputs(tiny(WORKLOADS["churn"]), SEED)
    plain = run_pass(inputs, SEED, StampedLedger(tmp_path, "plain"), workers=2)
    probe = LayerProbe()
    with probe.installed():
        traced = run_pass(inputs, SEED, StampedLedger(tmp_path, "traced"), workers=2)
    assert probe.leftovers() == []
    assert all(
        vars(owner)[name] is original for owner, name, original in probe._originals
    )
    assert traced.ledger.epochs_path.read_bytes() == plain.ledger.epochs_path.read_bytes()
    assert probe.counts["epochs.closed"] == len(plain.report.epochs)
    assert probe.counts["state.withdrawals"] > 0


def test_store_bytes_counts_the_pools_arrays():
    uids = np.arange(40, dtype=np.int64)
    types = uids % 4
    values = np.linspace(1.0, 2.0, 40)
    capacities = np.full(40, 3, dtype=np.int64)
    probe = LayerProbe()
    with probe.installed():
        pools = workers_module.pools_from_arrays(uids, types, values, capacities)
    assert probe.leftovers() == []
    wanted = sum(
        getattr(pool, name).nbytes
        for pool in pools.values()
        for name in ("uids", "values", "remaining", "_sorted_users",
                     "_sorted_values", "_rank")
    ) + sum(pool._fenwick._tree.nbytes for pool in pools.values())
    assert probe.counts["store.bytes"] == array_bytes(pools) == wanted > 0


def test_peak_rss_restarts_at_the_current_rss():
    reset_peak_rss()
    before = peak_rss_mb()
    block = np.ones(64 * 1024 * 1024 // 8)  # 64 MiB, touched
    assert peak_rss_mb() >= before + 60
    del block
    reset_peak_rss()
    assert peak_rss_mb() < before + 30


def test_a_failed_check_reports_no_numbers(monkeypatch):
    monkeypatch.setattr(harness, "check_pass", lambda p, replayed: ["forced"])
    line, record = run(tiny(WORKLOADS["growth"]), SEED, 0.1, trace=False)
    assert line["correct"] is False and line["metrics"] == {}
    assert "forced" in record["problems"]


def test_nearest_rank_uses_exact_samples():
    assert nearest_rank([0.0545, 0.0700], 50) == {"value": 0.0545, "samples": 2, "beyond": 1}
    samples = [float(v) for v in range(1, 101)]
    assert nearest_rank(samples, 90) == {"value": 90.0, "samples": 100, "beyond": 10}
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "growth", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
