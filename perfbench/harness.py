"""One benchmark run: set-up, measured passes, correctness checks, metrics.

``run`` is what ``perfbench/run.py`` prints.  Untraced (``trace=False``)
it sets the workload up at least :data:`SETUP_MIN_REPEATS` times and
until :data:`SETUP_MIN_S` seconds of set-up have been measured, then
serves the stream pass after pass until ``seconds`` of serving have been
measured, and reports the end-to-end metrics.  Traced it serves one untraced and
one traced pass and reports the per-layer metrics of the traced one.
Every pass is checked against the offline replay of the stream it
consumed; a traced pass must also reproduce the untraced pass's ledger
byte for byte, and every wrapper must be gone afterwards.  A run that
fails a check reports no numbers.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import platform
import shutil
import statistics
import subprocess
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.service.replay import differential_check

from perfbench.layers import LayerProbe
from perfbench.passes import (
    CLOCK,
    Pass,
    StampedLedger,
    check_pass,
    epoch_latencies,
    make_service,
    nearest_rank,
    replay,
    run_pass,
)
from perfbench.workloads import Inputs, Workload, build_inputs

__all__ = ["ROOT", "END_TO_END", "PER_LAYER", "run"]

ROOT = Path(__file__).resolve().parent.parent

#: An untraced run sets up at least ``SETUP_MIN_REPEATS`` times and until
#: ``SETUP_MIN_S`` seconds are measured, at most ``SETUP_MAX_REPEATS``
#: times; ``setup_s`` is the median.  A short set-up is repeated more, so
#: one slow build moves the median less.
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 5.0
SETUP_MAX_REPEATS = 15

#: Metric name -> unit, in the order they are printed.
END_TO_END = {
    "setup_s": "s",
    "events_per_s": "1/s",
    "cpu_us_per_event": "us",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "error_rate": "ratio",
    "result_latency_p50_s": "s",
    "result_latency_p90_s": "s",
    "result_latency.samples": "count",
    "result_latency.p90_beyond": "count",
    "loadgen.lag_p99_s": "s",
    "frontend.busy_s": "s",
    "frontend.accepted": "count",
    "frontend.rejected": "count",
    "frontend.queue_highwater": "count",
    "state.ask_s": "s",
    "state.referral_s": "s",
    "state.withdrawal_s": "s",
    "state.withdrawals": "count",
    "state.withdrawal_us_per_op": "us",
    "state.refused": "count",
    "epochs.closed": "count",
    "epochs.snapshot_s": "s",
    "epochs.snapshot_users": "count",
    "store.build_s": "s",
    "store.bytes": "bytes",
    "auction.shard_s": "s",
    "auction.critical_path_s": "s",
    "auction.rounds": "count",
    "auction.productive_round_ratio": "ratio",
    "auction.tasks_allocated": "count",
    "join.s": "s",
    "join.payment_recipients": "count",
    "join.voided_epochs": "count",
    "workers.fanout_s": "s",
    "ledger.append_s": "s",
    "ledger.bytes": "bytes",
    "telemetry.close_epoch_s": "s",
    "trace.coverage": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def provenance(argv: Sequence[str], seed: int) -> Dict[str, Any]:
    """Who made a record: code, machine, interpreter, command and seed."""
    commit = None
    if (ROOT / ".git").exists():  # an exported source tree has none
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": nproc(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "argv": list(argv),
        "seed": seed,
    }


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark of this process at its current RSS."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def peak_rss_mb() -> float:
    """Peak resident memory of this process since the last reset, in MiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _same_stream(left: Sequence[Any], right: Sequence[Any]) -> bool:
    return len(left) == len(right) and all(x is y for x, y in zip(left, right))


def _pass_summary(p: Pass, latencies: Sequence[float]) -> Dict[str, Any]:
    report = p.report
    return {
        "wall_s": p.wall_s,
        "result_latency_p50_s": nearest_rank(latencies, 50),
        "events_per_s": report.applied / p.wall_s,
        "cpu_s": p.cpu_s,
        "cpu_us_per_event": p.cpu_s / report.applied * 1e6,
        "epochs": len(report.epochs),
        "offered": report.offered,
        "applied": report.applied,
        "rejected": report.rejected,
        "invalid": report.invalid,
        "refused": report.refused,
        "queue_highwater": report.queue_highwater,
    }


class _Runner:
    """Shared state of one run: its inputs, scratch ledgers and findings."""

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.workers = nproc()
        self.problems: List[str] = []
        self.inputs: Inputs
        #: The consumed stream last replayed, and its replay.
        self._replayed: Optional[Tuple[List[Any], Any]] = None

    def setup(
        self, repeats: int, min_s: float = 0.0, max_repeats: int = 0
    ) -> List[float]:
        """Build scenario, stream and a service; seconds of each build.

        Builds ``repeats`` times, then more while fewer than ``min_s``
        seconds have been measured, up to ``max_repeats`` builds.
        """
        seconds: List[float] = []
        inputs = None
        while len(seconds) < repeats or (
            sum(seconds) < min_s and len(seconds) < max_repeats
        ):
            inputs = None  # drop the previous set-up before timing the next
            gc.collect()
            start = CLOCK()
            inputs = build_inputs(self.workload, self.seed)
            make_service(inputs, self.seed, None, workers=self.workers)
            seconds.append(CLOCK() - start)
        self.inputs = inputs
        return seconds

    def serve(self, label: str) -> Pass:
        ledger = StampedLedger(self.workdir, label)
        return run_pass(self.inputs, self.seed, ledger, workers=self.workers)

    def check(self, p: Pass) -> List[float]:
        """Check ``p`` against the offline replay; returns its epoch latencies."""
        consumed = p.report.consumed
        if self._replayed is None or not _same_stream(self._replayed[0], consumed):
            self._replayed = (consumed, replay(self.inputs, self.seed, p))
        replayed = self._replayed[1]
        self.problems.extend(check_pass(p, replayed))
        return epoch_latencies(self.inputs, p, [batch for batch, _ in replayed])


def _untraced(runner: _Runner, seconds: float):
    setup_s = runner.setup(SETUP_MIN_REPEATS, SETUP_MIN_S, SETUP_MAX_REPEATS)
    summaries: List[Dict[str, Any]] = []
    latencies: List[float] = []
    served = 0.0
    attempted = failed = 0
    peak_rss = 0.0
    while not summaries or served < seconds:
        first = not summaries
        gc.collect()
        if first:
            # The peak over the first pass's serving only: set-up is done,
            # and no checker state is alive yet.
            reset_peak_rss()
        p = runner.serve(f"pass{len(summaries)}")
        if first:
            peak_rss = peak_rss_mb()
        served += p.wall_s
        pass_latencies = runner.check(p)
        latencies.extend(pass_latencies)
        summaries.append(_pass_summary(p, pass_latencies))
        attempted += p.report.offered
        failed += p.failed
        shutil.rmtree(p.ledger.directory)
    p50 = nearest_rank(latencies, 50)
    p90 = nearest_rank(latencies, 90)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "events_per_s": statistics.median(s["events_per_s"] for s in summaries),
        "cpu_us_per_event": statistics.median(
            s["cpu_us_per_event"] for s in summaries
        ),
        "peak_rss_mb": peak_rss,
    }
    detail = {
        "setup_s_samples": setup_s,
        "passes": summaries,
        "result_latency_p50_s": p50,
        "result_latency_p90_s": p90,
        "error_rate": failed / attempted,
    }
    return attempted, failed, metrics, detail


def _traced(runner: _Runner):
    runner.setup(1)
    plain = runner.serve("plain")
    plain_latencies = runner.check(plain)
    p50 = nearest_rank(plain_latencies, 50)
    p90 = nearest_rank(plain_latencies, 90)
    probe = LayerProbe()
    with probe.installed():
        traced = runner.serve("traced")
    runner.problems.extend(probe.leftovers())
    traced_latencies = runner.check(traced)
    if not _same_stream(plain.report.consumed, traced.report.consumed):
        runner.problems.append("the traced pass consumed a different stream")
    runner.problems.extend(
        f"traced vs untraced: {problem}"
        for problem in differential_check(
            traced.report.outcomes(), plain.report.outcomes()
        )
    )
    if traced.ledger.epochs_path.read_bytes() != plain.ledger.epochs_path.read_bytes():
        runner.problems.append("the traced ledger differs from the untraced one")
    report = traced.report
    metrics: Dict[str, float] = probe.metrics(traced.wall_s)
    metrics.update(
        {
            "error_rate": traced.failed / report.offered,
            "result_latency_p50_s": p50["value"],
            "result_latency_p90_s": p90["value"],
            "result_latency.samples": p90["samples"],
            "result_latency.p90_beyond": p90["beyond"],
            "loadgen.lag_p99_s": (
                nearest_rank(traced.lags, 99)["value"] if traced.lags else 0.0
            ),
            "frontend.accepted": report.accepted,
            "frontend.rejected": report.rejected,
            "frontend.queue_highwater": report.queue_highwater,
            "ledger.bytes": traced.ledger.epochs_path.stat().st_size,
            "trace.overhead_ratio": traced.wall_s / plain.wall_s,
        }
    )
    detail = {
        "passes": {
            "plain": _pass_summary(plain, plain_latencies),
            "traced": _pass_summary(traced, traced_latencies),
        }
    }
    return report.offered, traced.failed, metrics, detail


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    *,
    trace: bool,
    argv: Sequence[str] = (),
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One run; returns (result line, full record)."""
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    runner = _Runner(workload, seed, workdir)
    try:
        if trace:
            attempted, failed, metrics, detail = _traced(runner)
        else:
            attempted, failed, metrics, detail = _untraced(runner, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still has its scratch ledgers there
    units = PER_LAYER if trace else END_TO_END
    correct = not runner.problems
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": (
            {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
            if correct
            else {}
        ),
    }
    record = {
        "provenance": provenance(argv, seed),
        "workload": dataclasses.asdict(workload),
        "trace": trace,
        "problems": runner.problems,
        **detail,
    }
    return line, record
