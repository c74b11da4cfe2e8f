"""Command-line front-end for the whole-program analyzer.

Invoked as ``rit analyze ...`` (subcommand of :mod:`repro.cli`) or
directly as ``python -m repro.devtools.analysis``.

Workflow
--------
A plain run analyzes the tree, diffs the findings against the committed
baseline (``analysis_baseline.json``) and fails only on *new* findings.
``--ci`` additionally fails on stale baseline entries, so the committed
file can never drift above the actual debt.  ``--baseline-update``
rewrites the baseline from the current findings and always exits 0.

Exit codes: ``0`` clean vs baseline, ``1`` new findings (or, with
``--ci``, stale entries), ``2`` usage/environment error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.devtools.analysis.baseline import BASELINE_FILENAME, Baseline
from repro.devtools.analysis.cache import CACHE_FILENAME
from repro.devtools.analysis.passes import ANALYSIS_RULES
from repro.devtools.analysis.report import (
    findings_by_rule,
    render_json,
    render_sarif,
    render_text,
)
from repro.devtools.analysis.runner import analyze_paths

__all__ = ["add_arguments", "build_parser", "run", "main", "bench_section"]

DEFAULT_PATHS = ("src/repro",)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach analyzer options to a parser (shared with the ``rit`` CLI)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help=f"baseline file (default: {BASELINE_FILENAME} in the cwd)",
    )
    parser.add_argument(
        "--baseline-update",
        action="store_true",
        help="rewrite the baseline from this run's findings and exit 0",
    )
    parser.add_argument(
        "--ci",
        action="store_true",
        help="strict mode: also fail on stale baseline entries",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: report and gate on every finding",
    )
    parser.add_argument(
        "--sarif",
        default=None,
        metavar="PATH",
        help="additionally write a SARIF 2.1.0 report here",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="findings output format",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="append per-rule finding counts",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental summary cache",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help=f"summary cache file (default: {CACHE_FILENAME} in the cwd)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe the whole-program rules and exit",
    )
    parser.add_argument(
        "--bench",
        action="store_true",
        help="measure cold vs warm-cache analysis time and merge the "
        "``analysis`` section into the bench doc",
    )
    parser.add_argument(
        "--bench-out",
        default="BENCH_RIT.json",
        metavar="PATH",
        help="bench document to merge into (with --bench)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rit analyze",
        description="whole-program determinism & concurrency analyzer "
        "(import graph -> call graph -> interprocedural passes "
        "RIT009-RIT013)",
    )
    add_arguments(parser)
    return parser


def _resolve_paths(args: argparse.Namespace) -> List[str]:
    if args.paths:
        return list(args.paths)
    return [p for p in DEFAULT_PATHS if Path(p).is_dir()]


def run(args: argparse.Namespace) -> int:
    """Execute an analysis run described by parsed arguments."""
    if args.list_rules:
        for rule_id, (name, rationale) in sorted(ANALYSIS_RULES.items()):
            print(f"{rule_id}  {name}")
            print(f"        {rationale}")
        return 0

    paths = _resolve_paths(args)
    if not paths:
        print(
            "rit analyze: no paths given and no default src/repro found",
            file=sys.stderr,
        )
        return 2
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"rit analyze: no such path: {missing[0]}", file=sys.stderr)
        return 2

    if getattr(args, "bench", False):
        return _run_bench(paths, args.bench_out)

    root = Path.cwd()
    cache_path = None if args.no_cache else Path(args.cache or CACHE_FILENAME)
    result = analyze_paths((Path(p) for p in paths), root=root, cache_path=cache_path)

    if args.sarif:
        Path(args.sarif).write_text(
            render_sarif(result.findings, root=root) + "\n", encoding="utf-8"
        )

    baseline_path = Path(args.baseline or BASELINE_FILENAME)
    if args.baseline_update:
        Baseline.from_findings(result.findings, root).write(baseline_path)
        print(
            f"baseline updated -> {baseline_path} "
            f"({len(result.findings)} finding(s) accepted)"
        )
        return 0

    diff = None
    if not args.no_baseline:
        try:
            diff = Baseline.load(baseline_path).diff(result.findings, root)
        except ValueError as exc:
            print(f"rit analyze: {exc}", file=sys.stderr)
            return 2

    if args.output_format == "json":
        print(
            render_json(
                result.findings,
                files_analyzed=result.files_analyzed,
                files_parsed=result.files_parsed,
                cache_hits=result.cache_hits,
                root=root,
                diff=diff,
            )
        )
    else:
        print(
            render_text(
                result.findings,
                files_analyzed=result.files_analyzed,
                files_parsed=result.files_parsed,
                cache_hits=result.cache_hits,
                diff=diff,
                statistics=args.statistics,
            )
        )

    if diff is None:
        return 1 if result.findings else 0
    if diff.new:
        return 1
    if args.ci and diff.stale:
        return 1
    return 0


def _run_bench(paths: List[str], out: str) -> int:
    """``--bench``: measure the analyzer and merge into the bench doc."""
    from repro.devtools.bench import report_bench_merge

    section = bench_section(paths)
    print(
        f"analysis: {section['files_analyzed']} file(s), "
        f"{section['findings_total']} finding(s)"
    )
    print(
        f"cold {section['cold_seconds']:.3f}s -> warm "
        f"{section['warm_cache_seconds']:.3f}s "
        f"({section['warm_files_parsed']} file(s) re-parsed warm)"
    )
    return report_bench_merge(out, {"analysis": section})


def bench_section(paths: Optional[List[str]] = None) -> dict:
    """Measure the analyzer for the bench document's ``analysis`` section.

    Runs twice against a throwaway in-tree cache state: the first run
    populates summaries, the second measures the warm-cache wall time the
    section reports.  The cache file used is the standard one, so a
    developer's later ``rit analyze`` stays warm too.
    """
    root = Path.cwd()
    target_paths = [Path(p) for p in (paths or list(DEFAULT_PATHS))]
    cache_path = Path(CACHE_FILENAME)
    cold = analyze_paths(target_paths, root=root, cache_path=cache_path)
    warm = analyze_paths(target_paths, root=root, cache_path=cache_path)
    return {
        "files_analyzed": warm.files_analyzed,
        "findings_total": len(warm.findings),
        "findings_by_rule": findings_by_rule(warm.findings),
        "cold_seconds": cold.duration_s,
        "warm_cache_seconds": warm.duration_s,
        "warm_files_parsed": warm.files_parsed,
    }


def main(argv: Optional[List[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
