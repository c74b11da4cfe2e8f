"""Live-path service benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload growth --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``).  The last stdout line is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full record (provenance, per-pass figures, percentile sample counts,
problems).  Exit status is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("growth", "churn", "paced")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import run
    from perfbench.workloads import WORKLOADS

    line, record = run(
        WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        argv=["perfbench/run.py", *argv],
    )
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(line))
    if not line["correct"]:
        print("perfbench: " + "; ".join(record["problems"]), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
