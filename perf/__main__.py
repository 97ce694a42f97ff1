"""Command line of the benchmark; see ``perf/README.md``."""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Optional, Sequence

from . import DEFAULT_SEED, ROOT

WORKLOAD_NAMES = ("sweep-easy", "sweep-cbf", "served-sweep", "service-churn")

#: default-seed units with a golden digest, per workload; more than a
#: run twice as fast as today's completes in ``run_seconds``
GOLDEN_UNITS = 64


def _golden() -> int:
    """Record the default seed's per-unit digests in ``perf/golden.json``."""
    import sys

    sys.path.insert(0, str(ROOT / "src"))
    from .workloads import GOLDEN_PATH, WORKLOADS

    golden = {"seed": DEFAULT_SEED, "units": {}}
    for name in ("sweep-easy", "sweep-cbf", "served-sweep"):
        workload = WORKLOADS[name](DEFAULT_SEED, ROOT / ".perf_out" / "state")
        golden["units"][name] = [
            workload.reference_digest(i) for i in range(GOLDEN_UNITS)
        ]
        print(f"{name}: {GOLDEN_UNITS} unit digest(s)")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure workloads")
    run.add_argument("--workload", nargs="+", choices=WORKLOAD_NAMES,
                     default=list(WORKLOAD_NAMES), metavar="W")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=None,
                     help="timed seconds per run; must equal run_seconds "
                     "of BENCHMARK.json, which fixes the run length")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1),
                     help="also replay each run traced and report the "
                     "per-layer metrics")
    run.add_argument("--out", type=Path, default=ROOT / ".perf_out",
                     help="directory for records and traces")

    agree = sub.add_parser("agree", help="compare two sets of records")
    agree.add_argument("set_a", type=Path)
    agree.add_argument("set_b", type=Path)
    agree.add_argument("--write-baseline", type=Path, default=None,
                       metavar="PATH",
                       help="also write both sets' medians and quartiles")

    sub.add_parser(
        "golden", help="rewrite perf/golden.json for the default seed")

    args = parser.parse_args(argv)
    if args.command == "agree":
        from .agree import agree as run_agree

        return run_agree(args.set_a, args.set_b, args.write_baseline)
    if args.command == "golden":
        return _golden()

    from .run import run as run_benchmark

    # records made at different run lengths do not compare
    seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())
                    ["run_seconds"])
    if args.seconds not in (None, seconds):
        parser.error(f"--seconds must be {seconds:g}, the run_seconds "
                     "of BENCHMARK.json")
    return run_benchmark(args.workload, args.seed, seconds,
                         bool(args.trace), args.out)


if __name__ == "__main__":
    raise SystemExit(main())
