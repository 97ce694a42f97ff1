"""One workload run in a fresh process: set up, measure, check.

    python -m perf.child --workload W --seed N --workdir DIR
                         (--seconds S | --units K) [--trace] [--setup-only]

Prints ``READY`` once set-up is done (the parent times set-up from the
spawn to that line), then, unless ``--setup-only``, one JSON record as
the last stdout line.  :func:`run_workload` is the same run in-process,
for the self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional, Sequence

from . import ROOT
from .trace import Tracer, enough_beyond, merge_summaries, self_sum_ratio
from .workloads import WORKLOADS, Unit, Workload


def _measure(workload: Workload, seconds: Optional[float],
             units: Optional[int]) -> tuple[list[Unit], float]:
    """Run units until ``seconds`` pass, or exactly ``units`` of them."""
    done: list[Unit] = []
    t0 = perf_counter()
    while (len(done) < units if units is not None
           else perf_counter() - t0 < seconds):  # type: ignore[operator]
        done.append(workload.unit(len(done)))
    return done, perf_counter() - t0


def _tail(values: list[float], q: int) -> float:
    """The q-th percentile, or 0 without enough samples beyond it."""
    if not enough_beyond(len(values), q):
        return 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def run_workload(
    name: str,
    seed: int,
    workdir: Path,
    seconds: Optional[float] = None,
    units: Optional[int] = None,
    trace: bool = False,
    setup_only: bool = False,
    ready: Callable[[], None] = lambda: None,
) -> Optional[dict]:
    """Run one workload in this process; the record, or None if set-up only."""
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    counts: dict[str, float] = {}
    if trace:
        tracer = Tracer()
        counts["wrapper_ns"] = tracer.wrapper_cost_ns()
        tracer.install()
    workload = WORKLOADS[name](seed, workdir, tracer)
    try:
        workload.setup()
        ready()
        if setup_only:
            return None
        if tracer is None:
            done, wall = _measure(workload, seconds, units)
            client, events = {}, []
        else:
            tracer.reset()
            workload.trace_reset()
            done, wall = _measure(workload, seconds, units)
            client, events = tracer.summary(), tracer.chrome_events(0)
            # the checks below must not add spans
            tracer.uninstall()
        snap = workload.snapshot()
        failed = sum(u.failed for u in done) + workload.finish()
    finally:
        workload.close()
        if tracer is not None:
            tracer.uninstall()

    ops = sum(u.ops for u in done)
    busy = sum(u.busy_s for u in done)
    lat = workload.latencies_ms
    digests = [u.digest for u in done if u.digest is not None]
    counts.update(workload.counts)
    counts["op_p90_ms"] = _tail(lat, 90)
    counts["op_p99_ms"] = _tail(lat, 99)
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "units": len(done),
        "wall_s": wall,
        "attempted": ops,
        "failed": failed,
        "trajectory_digest": (
            hashlib.sha256("".join(digests).encode()).hexdigest()
            if digests else None
        ),
        "golden_units_checked": workload.golden_checked,
        "metrics": {
            "ops_per_s": ops / busy,
            "op_p50_ms": statistics.median(lat),
            "peak_rss_mb": snap["peak_rss_mb"],
        },
        "op_samples": len(lat),
        "unit_busy_s": [u.busy_s for u in done],
        "counts": counts,
    }
    if trace:
        counts["self_sum_ratio"] = self_sum_ratio(client, busy)
        record["summary"] = merge_summaries(client, snap["summary"])
        record["chrome_events"] = events + snap["events"]
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--units", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import repro

    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        print(f"perf: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    record = run_workload(
        args.workload, args.seed, Path(args.workdir),
        seconds=args.seconds, units=args.units, trace=args.trace,
        setup_only=args.setup_only,
        ready=lambda: print("READY", flush=True),
    )
    if record is not None:
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
