"""Command-line interface: regenerate any table or figure of the paper.

Usage::

    repro list                      # what can be regenerated
    repro run fig1                  # regenerate Figure 1 (default scale)
    repro run tab4 --scale smoke    # quick noisy version
    repro run all --scale default   # everything, in order
    repro run fig1 --workers 8 --cache-dir ~/.cache/repro
    repro bench --json bench.json   # machine-readable sweep timings
    repro bench --profile           # cProfile + phase attribution
    repro bench --compare old.json new.json   # regression gate (>20%)
    repro check --quick             # runtime invariant audit (CI smoke)
    repro check --fuzz 50           # full audit + 50 fuzz cases
    repro check --config '{"algorithm": "cbf", "scheme": "R2"}'
    repro lint src/ --baseline lint-baseline.json   # static determinism gate
    repro lint src/ --format json --rule DET001     # one rule, JSON report
    repro trace record --out runs/r2 --schemes R2   # traced sweep
    repro trace summary runs/r2/trace.jsonl
    repro trace export-chrome runs/r2/trace.jsonl --out r2.trace.json
    repro probe record --out runs/p --schemes R2 --cadence 30
    repro probe summary runs/p/probes.jsonl
    repro probe plot-ascii runs/p/probes.jsonl --field utilisation
    repro probe compare runs/a/probes.jsonl runs/b/probes.jsonl
    repro probe export-chrome runs/p/probes.jsonl --out p.trace.json
    repro serve --state-dir runs/svc --port 8642    # HTTP sweep service
    repro worker --url http://127.0.0.1:8642        # lease + compute chunks
    repro job submit --url http://127.0.0.1:8642 --schemes R2 NONE \\
        --replications 2 --executor workqueue       # returns a job id
    repro job wait --url http://127.0.0.1:8642 job-0001
    repro job result --url http://127.0.0.1:8642 job-0001 --out grid.json
    repro cache prune --cache-dir ~/.cache/repro    # drop stale-schema files

Scales are defined in :mod:`repro.analysis.registry`; ``--workers``
parallelises replications across processes.  ``--cache-dir`` persists
simulation results on disk (content-addressed by config + replication),
so reruns and figures sharing the paired NONE baseline skip simulation;
``--no-cache`` disables caching entirely.

Output discipline: reports, JSON payloads and filtered trace lines go
to **stdout**; all diagnostics flow through :mod:`repro.obs.log` to
**stderr** (``-v`` for debug detail, ``-q`` for warnings only), so
piped output stays machine-readable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from .analysis.registry import REGISTRY, SCALES, run_experiment
from .core.parallel import resolve_workers
from .core.schemes import get_scheme
from .obs.log import get_logger, setup_logging
from .obs.trace import EVENT_TYPES

_log = get_logger("cli")


def _scheme_arg(name: str) -> str:
    """argparse ``type=`` for ``--schemes``: reject unknown schemes."""
    try:
        get_scheme(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return name


def _add_grid_flags(p: argparse.ArgumentParser, default_scheme: str,
                    schemes_help: str, workers_help: str) -> None:
    """Add the flags that define a sweep grid (see :func:`_grid_configs`)."""
    p.add_argument("--schemes", nargs="+", type=_scheme_arg,
                   default=[default_scheme], metavar="SCHEME",
                   help=schemes_help)
    p.add_argument("--replications", type=int, default=1,
                   help="replications per scheme (default 1)")
    p.add_argument("--workers", type=int, default=1, help=workers_help)
    p.add_argument("--clusters", type=int, default=5,
                   help="clusters in the platform (default 5)")
    p.add_argument("--nodes", type=int, default=32,
                   help="nodes per cluster (default 32)")
    p.add_argument("--duration", type=float, default=900.0,
                   help="submission window in seconds (default 900)")
    p.add_argument("--load", type=float, default=2.0,
                   help="offered load rho (default 2.0)")
    p.add_argument("--algorithm", default="easy",
                   help="scheduler algorithm (default easy)")
    p.add_argument("--seed", type=int, default=20060619,
                   help="master seed (default 20060619)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'On the Harmfulness of Redundant Batch "
            "Requests' (Casanova, HPDC 2006)"
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="more diagnostics on stderr (repeatable)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="warnings and errors only",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the reproducible tables and figures")

    run = sub.add_parser("run", help="regenerate one experiment (or 'all')")
    run.add_argument(
        "experiment",
        help=f"experiment id: one of {', '.join(sorted(REGISTRY))}, or 'all'",
    )
    run.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="experiment scale (overrides REPRO_SCALE; default: 'default')",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="processes for replication parallelism (overrides REPRO_WORKERS)",
    )
    run.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persist simulation results in this directory "
        "(overrides REPRO_CACHE_DIR)",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="disable result caching (in-memory and on-disk)",
    )
    run.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the report(s) as JSON (experiment id is appended "
        "when running 'all')",
    )
    run.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write each report table as CSV into this directory",
    )

    bench = sub.add_parser(
        "bench",
        help="time the sweep engine (serial vs parallel, cold vs warm cache)",
    )
    bench.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker processes for the parallel measurement (default 4)",
    )
    bench.add_argument(
        "--schemes",
        nargs="+",
        type=_scheme_arg,
        default=None,
        metavar="SCHEME",
        help="schemes to sweep (default: the paper's R2 R3 R4 HALF ALL)",
    )
    bench.add_argument(
        "--replications",
        type=int,
        default=16,
        help="replications per config (default 16)",
    )
    bench.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write machine-readable timings to PATH ('-' for stdout only)",
    )
    bench.add_argument(
        "--profile",
        action="store_true",
        help="profile a serial sweep instead of timing it: cProfile "
        "hot spots plus generate/simulate/aggregate phase attribution",
    )
    bench.add_argument(
        "--top",
        type=int,
        default=20,
        help="hot functions to show with --profile (default 20)",
    )
    bench.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD", "NEW"),
        default=None,
        help="compare two bench --json payloads (or BENCH_*.json "
        "trajectory wrappers) instead of running; exits non-zero when "
        "any benchmark regressed by more than 20%%",
    )
    bench.add_argument(
        "--phase",
        action="store_true",
        help="time a reduced phase-diagram sweep (policy x d x regime x "
        "load) instead of the scheme sweep; the JSON payload carries the "
        "classified grid",
    )

    check = sub.add_parser(
        "check",
        help="run the runtime sanitizer (invariant audit + differential "
        "oracle + fuzz)",
    )
    check.add_argument(
        "--quick",
        action="store_true",
        help="small platforms and fuzz budget (the CI smoke posture)",
    )
    check.add_argument(
        "--fuzz",
        type=int,
        default=None,
        metavar="N",
        help="fuzz cases to run (default: 8 quick / 25 full; 0 disables)",
    )
    check.add_argument(
        "--config",
        default=None,
        metavar="JSON",
        help="audit one configuration instead of the suite: an inline "
        "JSON object of ExperimentConfig fields, or a path to a JSON "
        "file (skips the oracle and fuzz stages)",
    )

    trace = sub.add_parser(
        "trace",
        help="record and inspect lifecycle event traces",
    )
    tsub = trace.add_subparsers(dest="trace_command", required=True)

    rec = tsub.add_parser(
        "record",
        help="run a traced sweep; write trace.jsonl + manifest.json",
    )
    rec.add_argument("--out", required=True, metavar="DIR",
                     help="output directory for trace.jsonl + manifest.json")
    _add_grid_flags(rec, "ALL", "schemes to trace (default: ALL)",
                    "worker processes (traces stay byte-identical)")

    summ = tsub.add_parser("summary", help="aggregate view of a trace")
    summ.add_argument("trace", metavar="TRACE", help="path to trace.jsonl")

    exp = tsub.add_parser(
        "export-chrome",
        help="convert a trace to Chrome trace_event JSON (chrome://tracing)",
    )
    exp.add_argument("trace", metavar="TRACE", help="path to trace.jsonl")
    exp.add_argument("--out", required=True, metavar="PATH",
                     help="output .json path")

    filt = tsub.add_parser(
        "filter",
        help="print matching trace events as JSONL on stdout",
    )
    filt.add_argument("trace", metavar="TRACE", help="path to trace.jsonl")
    filt.add_argument("--type", dest="types", action="append",
                      choices=EVENT_TYPES, metavar="TYPE",
                      help=f"event type (repeatable): {', '.join(EVENT_TYPES)}")
    filt.add_argument("--cluster", type=int, default=None)
    filt.add_argument("--job", type=int, default=None)
    filt.add_argument("--request", type=int, default=None)
    filt.add_argument("--config", type=int, default=None,
                      help="config index within the trace")
    filt.add_argument("--rep", type=int, default=None)
    filt.add_argument("--t-min", type=float, default=None)
    filt.add_argument("--t-max", type=float, default=None)

    from .obs.probes import DEFAULT_PROBE_CADENCE

    probe = sub.add_parser(
        "probe",
        help="record and inspect sim-time probe series (online observability)",
    )
    psub = probe.add_subparsers(dest="probe_command", required=True)

    prec = psub.add_parser(
        "record",
        help="run a probed sweep; write probes.jsonl + manifest.json",
    )
    prec.add_argument("--out", required=True, metavar="DIR",
                      help="output directory for probes.jsonl + manifest.json")
    _add_grid_flags(prec, "ALL", "schemes to probe (default: ALL)",
                    "worker processes (probes stay byte-identical)")
    prec.add_argument("--cadence", type=float, default=DEFAULT_PROBE_CADENCE,
                      help="sim-seconds between samples "
                      f"(default {DEFAULT_PROBE_CADENCE:g})")

    psum = psub.add_parser("summary", help="aggregate view of a probe series")
    psum.add_argument("probes", metavar="PROBES", help="path to probes.jsonl")

    pplot = psub.add_parser(
        "plot-ascii",
        help="plot one probe field over sim time as ASCII",
    )
    pplot.add_argument("probes", metavar="PROBES", help="path to probes.jsonl")
    pplot.add_argument("--field", default="utilisation",
                       help="probe field to plot (default: utilisation); "
                       "cluster fields: queue_depth busy_nodes utilisation; "
                       "kernel fields: outstanding_duplicates "
                       "wasted_node_seconds pending_events compactions")
    pplot.add_argument("--cluster", type=int, default=None,
                       help="restrict to one cluster (kernel rows are -1; "
                       "default: one series per cluster carrying the field)")
    pplot.add_argument("--config", type=int, default=None,
                       help="config index within the series")
    pplot.add_argument("--rep", type=int, default=None,
                       help="replication index")

    pcmp = psub.add_parser(
        "compare",
        help="compare two probe series; exit non-zero if they diverge",
    )
    pcmp.add_argument("probes", nargs=2, metavar=("A", "B"),
                      help="two probes.jsonl paths")

    pexp = psub.add_parser(
        "export-chrome",
        help="convert a probe series to Chrome counter tracks "
        "(chrome://tracing)",
    )
    pexp.add_argument("probes", metavar="PROBES", help="path to probes.jsonl")
    pexp.add_argument("--out", required=True, metavar="PATH",
                      help="output .json path")

    serve = sub.add_parser(
        "serve",
        help="run the sweep service: submit jobs over HTTP, poll, fetch",
    )
    serve.add_argument("--state-dir", required=True, metavar="DIR",
                       help="service state: jobs/, shared result cache")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1; the wire "
                       "protocol trusts its peers — keep it loopback)")
    serve.add_argument("--port", type=int, default=8642,
                       help="bind port (default 8642; 0 picks a free port)")

    worker = sub.add_parser(
        "worker",
        help="lease chunks from a sweep service and compute them",
    )
    worker.add_argument("--url", required=True, metavar="URL",
                        help="service base url, e.g. http://127.0.0.1:8642")
    worker.add_argument("--worker-id", default=None,
                        help="worker identity in service logs (default: "
                        "derived from pid)")
    worker.add_argument("--poll-interval", type=float, default=0.2,
                        help="seconds between empty lease polls (default 0.2)")
    worker.add_argument("--max-chunks", type=int, default=None,
                        help="exit after this many completed chunks")
    worker.add_argument("--max-idle-polls", type=int, default=None,
                        help="exit after this many consecutive empty polls "
                        "(one-shot drain mode for CI)")

    job = sub.add_parser("job", help="submit and inspect sweep-service jobs")
    jsub = job.add_subparsers(dest="job_command", required=True)

    def job_url(p: argparse.ArgumentParser) -> None:
        p.add_argument("--url", required=True, metavar="URL",
                       help="service base url, e.g. http://127.0.0.1:8642")

    jsubmit = jsub.add_parser(
        "submit", help="submit a sweep job; prints the job id",
    )
    job_url(jsubmit)
    jsubmit.add_argument("--spec", default=None, metavar="PATH",
                         help="JobSpec JSON file ('-' for stdin); overrides "
                         "the config flags below")
    _add_grid_flags(jsubmit, "R2", "one config per scheme (default: R2)",
                    "pool executor width (default 1)")
    jsubmit.add_argument("--executor",
                         choices=("inprocess", "pool", "workqueue"),
                         default="inprocess",
                         help="how the server runs the grid (default "
                         "inprocess; workqueue needs `repro worker`s)")
    jsubmit.add_argument("--chunksize", type=int, default=None,
                         help="tasks per chunk (default: auto)")
    jsubmit.add_argument("--lease-ttl", type=float, default=30.0,
                         help="workqueue lease TTL in seconds (default 30)")
    jsubmit.add_argument("--max-attempts", type=int, default=3,
                         help="lease attempts per chunk before the job "
                         "fails (default 3)")
    jsubmit.add_argument("--wait", action="store_true",
                         help="block until the job reaches a terminal state")
    jsubmit.add_argument("--timeout", type=float, default=None,
                         help="give up waiting after this many seconds")

    jstatus = jsub.add_parser("status", help="one job's status as JSON")
    job_url(jstatus)
    jstatus.add_argument("job_id", metavar="JOB_ID")

    jwait = jsub.add_parser(
        "wait", help="poll until the job is done/failed/cancelled",
    )
    job_url(jwait)
    jwait.add_argument("job_id", metavar="JOB_ID")
    jwait.add_argument("--timeout", type=float, default=None,
                       help="give up after this many seconds")
    jwait.add_argument("--poll-interval", type=float, default=0.2,
                       help="seconds between polls (default 0.2)")

    jresult = jsub.add_parser(
        "result", help="fetch the job's canonical results JSON",
    )
    job_url(jresult)
    jresult.add_argument("job_id", metavar="JOB_ID")
    jresult.add_argument("--out", default=None, metavar="PATH",
                         help="write here instead of stdout")

    jcancel = jsub.add_parser("cancel", help="cancel a running job")
    job_url(jcancel)
    jcancel.add_argument("job_id", metavar="JOB_ID")

    jlist = jsub.add_parser("list", help="all jobs, one JSON line each")
    job_url(jlist)

    cache = sub.add_parser("cache", help="manage the on-disk result cache")
    csub = cache.add_subparsers(dest="cache_command", required=True)
    cprune = csub.add_parser(
        "prune",
        help="delete unreadable or stale-schema cache files",
    )
    cprune.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache directory (default: REPRO_CACHE_DIR)")

    from .lint.cli import add_lint_parser

    add_lint_parser(sub)
    return parser


def cmd_list() -> int:
    width = max(len(k) for k in REGISTRY)
    for exp_id, (title, _) in REGISTRY.items():
        print(f"  {exp_id:<{width}}  {title}")
    return 0


def _apply_cache_flags(cache_dir: Optional[str], no_cache: bool) -> None:
    if no_cache:
        os.environ["REPRO_NO_CACHE"] = "1"
    elif cache_dir is not None:
        os.environ.pop("REPRO_NO_CACHE", None)
        os.environ["REPRO_CACHE_DIR"] = cache_dir


def cmd_run(
    experiment: str,
    scale: Optional[str],
    workers: Optional[int],
    json_path: Optional[str] = None,
    csv_dir: Optional[str] = None,
    cache_dir: Optional[str] = None,
    no_cache: bool = False,
) -> int:
    if scale is not None:
        os.environ["REPRO_SCALE"] = scale
    if workers is not None:
        try:
            os.environ["REPRO_WORKERS"] = str(
                resolve_workers(workers, source="--workers")
            )
        except ValueError as exc:
            _log.error("%s", exc)
            return 2
    _apply_cache_flags(cache_dir, no_cache)
    ids = sorted(REGISTRY) if experiment == "all" else [experiment]
    many = len(ids) > 1
    for exp_id in ids:
        if exp_id not in REGISTRY:
            _log.error("unknown experiment %r; run 'repro list'", exp_id)
            return 2
        t0 = time.perf_counter()
        report = run_experiment(exp_id)
        elapsed = time.perf_counter() - t0
        print(report.render())
        _log.info("%s took %.1fs", exp_id, elapsed)
        if json_path is not None:
            from .analysis.export import report_to_json

            target = Path(json_path)
            if many:
                target = target.with_name(
                    f"{target.stem}_{exp_id}{target.suffix or '.json'}"
                )
            report_to_json(report, target)
            _log.info("wrote %s", target)
        if csv_dir is not None:
            from .analysis.export import table_to_csv

            directory = Path(csv_dir)
            directory.mkdir(parents=True, exist_ok=True)
            for i, table in enumerate(report.tables):
                path = directory / f"{exp_id}_table{i}.csv"
                table_to_csv(table, path)
                _log.info("wrote %s", path)
    return 0


def cmd_bench_phase(
    workers: int, replications: int, json_path: Optional[str]
) -> int:
    """Time a reduced phase-diagram sweep; emit the classified grid.

    Runs the smoke-scale grid (both cancellation policies, R2, the
    Lublin and scaled-Bernoulli regimes at ρ = 1.8) and reports timing
    plus the helpful/harmful classification per cell.  Exits non-zero if
    the sweep produced no classifiable cells (schema guard for CI).
    """
    from .analysis.registry import SCALES, phase_base_config
    from .core.cache import shared_cache

    try:
        workers = resolve_workers(workers, source="--workers")
    except ValueError as exc:
        _log.error("%s", exc)
        return 2
    from .policies.phase import CLASSES, run_phase_diagram

    scale = SCALES["smoke"]
    _log.info(
        "bench --phase: %d polic(ies) x %d degree(s) x %d regime(s) x "
        "%d load(s), %d replication(s), workers=%d",
        len(scale.phase_policies), len(scale.phase_degrees),
        len(scale.phase_regimes), len(scale.phase_loads),
        replications, workers,
    )
    t0 = time.perf_counter()
    diagram = run_phase_diagram(
        phase_base_config(scale),
        policies=scale.phase_policies,
        degrees=scale.phase_degrees,
        regimes=scale.phase_regimes,
        loads=scale.phase_loads,
        n_replications=replications,
        n_workers=workers,
        cache=shared_cache(),
    )
    elapsed = time.perf_counter() - t0
    ok = bool(diagram.cells) and all(
        c.stretch_class in CLASSES and c.waste_class in CLASSES
        for c in diagram.cells
    )
    payload = {
        "bench": "phase_diagram",
        "cpu_count": os.cpu_count(),
        "config": {"replications": replications, "workers": workers},
        "timings_s": {"sweep": elapsed},
        "cells_per_second": len(diagram.cells) / elapsed if elapsed else 0.0,
        "schema_ok": ok,
        **diagram.to_payload(),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if json_path and json_path != "-":
        Path(json_path).write_text(text + "\n")
        _log.info("wrote %s", json_path)
    else:
        print(text)
    _log.info(
        "bench --phase: %d cells in %.2fs (%d helpful, %d harmful)",
        len(diagram.cells), elapsed,
        payload["n_helpful"], payload["n_harmful"],
    )
    return 0 if ok else 1


def cmd_bench_compare(old_path: str, new_path: str) -> int:
    """Diff two bench payloads; exit 1 on any >20% regression."""
    from .bench import compare_payloads, load_bench_payload

    try:
        old = load_bench_payload(old_path)
        new = load_bench_payload(new_path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        _log.error("%s", exc)
        return 2
    comparison = compare_payloads(old, new)
    print(f"bench compare: {old_path} -> {new_path}")
    print(comparison.render())
    return 0 if comparison.ok else 1


def cmd_bench_profile(
    schemes: Optional[Sequence[str]],
    replications: int,
    top: int,
    json_path: Optional[str],
) -> int:
    """Profile a serial sweep; phase attribution + cProfile hot spots."""
    from .bench import profile_sweep
    from .core.config import ExperimentConfig
    from .core.schemes import PAPER_SCHEME_ORDER

    schemes = list(schemes) if schemes else list(PAPER_SCHEME_ORDER)
    cfg = ExperimentConfig(
        n_clusters=5, nodes_per_cluster=32, duration=900.0,
        offered_load=2.0, drain=True, seed=20060619,
    )
    _log.info(
        "profiling %d schemes x %d replications (serial, cProfile)",
        len(schemes), replications,
    )
    report = profile_sweep(cfg, schemes, replications, top=top)
    if json_path and json_path != "-":
        Path(json_path).write_text(
            json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
        )
        _log.info("wrote %s", json_path)
    print(report.render())
    return 0


def cmd_bench(
    workers: int,
    schemes: Optional[Sequence[str]],
    replications: int,
    json_path: Optional[str],
) -> int:
    """Benchmark the sweep engine and emit machine-readable timings.

    Three measurements over the same 5-scheme comparison grid:

    * ``serial``   — fresh run, one process, no cache (the seed path);
    * ``parallel`` — fresh run, ``--workers`` processes, no cache;
    * ``cold``/``warm`` — disk-cached runs into a temp directory; the
      warm rerun must hit the cache for every task.

    The payload folds in a :class:`~repro.obs.metrics.MetricsRegistry`
    snapshot (simulation counters summed over the serial sweep plus the
    engine's cache accounting) and a run manifest, so a bench artifact
    records what produced it.
    """
    import tempfile

    from .core.cache import ResultCache
    from .core.parallel import GridStats
    from .core.runner import compare_schemes
    from .core.schemes import PAPER_SCHEME_ORDER
    from .obs.manifest import build_manifest
    from .obs.metrics import MetricsRegistry, aggregate_results
    from .obs.stream import ONLINE_SCHEMA_VERSION, merge_online_payloads

    try:
        workers = resolve_workers(workers, source="--workers")
    except ValueError as exc:
        _log.error("%s", exc)
        return 2
    schemes = list(schemes) if schemes else list(PAPER_SCHEME_ORDER)
    from .core.config import ExperimentConfig

    cfg = ExperimentConfig(
        n_clusters=5, nodes_per_cluster=32, duration=900.0,
        offered_load=2.0, drain=True, seed=20060619,
    )
    n_tasks = (len(schemes) + 1) * replications
    _log.info(
        "bench: %d schemes x %d replications (+ baseline) = %d simulations; "
        "workers=%d", len(schemes), replications, n_tasks, workers,
    )

    stats = GridStats()
    metrics = MetricsRegistry()
    t_wall = time.perf_counter()
    with metrics.timer("bench_serial_s"):
        t0 = time.perf_counter()
        serial = compare_schemes(cfg, schemes, replications, n_workers=1,
                                 stats=stats, metrics=metrics)
        t_serial = time.perf_counter() - t0
    _log.info("bench serial:   %.2fs", t_serial)

    with metrics.timer("bench_parallel_s"):
        t0 = time.perf_counter()
        parallel = compare_schemes(cfg, schemes, replications,
                                   n_workers=workers, stats=stats,
                                   metrics=metrics)
        t_parallel = time.perf_counter() - t0
    _log.info("bench parallel: %.2fs (speedup %.2fx)",
              t_parallel, t_serial / t_parallel)

    identical = all(
        serial.relative(s) == parallel.relative(s) for s in schemes
    )

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cache = ResultCache(tmp)
        with metrics.timer("bench_cold_cache_s"):
            t0 = time.perf_counter()
            compare_schemes(cfg, schemes, replications, n_workers=workers,
                            cache=cache, stats=stats, metrics=metrics)
            t_cold = time.perf_counter() - t0
        cache.clear_memory()  # force the warm run through the disk layer
        warm_start_hits = cache.stats.hits
        with metrics.timer("bench_warm_cache_s"):
            t0 = time.perf_counter()
            warm = compare_schemes(cfg, schemes, replications,
                                   n_workers=workers, cache=cache,
                                   stats=stats, metrics=metrics)
            t_warm = time.perf_counter() - t0
        warm_hits = cache.stats.hits - warm_start_hits
    _log.info("bench cold cache: %.2fs; warm cache: %.2fs "
              "(%d/%d tasks from cache)", t_cold, t_warm, warm_hits, n_tasks)
    identical = identical and all(
        serial.relative(s) == warm.relative(s) for s in schemes
    )

    # Simulation counters from the serial sweep only (the other three
    # sweeps rerun/cache the same grid; counting them would triple up).
    aggregate_results(
        [r for r in serial.baseline]
        + [r for results in serial.per_scheme.values() for r in results],
        metrics,
    )

    # Per-run online_metrics payloads merged across the
    # serial sweep's replications, per scheme and overall — the sweep's
    # headline distributions without holding any per-request arrays.
    online = {
        "schema": ONLINE_SCHEMA_VERSION,
        "baseline": merge_online_payloads(
            r.online_metrics for r in serial.baseline
        ),
        "per_scheme": {
            s: merge_online_payloads(
                r.online_metrics for r in serial.per_scheme[s]
            )
            for s in schemes
        },
        "overall": merge_online_payloads(
            r.online_metrics
            for results in serial.per_scheme.values()
            for r in results
        ),
    }

    bench_configs = [cfg.with_(scheme="NONE")] + [
        cfg.with_(scheme=s) for s in schemes
    ]
    manifest = build_manifest(
        bench_configs,
        n_replications=replications,
        n_workers=workers,
        wall_time_s=time.perf_counter() - t_wall,
        grid_stats=stats.as_dict(),
        command=["repro", "bench"],
        extra={"bench": "parallel_sweep"},
    )

    payload = {
        "bench": "parallel_sweep",
        "cpu_count": os.cpu_count(),
        "config": {
            "schemes": schemes,
            "replications": replications,
            "workers": workers,
            "n_tasks": n_tasks,
        },
        "timings_s": {
            "serial": t_serial,
            "parallel": t_parallel,
            "cold_cache": t_cold,
            "warm_cache": t_warm,
        },
        "speedup_parallel": t_serial / t_parallel,
        "speedup_warm_cache": t_serial / t_warm,
        "warm_cache_hits": warm_hits,
        "warm_cache_complete": warm_hits == n_tasks,
        "results_identical": identical,
        "online": online,
        "metrics": metrics.snapshot(),
        "manifest": manifest.to_dict(),
        **stats.as_dict(),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if json_path and json_path != "-":
        Path(json_path).write_text(text + "\n")
        _log.info("wrote %s", json_path)
    else:
        print(text)
    return 0 if identical else 1


def cmd_check(
    quick: bool, fuzz: Optional[int], config_spec: Optional[str]
) -> int:
    """Run the sanitizer; exit 0 iff every audited invariant held.

    The report (violations with obs-layer trace context, oracle
    relations, fuzz outcomes) goes to stdout; per-stage progress flows
    to stderr like every other diagnostic.
    """
    from .sanitize import run_check

    t0 = time.perf_counter()
    report = run_check(
        quick=quick,
        fuzz_cases=fuzz,
        config_spec=config_spec,
        progress=lambda msg: _log.info("%s", msg),
    )
    print(report.render())
    _log.info("check took %.1fs", time.perf_counter() - t0)
    return 0 if report.ok else 1


def _grid_configs(args: argparse.Namespace) -> list:
    """One drained config per ``--schemes`` entry, from the grid flags.

    Raises ``ValueError`` naming the bad flag or config field, which
    every caller answers with one ERROR line and exit 2.
    """
    from .core.config import ExperimentConfig

    if args.replications < 1:
        raise ValueError(
            f"--replications must be >= 1, got {args.replications}"
        )
    return [
        ExperimentConfig(
            scheme=scheme,
            algorithm=args.algorithm,
            n_clusters=args.clusters,
            nodes_per_cluster=args.nodes,
            duration=args.duration,
            offered_load=args.load,
            drain=True,
            seed=args.seed,
        )
        for scheme in args.schemes
    ]


def _cmd_record(
    args: argparse.Namespace, record, filename: str, count_key: str
) -> int:
    """Run ``trace record`` or ``probe record`` through ``record``.

    Bad flags exit 2 before ``--out`` exists; ``count_key`` names the
    manifest's record count.
    """
    from .obs.manifest import MANIFEST_FILENAME

    try:
        workers = resolve_workers(args.workers, source="--workers")
        configs = _grid_configs(args)
    except ValueError as exc:
        _log.error("%s", exc)
        return 2
    _log.info(
        "recording %s sweep: %d config(s) x %d replication(s), workers=%d",
        args.command, len(configs), args.replications, workers,
    )
    _, manifest = record(
        configs,
        args.replications,
        args.out,
        n_workers=workers,
        command=["repro", args.command, "record"],
    )
    out = Path(args.out)
    _log.info("wrote %s (%d records) and %s", out / filename,
              manifest.extra[count_key], out / MANIFEST_FILENAME)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Dispatch the ``repro trace`` sub-subcommands."""
    from .obs.trace import (
        TRACE_FILENAME, TRACE_KIND, TRACE_SCHEMA_VERSION, filter_events,
        read_jsonl, record_sweep, summarize_trace,
    )

    if args.trace_command == "record":
        return _cmd_record(args, record_sweep, TRACE_FILENAME,
                           "n_trace_events")

    _, events = read_jsonl(args.trace, TRACE_KIND, TRACE_SCHEMA_VERSION)

    if args.trace_command == "summary":
        print(json.dumps(summarize_trace(events), indent=2, sort_keys=True))
        return 0

    if args.trace_command == "export-chrome":
        from .obs.chrome import export_chrome

        out = export_chrome(events, args.out)
        _log.info("wrote %s", out)
        return 0

    if args.trace_command == "filter":
        for ev in filter_events(
            events,
            types=args.types,
            cluster=args.cluster,
            job=args.job,
            request=args.request,
            config=args.config,
            rep=args.rep,
            t_min=args.t_min,
            t_max=args.t_max,
        ):
            print(json.dumps(ev, sort_keys=True, separators=(",", ":")))
        return 0

    raise AssertionError(
        f"unhandled trace command {args.trace_command}"
    )  # pragma: no cover


def cmd_probe(args: argparse.Namespace) -> int:
    """Dispatch the ``repro probe`` sub-subcommands."""
    from functools import partial

    from .obs.probes import (
        PROBE_KIND, PROBE_SCHEMA_VERSION, PROBES_FILENAME,
        record_probe_sweep, summarize_probes,
    )
    from .obs.trace import read_jsonl

    def read(path: str) -> tuple[dict, list[dict]]:
        return read_jsonl(path, PROBE_KIND, PROBE_SCHEMA_VERSION)

    if args.probe_command == "record":
        if args.cadence <= 0.0:
            _log.error("--cadence must be positive, got %g", args.cadence)
            return 2
        return _cmd_record(
            args, partial(record_probe_sweep, cadence=args.cadence),
            PROBES_FILENAME, "n_probe_records",
        )

    if args.probe_command == "compare":
        path_a, path_b = args.probes
        header_a, records_a = read(path_a)
        header_b, records_b = read(path_b)
        divergences = []
        if header_a != header_b:
            divergences.append("headers differ")
        if len(records_a) != len(records_b):
            divergences.append(
                f"record counts differ: {len(records_a)} vs {len(records_b)}"
            )
        first_diff = next(
            (i for i, (a, b) in enumerate(zip(records_a, records_b))
             if a != b),
            None,
        )
        if first_diff is not None:
            divergences.append(f"first differing record at line {first_diff + 2}")
        report = {
            "a": str(path_a),
            "b": str(path_b),
            "identical": not divergences,
            "n_records": [len(records_a), len(records_b)],
            "divergences": divergences,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if not divergences else 1

    _, records = read(args.probes)

    if args.probe_command == "summary":
        print(json.dumps(summarize_probes(records), indent=2, sort_keys=True))
        return 0

    if args.probe_command == "plot-ascii":
        from .analysis.plots import AsciiPlot
        from .obs.probes import probe_series

        clusters = (
            [args.cluster] if args.cluster is not None
            else sorted({
                rec["cluster"] for rec in records if args.field in rec
            })
        )
        plot = AsciiPlot(
            title=f"{args.field} ({Path(args.probes).name})",
            xlabel="sim time (s)",
            ylabel=args.field,
        )
        for cluster in clusters:
            points = probe_series(
                records, args.field, cluster=cluster,
                config=args.config, rep=args.rep,
            )
            if points:
                label = "kernel" if cluster == -1 else f"cluster {cluster}"
                plot.add_series(label, points)
        if not plot.series:
            _log.error("no records carry field %r (with those filters)",
                       args.field)
            return 2
        print(plot.render())
        return 0

    if args.probe_command == "export-chrome":
        from .obs.chrome import probes_to_counter_trace, write_chrome

        out = write_chrome(probes_to_counter_trace(records), args.out)
        _log.info("wrote %s", out)
        return 0

    raise AssertionError(
        f"unhandled probe command {args.probe_command}"
    )  # pragma: no cover


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the sweep service until interrupted.

    The bound endpoint is printed to stdout as one JSON line so shell
    scripts (and the CI smoke job) can capture it even with ``--port 0``.
    """
    from .service.server import SweepService

    service = SweepService(args.state_dir, host=args.host, port=args.port)
    port = service.start()
    url = f"http://{args.host}:{port}"
    print(json.dumps({"url": url, "state_dir": str(args.state_dir)},
                     sort_keys=True), flush=True)
    _log.info("sweep service listening on %s (state: %s)",
              url, args.state_dir)
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        _log.info("interrupt: stopping service")
    finally:
        service.stop()
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    """Run one queue worker against a sweep service."""
    from .service.worker import QueueWorker

    worker = QueueWorker(
        args.url,
        worker_id=args.worker_id,
        poll_interval_s=args.poll_interval,
    )
    try:
        completed = worker.run(
            max_chunks=args.max_chunks,
            max_idle_polls=args.max_idle_polls,
        )
    except KeyboardInterrupt:
        _log.info("interrupt: worker exiting")
        return 130
    print(json.dumps({"chunks_completed": completed}, sort_keys=True))
    return 0


def _job_spec_payload(args: argparse.Namespace) -> dict:
    """Build the submit payload from ``--spec`` or the config flags."""
    from .service.jobs import JobSpec

    if args.spec is not None:
        if args.spec == "-":
            text = sys.stdin.read()
        else:
            text = Path(args.spec).read_text(encoding="utf-8")
        # Round-trip through JobSpec so a malformed file fails here,
        # client-side, with a useful message.
        return JobSpec.from_dict(json.loads(text)).to_dict()
    configs = tuple(_grid_configs(args))
    return JobSpec(
        configs=configs,
        n_replications=args.replications,
        executor=args.executor,
        n_workers=args.workers,
        chunksize=args.chunksize,
        lease_ttl_s=args.lease_ttl,
        max_attempts=args.max_attempts,
    ).to_dict()


def cmd_job(args: argparse.Namespace) -> int:
    """Dispatch the ``repro job`` sub-subcommands."""
    from .service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.job_command == "submit":
            spec = _job_spec_payload(args)
            job_id = client.submit(spec)
            _log.info("submitted %s", job_id)
            if args.wait:
                status = client.wait(job_id, timeout=args.timeout)
                print(json.dumps(status, indent=2, sort_keys=True))
                return 0 if status.get("state") == "done" else 1
            print(job_id)
            return 0
        if args.job_command == "status":
            print(json.dumps(client.status(args.job_id), indent=2,
                             sort_keys=True))
            return 0
        if args.job_command == "wait":
            status = client.wait(
                args.job_id,
                timeout=args.timeout,
                poll_interval_s=args.poll_interval,
            )
            print(json.dumps(status, indent=2, sort_keys=True))
            return 0 if status.get("state") == "done" else 1
        if args.job_command == "result":
            data = client.results_bytes(args.job_id)
            if args.out is not None and args.out != "-":
                Path(args.out).write_bytes(data)
                _log.info("wrote %s", args.out)
            else:
                sys.stdout.buffer.write(data)
                sys.stdout.buffer.flush()
            return 0
        if args.job_command == "cancel":
            print(json.dumps(client.cancel(args.job_id), indent=2,
                             sort_keys=True))
            return 0
        if args.job_command == "list":
            for job in client.jobs():
                print(json.dumps(job, sort_keys=True,
                                 separators=(",", ":")))
            return 0
    except ServiceError as exc:
        _log.error("%s", exc)
        return 1
    except (OSError, TimeoutError, ValueError,
            json.JSONDecodeError) as exc:
        _log.error("%s", exc)
        return 2
    raise AssertionError(
        f"unhandled job command {args.job_command}"
    )  # pragma: no cover


def cmd_cache(args: argparse.Namespace) -> int:
    """Dispatch the ``repro cache`` sub-subcommands."""
    if args.cache_command == "prune":
        from .core.cache import ResultCache

        cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
        if not cache_dir:
            _log.error(
                "no cache directory: pass --cache-dir or set REPRO_CACHE_DIR"
            )
            return 2
        cache = ResultCache(cache_dir)
        removed = cache.prune_stale()
        _log.info("pruned %d stale file(s) from %s", removed, cache_dir)
        print(json.dumps(
            {"cache_dir": str(cache_dir), "removed": removed},
            sort_keys=True,
        ))
        return 0
    raise AssertionError(
        f"unhandled cache command {args.cache_command}"
    )  # pragma: no cover


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    setup_logging(verbosity=-1 if args.quiet else args.verbose)
    if args.command == "list":
        return cmd_list()
    if args.command == "run":
        return cmd_run(args.experiment, args.scale, args.workers,
                       args.json, args.csv, args.cache_dir, args.no_cache)
    if args.command == "bench":
        if args.compare is not None:
            return cmd_bench_compare(args.compare[0], args.compare[1])
        if args.phase:
            return cmd_bench_phase(args.workers, args.replications,
                                   args.json)
        if args.profile:
            return cmd_bench_profile(args.schemes, args.replications,
                                     args.top, args.json)
        return cmd_bench(args.workers, args.schemes, args.replications,
                         args.json)
    if args.command == "check":
        return cmd_check(args.quick, args.fuzz, args.config)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "probe":
        return cmd_probe(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "worker":
        return cmd_worker(args)
    if args.command == "job":
        return cmd_job(args)
    if args.command == "cache":
        return cmd_cache(args)
    if args.command == "lint":
        from .lint.cli import cmd_lint

        return cmd_lint(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
