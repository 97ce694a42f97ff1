"""Lifecycle trace recording: typed events, JSONL, deterministic sweeps.

The paper's claims are statements about *per-request lifecycle
orderings* — redundant copies submitted, one started, losers cancelled
(or lost and orphaned under the fault model) — and the trace recorder
makes those orderings a first-class artifact.  Event taxonomy:

========================  ====================================================
``submit``                coordinator hands one copy to a target cluster
``queue``                 the scheduler accepted it into its queue
``start``                 the request was allocated nodes and began running
``cancel_sent``           the coordinator issued a sibling cancellation
``cancel_lost``           that message was dropped (fault draw) or rejected
                          by a downed scheduler — the copy is orphaned
``cancel_applied``        the scheduler removed a pending request (also
                          emitted for queue entries lost in a queue-dropping
                          outage, at the outage instant)
``complete``              a running request finished
``winner_complete``       the job's winner finished (cancel-on-complete's
                          deferred sweep starts here)
``outage_down``           a cluster's scheduler daemon went down
``outage_up``             it came back
========================  ====================================================

Recording is **opt-in and zero-overhead when disabled**: the recorder
is one implementation of the lifecycle ``observer`` hook, every hook
site guards on ``observer is not None`` (one attribute load), no
recorder object is allocated, no RNG stream is consumed, and results
are bit-identical to an untraced run.

Determinism: a trace is recorded per ``(config, replication)`` task —
request ids are reset at task entry so they depend only on the task,
never on which worker process ran it or what it ran before — and
:func:`record_sweep` writes tasks in ``(config, replication)`` order.
The JSONL produced with ``--workers 4`` is therefore byte-identical to
``--workers 1`` (locked in by ``tests/obs/test_trace.py``).

This module also holds the recording machinery that traces and
:mod:`repro.obs.probes` share: the one schema-versioned JSONL codec
(:func:`write_jsonl`/:func:`read_jsonl`, keyed by the header's
``kind`` and ``schema``) and the one recorded-sweep body
(:func:`record_grid`).  :func:`record_sweep` and
:func:`~repro.obs.probes.record_probe_sweep` each supply only a runner,
a row function and their own header and manifest keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union

from ..contracts import declared_pure
from ..core.cache import config_fingerprint
from ..core.config import ExperimentConfig
from ..core.experiment import run_single
from ..core.parallel import GridStats, run_grid
from ..core.results import ExperimentResult
from ..sched.job import reset_request_ids
from .manifest import MANIFEST_FILENAME, RunManifest, build_manifest

#: bump whenever the event tuple shape or JSONL line schema changes
TRACE_SCHEMA_VERSION = 1

#: the full event taxonomy, in lifecycle order
EVENT_TYPES = (
    "submit",
    "queue",
    "start",
    "cancel_sent",
    "cancel_lost",
    "cancel_applied",
    "complete",
    "winner_complete",
    "outage_down",
    "outage_up",
)

#: the recorded types, for :meth:`TraceRecorder.on`'s filter; observers
#: may also receive check-only events (``pass``, ``backfill``,
#: ``duplicate_start``) that a trace never holds
_RECORDED = frozenset(EVENT_TYPES)

#: the ``kind`` a trace file's header carries
TRACE_KIND = "repro-trace"

#: canonical trace file name inside a recording directory
TRACE_FILENAME = "trace.jsonl"

#: one recorded event: (sim_time, type, cluster, request_id, job_id);
#: request/job are -1 for cluster-level events (outages)
RawEvent = "tuple[float, str, int, int, int]"


def format_event(event: "tuple[float, str, int, int, int]") -> str:
    """One aligned, human-readable line for a raw event tuple.

    Shared by trace summaries and the sanitizer's violation reports so
    trace context renders identically everywhere.
    """
    t, etype, cluster, request, job = event
    return (
        f"t={t:<12.3f} {etype:<14} cluster={cluster} "
        f"request={request} job={job}"
    )


class TraceRecorder:
    """Collects lifecycle events for one simulated run.

    The recorder is a bare append sink — interpretation (JSONL, Chrome
    export, summaries) happens after the run.  Hook sites hold it as
    their ``observer`` and guard with ``if observer is not None``, so a
    run without one pays one attribute check per lifecycle event and
    nothing else.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[tuple[float, str, int, int, int]] = []

    def on(self, etype: str, sched, request=None, detail=None) -> None:
        """Record one lifecycle event of scheduler ``sched``, at its now.

        The observer call shape: ``request`` is ``None`` for
        cluster-level events (outages), and ``detail`` carries what only
        the check-only events need.  Types outside :data:`EVENT_TYPES`
        are ignored.
        """
        if etype not in _RECORDED:
            return
        if request is None:
            event = (sched.sim.now, etype, sched.cluster.index, -1, -1)
        else:
            event = (
                sched.sim.now,
                etype,
                sched.cluster.index,
                request.request_id,
                getattr(request.group, "job_id", -1),
            )
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def clear(self) -> None:
        self.events.clear()


@dataclass
class TracedRun:
    """A run's result together with its recorded events (picklable)."""

    result: ExperimentResult
    events: list[tuple[float, str, int, int, int]]


def run_single_traced(
    config: ExperimentConfig, replication: int = 0
) -> TracedRun:
    """Run one replication with tracing on; a drop-in ``run_grid`` runner.

    Request ids are reset on entry so the recorded ids are a pure
    function of ``(config, replication)`` — the property that makes
    parallel traces byte-identical to serial ones.
    """
    reset_request_ids()
    recorder = TraceRecorder()
    result = run_single(config, replication, observer=recorder)
    return TracedRun(result=result, events=recorder.events)


# -- JSONL serialisation --------------------------------------------------


def _event_record(
    event: tuple[float, str, int, int, int],
    config_index: int,
    replication: int,
    scheme: str,
) -> dict:
    t, etype, cluster, request_id, job_id = event
    return {
        "t": t,
        "type": etype,
        "cluster": cluster,
        "request": request_id,
        "job": job_id,
        "config": config_index,
        "rep": replication,
        "scheme": scheme,
    }


@declared_pure
def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_jsonl(
    path: Union[str, Path],
    kind: str,
    schema: int,
    header: dict,
    records: Iterable[dict],
) -> int:
    """Write a schema-versioned JSONL file; returns the record count.

    Line 1 is the header, led by ``kind``/``schema``; every further
    line is one record.  Output is canonical (sorted keys, compact
    separators) so identical records produce identical bytes.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps({"kind": kind, "schema": schema, **header}) + "\n")
        for record in records:
            fh.write(_dumps(record) + "\n")
            count += 1
    return count


def read_jsonl(
    path: Union[str, Path], kind: str, schema: int
) -> tuple[dict, list[dict]]:
    """Load a JSONL file of ``kind``; returns ``(header, records)``.

    Raises ``ValueError`` naming the expected kind on an empty file, a
    foreign header or another schema version, and naming the path and
    the 1-based line number on a line that is not JSON: failing loudly
    beats misreading someone else's JSONL.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.strip():
            raise ValueError(f"{path}: empty file, expected {kind}")
        header = _parse_line(path, 1, first)
        if not isinstance(header, dict) or header.get("kind") != kind:
            raise ValueError(f"{path}: not a {kind} file (bad header)")
        if header.get("schema") != schema:
            raise ValueError(
                f"{path}: unsupported {kind} schema {header.get('schema')!r} "
                f"(this build reads {schema})"
            )
        records = [
            _parse_line(path, lineno, line)
            for lineno, line in enumerate(fh, start=2) if line.strip()
        ]
    return header, records


def _parse_line(path: Union[str, Path], lineno: int, line: str) -> Any:
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: line {lineno} is not JSON "
            f"({exc.msg} at column {exc.colno})"
        ) from None


# -- querying -------------------------------------------------------------


def filter_events(
    events: Iterable[dict],
    types: Optional[Sequence[str]] = None,
    cluster: Optional[int] = None,
    job: Optional[int] = None,
    request: Optional[int] = None,
    config: Optional[int] = None,
    rep: Optional[int] = None,
    t_min: Optional[float] = None,
    t_max: Optional[float] = None,
) -> Iterator[dict]:
    """Lazily filter event records; ``None`` means "don't filter"."""
    wanted = set(types) if types is not None else None
    for ev in events:
        if wanted is not None and ev.get("type") not in wanted:
            continue
        if cluster is not None and ev.get("cluster") != cluster:
            continue
        if job is not None and ev.get("job") != job:
            continue
        if request is not None and ev.get("request") != request:
            continue
        if config is not None and ev.get("config") != config:
            continue
        if rep is not None and ev.get("rep") != rep:
            continue
        t = ev.get("t", 0.0)
        if t_min is not None and t < t_min:
            continue
        if t_max is not None and t > t_max:
            continue
        yield ev


def summarize_trace(events: Iterable[dict]) -> dict:
    """Aggregate view of a trace: counts by type/cluster/scheme, spans."""
    by_type: dict[str, int] = {}
    by_cluster: dict[int, int] = {}
    by_scheme: dict[str, int] = {}
    jobs: set = set()
    requests: set = set()
    t_first: Optional[float] = None
    t_last: Optional[float] = None
    n = 0
    for ev in events:
        n += 1
        etype = ev.get("type", "?")
        by_type[etype] = by_type.get(etype, 0) + 1
        cluster = ev.get("cluster", -1)
        by_cluster[cluster] = by_cluster.get(cluster, 0) + 1
        scheme = ev.get("scheme", "?")
        by_scheme[scheme] = by_scheme.get(scheme, 0) + 1
        if ev.get("job", -1) >= 0:
            jobs.add((ev.get("config"), ev.get("rep"), ev["job"]))
        if ev.get("request", -1) >= 0:
            requests.add((ev.get("config"), ev.get("rep"), ev["request"]))
        t = ev.get("t", 0.0)
        t_first = t if t_first is None else min(t_first, t)
        t_last = t if t_last is None else max(t_last, t)
    return {
        "n_events": n,
        "by_type": dict(sorted(by_type.items())),
        "by_cluster": dict(sorted(by_cluster.items())),
        "by_scheme": dict(sorted(by_scheme.items())),
        "n_jobs": len(jobs),
        "n_requests": len(requests),
        "t_first": t_first,
        "t_last": t_last,
    }


# -- recorded sweeps -----------------------------------------------------


def record_grid(
    configs: Sequence[ExperimentConfig],
    n_replications: int,
    out_dir: Union[str, Path],
    *,
    runner: Callable,
    rows: Callable[[Any, int, int, str], Iterable[dict]],
    kind: str,
    schema: int,
    filename: str,
    manifest_extra: Callable[[int], dict],
    header_extra: Optional[dict] = None,
    n_workers: int = 1,
    first_replication: int = 0,
    chunksize: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    stats: Optional[GridStats] = None,
    command: Optional[Sequence[str]] = None,
) -> tuple[list[list[ExperimentResult]], RunManifest]:
    """Run a recorded sweep; write ``filename`` + ``manifest.json``.

    The one body behind :func:`record_sweep` and
    :func:`~repro.obs.probes.record_probe_sweep`.  The grid runs through
    the ordinary sweep engine with ``runner`` substituted and caching
    off: a cached result has nothing to record.  The records of
    ``rows(run, config_index, replication, scheme)`` are written in
    ``(config, replication)`` order, so the file is byte-identical for
    any ``n_workers``.  A repeated config is recorded once, under its
    first index; the results come back parallel to ``configs``.
    """
    import time as _time

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    unique = list(dict.fromkeys(configs))

    stats = stats if stats is not None else GridStats()
    t0 = _time.perf_counter()
    runs = run_grid(
        unique,
        n_replications,
        n_workers=n_workers,
        first_replication=first_replication,
        cache=None,
        chunksize=chunksize,
        progress=progress,
        runner=runner,
        stats=stats,
    )
    wall = _time.perf_counter() - t0

    reps = range(first_replication, first_replication + n_replications)

    def iter_records() -> Iterator[dict]:
        for ui, cfg in enumerate(unique):
            for ri, rep in enumerate(reps):
                yield from rows(runs[ui][ri], ui, rep, cfg.scheme)

    header = {
        **(header_extra or {}),
        "configs": [
            {
                "index": ui,
                "scheme": cfg.scheme,
                "describe": cfg.describe(),
                "fingerprint": config_fingerprint(cfg),
            }
            for ui, cfg in enumerate(unique)
        ],
        "n_replications": n_replications,
        "first_replication": first_replication,
    }
    n_records = write_jsonl(
        out_dir / filename, kind, schema, header, iter_records()
    )

    manifest = build_manifest(
        unique,
        n_replications=n_replications,
        first_replication=first_replication,
        n_workers=n_workers,
        wall_time_s=wall,
        grid_stats=stats.as_dict(),
        command=list(command) if command is not None else None,
        extra=manifest_extra(n_records),
    )
    manifest.write(out_dir / MANIFEST_FILENAME)

    runs_of = dict(zip(unique, runs))
    return [[run.result for run in runs_of[cfg]] for cfg in configs], manifest


def _trace_rows(
    run: TracedRun, config_index: int, replication: int, scheme: str
) -> Iterator[dict]:
    for event in run.events:
        yield _event_record(event, config_index, replication, scheme)


def record_sweep(
    configs: Sequence[ExperimentConfig],
    n_replications: int,
    out_dir: Union[str, Path],
    n_workers: int = 1,
    first_replication: int = 0,
    chunksize: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    stats: Optional[GridStats] = None,
    command: Optional[Sequence[str]] = None,
) -> tuple[list[list[ExperimentResult]], RunManifest]:
    """Run a sweep with tracing on; write ``trace.jsonl`` + ``manifest.json``."""
    return record_grid(
        configs,
        n_replications,
        out_dir,
        runner=run_single_traced,
        rows=_trace_rows,
        kind=TRACE_KIND,
        schema=TRACE_SCHEMA_VERSION,
        filename=TRACE_FILENAME,
        manifest_extra=lambda n: {
            "n_trace_events": n, "trace_file": TRACE_FILENAME,
        },
        n_workers=n_workers,
        first_replication=first_replication,
        chunksize=chunksize,
        progress=progress,
        stats=stats,
        command=command,
    )
