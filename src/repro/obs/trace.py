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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from ..contracts import declared_pure
from ..core.cache import config_fingerprint
from ..core.config import ExperimentConfig
from ..core.experiment import run_single
from ..core.parallel import GridStats, run_grid
from ..core.results import ExperimentResult
from ..sched.job import reset_request_ids
from .manifest import RunManifest, build_manifest

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

#: canonical trace / manifest file names inside a recording directory
TRACE_FILENAME = "trace.jsonl"
MANIFEST_FILENAME = "manifest.json"

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


def write_trace(
    path: Union[str, Path],
    header: dict,
    records: Iterable[dict],
) -> int:
    """Write a schema-versioned JSONL trace; returns the event count.

    Line 1 is the header (always carrying ``kind``/``schema``); every
    further line is one event record.  Output is canonical (sorted
    keys, compact separators) so identical events produce identical
    bytes.
    """
    header = {"kind": "repro-trace", "schema": TRACE_SCHEMA_VERSION, **header}
    count = 0
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(header) + "\n")
        for record in records:
            fh.write(_dumps(record) + "\n")
            count += 1
    return count


def read_trace(path: Union[str, Path]) -> tuple[dict, list[dict]]:
    """Load a JSONL trace; returns ``(header, events)``.

    Raises ``ValueError`` on a missing/foreign header or an unsupported
    schema version — a trace is an interchange artifact, so failing
    loudly beats misinterpreting someone else's JSONL.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.strip():
            raise ValueError(f"{path}: empty trace file")
        header = json.loads(first)
        if not isinstance(header, dict) or header.get("kind") != "repro-trace":
            raise ValueError(f"{path}: not a repro trace (bad header)")
        if header.get("schema") != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"{path}: unsupported trace schema {header.get('schema')!r} "
                f"(this build reads {TRACE_SCHEMA_VERSION})"
            )
        events = [json.loads(line) for line in fh if line.strip()]
    return header, events


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


# -- traced sweeps --------------------------------------------------------


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
    """Run a sweep with tracing on; write ``trace.jsonl`` + ``manifest.json``.

    The grid runs through the ordinary sweep engine (chunking, retry,
    crash recovery all apply) with the traced runner substituted and
    caching off — a cached result has no events to contribute, and a
    trace must reflect work actually performed.  Events are written in
    ``(config, replication)`` order regardless of worker scheduling, so
    the JSONL is byte-identical for any ``n_workers``.

    Returns the unwrapped results (parallel to ``configs``) and the
    manifest.  Duplicate configs are collapsed in the trace (each
    unique config appears once, under its first index).
    """
    import time as _time

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    unique: list[ExperimentConfig] = []
    slots: list[int] = []
    index_of: dict[ExperimentConfig, int] = {}
    for cfg in configs:
        ui = index_of.get(cfg)
        if ui is None:
            ui = index_of[cfg] = len(unique)
            unique.append(cfg)
        slots.append(ui)

    stats = stats if stats is not None else GridStats()
    t0 = _time.perf_counter()
    traced = run_grid(
        unique,
        n_replications,
        n_workers=n_workers,
        first_replication=first_replication,
        cache=None,
        chunksize=chunksize,
        progress=progress,
        runner=run_single_traced,
        stats=stats,
    )
    wall = _time.perf_counter() - t0

    reps = range(first_replication, first_replication + n_replications)

    def iter_records() -> Iterator[dict]:
        for ui, cfg in enumerate(unique):
            for ri, rep in enumerate(reps):
                for event in traced[ui][ri].events:
                    yield _event_record(event, ui, rep, cfg.scheme)

    header = {
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
    n_events = write_trace(out_dir / TRACE_FILENAME, header, iter_records())

    manifest = build_manifest(
        unique,
        n_replications=n_replications,
        first_replication=first_replication,
        n_workers=n_workers,
        wall_time_s=wall,
        grid_stats=stats.as_dict(),
        command=list(command) if command is not None else None,
        extra={"n_trace_events": n_events, "trace_file": TRACE_FILENAME},
    )
    manifest.write(out_dir / MANIFEST_FILENAME)

    per_unique = [[tr.result for tr in traced[ui]] for ui in range(len(unique))]
    return [list(per_unique[ui]) for ui in slots], manifest
