"""Export JSONL traces to Chrome ``trace_event`` JSON.

The output loads directly in chrome://tracing or https://ui.perfetto.dev:
each ``(config, replication, cluster)`` becomes a named process row,
each job a thread within it; a request's queued interval
(``queue`` → ``start``/``cancel_applied``) and running interval
(``start`` → ``complete``) become complete-events (``ph: "X"``), and
point-in-time protocol actions (``submit``, ``cancel_sent``,
``cancel_lost``, ``outage_down``, ``outage_up``) become instants
(``ph: "i"``).  Sim-time seconds map to trace microseconds.

Rows are fully labelled: every process carries ``process_name`` and
``process_sort_index`` metadata and every thread a ``thread_name``
(``job N``, or ``cluster`` for queue-level instants), so multi-cluster
traces render with stable, human-readable rows.  ``pid`` assignment is
*stable*: pids are allocated over the sorted set of
``(config, rep, cluster)`` keys, not in first-seen event order, so
reordering events (or filtering a subset that preserves the key set)
never reshuffles rows.

Probe time series (see :mod:`repro.obs.probes`) export as counter
tracks (``ph: "C"``) via :func:`probes_to_counter_trace`, a document of
their own, viewable as stacked area charts.  Both documents are written
by :func:`write_chrome`.

The exporter is deterministic — identical input events produce
byte-identical JSON (a golden file in ``tests/obs/test_chrome.py``
locks the format).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Union

from .probes import PROBE_SCHEMA_VERSION
from .trace import TRACE_SCHEMA_VERSION

#: event types rendered as instants rather than folded into spans
_INSTANT_TYPES = (
    "submit",
    "cancel_sent",
    "cancel_lost",
    "winner_complete",
    "outage_down",
    "outage_up",
)


def _us(t: float) -> float:
    """Sim-time seconds to trace microseconds."""
    return t * 1_000_000.0


def _process_key(ev: dict) -> tuple:
    return (ev.get("config", 0), ev.get("rep", 0), ev.get("cluster", -1))


def to_chrome_trace(events: Iterable[dict]) -> dict:
    """Convert event records (see :mod:`repro.obs.trace`) to trace JSON."""
    events = list(events)
    trace_events: list[dict] = []
    #: (config, rep, cluster) -> pid, assigned over the *sorted* key set
    #: so row identity is stable under event reordering/filtering
    pids: dict[tuple, int] = {}
    scheme_of: dict[tuple, str] = {}
    for ev in events:
        key = _process_key(ev)
        if key not in scheme_of:
            scheme_of[key] = ev.get("scheme") or ""
    for pid, key in enumerate(sorted(scheme_of), start=1):
        pids[key] = pid
        scheme = scheme_of[key]
        name = (
            f"cfg{key[0]} rep{key[1]} cluster{key[2]}"
            + (f" [{scheme}]" if scheme else "")
        )
        trace_events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": name},
        })
        trace_events.append({
            "name": "process_sort_index",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"sort_index": pid},
        })
    #: (pid, tid) pairs that carried events — named at the end
    threads_seen: set[tuple[int, int]] = set()
    #: (config, rep, request) -> (queue_time, pid, tid, job)
    queued: dict[tuple, tuple] = {}
    #: (config, rep, request) -> (start_time, pid, tid, job)
    running: dict[tuple, tuple] = {}
    t_last = 0.0

    def pid_for(ev: dict) -> int:
        return pids[_process_key(ev)]

    def span(name: str, t0: float, t1: float, pid: int, tid: int,
             args: dict) -> None:
        threads_seen.add((pid, tid))
        trace_events.append({
            "name": name,
            "ph": "X",
            "ts": _us(t0),
            "dur": _us(max(0.0, t1 - t0)),
            "pid": pid,
            "tid": tid,
            "args": args,
        })

    for ev in events:
        etype = ev.get("type", "?")
        t = float(ev.get("t", 0.0))
        t_last = max(t_last, t)
        pid = pid_for(ev)
        job = ev.get("job", -1)
        request = ev.get("request", -1)
        tid = job if job >= 0 else 0
        key = (ev.get("config", 0), ev.get("rep", 0), request)
        args = {"request": request, "job": job}
        if ev.get("scheme"):
            args["scheme"] = ev["scheme"]

        if etype == "queue":
            queued[key] = (t, pid, tid, args)
        elif etype == "start":
            q = queued.pop(key, None)
            if q is not None:
                span(f"queued req {request}", q[0], t, q[1], q[2], q[3])
            running[key] = (t, pid, tid, args)
        elif etype == "cancel_applied":
            q = queued.pop(key, None)
            if q is not None:
                span(
                    f"queued req {request} (cancelled)",
                    q[0], t, q[1], q[2], {**q[3], "cancelled": True},
                )
            threads_seen.add((pid, tid))
            trace_events.append({
                "name": etype, "ph": "i", "ts": _us(t), "pid": pid,
                "tid": tid, "s": "t", "args": args,
            })
        elif etype == "complete":
            r = running.pop(key, None)
            if r is not None:
                span(f"running req {request}", r[0], t, r[1], r[2], r[3])
        elif etype in _INSTANT_TYPES:
            threads_seen.add((pid, tid))
            trace_events.append({
                "name": etype, "ph": "i", "ts": _us(t), "pid": pid,
                "tid": tid, "s": "t", "args": args,
            })
        # Unknown types are ignored: a newer trace may carry event kinds
        # this exporter predates, and a viewer artifact beats a crash.

    # Requests still queued or running when the trace ends: emit the
    # span up to the last observed instant, marked truncated.
    for key, (t0, pid, tid, args) in sorted(queued.items()):
        span(f"queued req {key[2]}", t0, t_last, pid, tid,
             {**args, "truncated": True})
    for key, (t0, pid, tid, args) in sorted(running.items()):
        span(f"running req {key[2]}", t0, t_last, pid, tid,
             {**args, "truncated": True})

    # Name every thread row that carried events (sorted: determinism).
    for pid, tid in sorted(threads_seen):
        trace_events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": f"job {tid}" if tid > 0 else "cluster"},
        })

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs.chrome",
            "trace_schema": TRACE_SCHEMA_VERSION,
        },
    }


#: probe record fields rendered as per-cluster counter tracks
_CLUSTER_COUNTER_FIELDS = ("queue_depth", "busy_nodes", "utilisation")

#: probe record fields rendered as kernel/protocol counter tracks
_KERNEL_COUNTER_FIELDS = (
    "outstanding_duplicates",
    "wasted_node_seconds",
    "pending_events",
    "compactions",
)


def probes_to_counter_trace(records: Iterable[dict]) -> dict:
    """Convert probe records (see :mod:`repro.obs.probes`) to counter tracks.

    Every sample becomes a Chrome counter event (``ph: "C"``): cluster
    rows chart queue depth, busy nodes and utilisation on the cluster's
    process row; kernel rows (``cluster == -1``) chart outstanding
    duplicates, cumulative waste and event-queue occupancy on a
    dedicated row.  Uses the same stable sorted-key ``pid`` assignment
    as :func:`to_chrome_trace`, so rows keep their order when records
    are reordered or filtered.
    """
    records = list(records)
    keys = sorted({_process_key(rec) for rec in records})
    pids = {key: pid for pid, key in enumerate(keys, start=1)}
    trace_events: list[dict] = []
    for key in keys:
        pid = pids[key]
        label = (
            f"cfg{key[0]} rep{key[1]} kernel"
            if key[2] == -1
            else f"cfg{key[0]} rep{key[1]} cluster{key[2]}"
        )
        trace_events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        })
    for rec in records:
        pid = pids[_process_key(rec)]
        fields = (
            _KERNEL_COUNTER_FIELDS
            if rec.get("cluster", -1) == -1
            else _CLUSTER_COUNTER_FIELDS
        )
        ts = _us(float(rec.get("t", 0.0)))
        for field in fields:
            if field not in rec:
                continue
            trace_events.append({
                "name": field,
                "ph": "C",
                "ts": ts,
                "pid": pid,
                "tid": 0,
                "args": {"value": rec[field]},
            })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs.chrome",
            "probe_schema": PROBE_SCHEMA_VERSION,
        },
    }


def write_chrome(payload: dict, path: Union[str, Path], indent: int = 2) -> Path:
    """Write a Chrome trace document to ``path`` as canonical JSON."""
    path = Path(path)
    path.write_text(
        json.dumps(payload, indent=indent, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def export_chrome(
    events: Iterable[dict], path: Union[str, Path], indent: int = 2,
) -> Path:
    """Write the Chrome trace JSON for ``events`` to ``path``."""
    return write_chrome(to_chrome_trace(events), path, indent)
