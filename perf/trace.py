"""Outside-in span tracing for the benchmark's traced run.

``python -m perf run --trace`` reruns each workload with timing
wrappers that this module installs on public functions of every layer;
nothing under ``src/`` changes.  A wrapper records one *span*: a name,
start, duration, parent span name and the request id the benchmark set
on the calling thread (the ``(config, replication)`` of a run, the
``(job, chunk)`` of a lease, the cycle of a churn loop).

Spans stay in memory.  Per name the tracer keeps the count, the total
and *self* time (duration minus the time covered by child spans on the
same thread) and every duration, for percentiles; the span records
themselves are kept for the Chrome trace only while a name has fired
fewer than :data:`CHROME_SPAN_LIMIT` times.  Each thread owns its own
aggregates, so wrapped calls on the service's handler and job threads
never contend on shared counters.

:func:`layer_metrics` turns a span summary plus the counts the program
reports itself into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import array
import functools
import importlib
import threading
from time import perf_counter_ns
from typing import Any, Callable, Optional

import numpy as np

#: spans of a name go to the Chrome trace only below this many calls
CHROME_SPAN_LIMIT = 10_000

#: public methods wrapped by class: (module, class, method, span name)
METHOD_SPANS = (
    ("repro.sim.calendar", "CalendarQueue", "push", "sim.push"),
    ("repro.sim.calendar", "CalendarQueue", "pop", "sim.pop"),
    ("repro.sim.engine", "Simulator", "run", "sim.run"),
    ("repro.sched.base", "Scheduler", "submit", "sched.submit"),
    ("repro.sched.base", "Scheduler", "cancel", "sched.cancel"),
    ("repro.sched.profile", "Profile", "find_start", "profile.find_start"),
    ("repro.sched.profile", "Profile", "can_place", "profile.can_place"),
    ("repro.sched.profile", "Profile", "adjust", "profile.adjust"),
    ("repro.core.coordinator", "Coordinator", "submit_job",
     "coord.submit_job"),
    ("repro.core.coordinator", "Coordinator", "dispatch_cancellations",
     "coord.dispatch_cancellations"),
    ("repro.obs.stream", "OnlineMetrics", "observe_completion",
     "online.observe_completion"),
    ("repro.obs.stream", "OnlineMetrics", "observe_waste",
     "online.observe_waste"),
    ("repro.core.orchestrator", "Orchestrator", "prepare", "orch.prepare"),
    ("repro.core.orchestrator", "Orchestrator", "record", "orch.record"),
    ("repro.core.orchestrator", "Orchestrator", "assemble", "orch.assemble"),
    ("repro.core.cache", "ResultCache", "get", "cache.get"),
    ("repro.core.cache", "ResultCache", "put", "cache.put"),
    ("repro.service.jobs", "JobStore", "create_job", "jobs.create_job"),
    ("repro.service.jobs", "JobStore", "write_status", "jobs.write_status"),
    ("repro.service.jobs", "JobStore", "read_status", "jobs.read_status"),
    ("repro.service.client", "ServiceClient", "_request", "svc.request"),
    ("repro.service.client", "ServiceClient", "lease", "svc.lease"),
    ("repro.service.client", "ServiceClient", "heartbeat", "svc.heartbeat"),
    ("repro.service.client", "ServiceClient", "complete", "svc.complete"),
    ("repro.service.client", "ServiceClient", "submit", "svc.submit"),
    ("repro.service.client", "ServiceClient", "status", "svc.status"),
    ("repro.service.client", "ServiceClient", "cancel", "svc.cancel"),
    ("repro.service.client", "ServiceClient", "results_bytes",
     "svc.results"),
)

#: module attributes wrapped where their callers look them up late:
#: (module, attribute, span name)
FUNCTION_SPANS = (
    ("repro.core.experiment", "generate_platform_streams",
     "workload.generate"),
    ("repro.core.parallel", "run_single", "run.single"),
    ("repro.service.worker", "run_single", "worker.run_single"),
    ("repro.service.client", "encode_chunk_results", "chunk.encode"),
    ("repro.service.server", "decode_chunk_results", "chunk.decode"),
)


class _Agg:
    __slots__ = ("count", "total", "self_ns", "durs", "kept")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.self_ns = 0
        self.durs = array.array("q")
        #: (start_ns, dur_ns, parent name, request id)
        self.kept: list[tuple[int, int, Optional[str], Any]] = []


class _ThreadState:
    __slots__ = ("tid", "rid", "child_ns", "names", "aggs")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.rid: Any = None
        #: per open span: time covered by its finished children
        self.child_ns: list[int] = []
        self.names: list[str] = []
        self.aggs: dict[str, _Agg] = {}


class Tracer:
    """In-memory span recorder with per-thread aggregates."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState(threading.get_ident())
            self._local.state = st
            with self._lock:
                self._states.append(st)
            return st

    def set_request(self, rid: Any) -> None:
        """Tag the calling thread's following spans with ``rid``."""
        self._state().rid = rid

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one ``name`` span per call."""
        state = self._state

        def traced(*args: Any, **kwargs: Any) -> Any:
            st = state()
            child_ns = st.child_ns
            names = st.names
            child_ns.append(0)
            names.append(name)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                children = child_ns.pop()
                names.pop()
                if child_ns:
                    child_ns[-1] += dur
                agg = st.aggs.get(name)
                if agg is None:
                    agg = st.aggs[name] = _Agg()
                agg.count += 1
                agg.total += dur
                agg.self_ns += dur - children
                agg.durs.append(dur)
                if agg.count <= CHROME_SPAN_LIMIT:
                    agg.kept.append(
                        (t0, dur, names[-1] if names else None, st.rid)
                    )

        return traced

    def count(self, name: str) -> None:
        """Count one ``name`` event (a counter has no durations)."""
        st = self._state()
        agg = st.aggs.get(name)
        if agg is None:
            agg = st.aggs[name] = _Agg()
        agg.count += 1

    def reset(self) -> None:
        """Forget every finished span (open spans keep their stacks)."""
        with self._lock:
            states = list(self._states)
        for st in states:
            st.aggs = {}

    # -- patching --------------------------------------------------------

    def patch(self, owner: Any, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr,
                functools.wraps(original)(self.wrap(name, original)))

    def install(self) -> None:
        """Wrap every layer boundary listed in this module."""
        for module, cls, method, name in METHOD_SPANS:
            self.patch(getattr(importlib.import_module(module), cls),
                       method, name)
        for module, attr, name in FUNCTION_SPANS:
            self.patch(importlib.import_module(module), attr, name)
        from repro.core.cache import ResultCache
        from repro.service.client import ServiceClient

        self._count_outcome(ResultCache, "get", "cache.hit",
                            lambda result: result is not None)
        self._count_outcome(ServiceClient, "lease", "svc.lease_empty",
                            lambda granted: granted is None)
        self._install_callbacks()
        self._install_routes()

    def _count_outcome(self, owner: Any, attr: str, counter: str,
                       predicate: Callable[[Any], bool]) -> None:
        """Count the calls of ``owner.attr`` whose result passes ``predicate``."""
        inner = getattr(owner, attr)

        def counted(*args: Any, **kwargs: Any) -> Any:
            out = inner(*args, **kwargs)
            if predicate(out):
                self.count(counter)
            return out

        self._patches.append((owner, attr, inner))
        setattr(owner, attr, functools.wraps(inner)(counted))

    def _install_callbacks(self) -> None:
        """Span every scheduled callback, named by its event priority."""
        from repro.sim.engine import Simulator
        from repro.sim.events import EventPriority

        names = {int(p): f"cb.{p.name}" for p in EventPriority}
        original = Simulator.at
        wrap = self.wrap

        def at(sim: Any, time: float, callback: Callable[[], None],
               priority: int = EventPriority.CONTROL, tag: Any = None) -> Any:
            return original(sim, time, wrap(names[int(priority)], callback),
                            priority, tag)

        self._patches.append((Simulator, "at", original))
        Simulator.at = functools.wraps(original)(at)  # type: ignore[method-assign]

    def _install_routes(self) -> None:
        """Span ``SweepService.handle`` once per route."""
        from repro.service.server import SweepService

        original = SweepService.handle
        per_route: dict[str, Callable[..., Any]] = {}

        def handle(service: Any, request: Any) -> Any:
            route = route_name(request.method, request.path)
            fn = per_route.get(route)
            if fn is None:
                fn = per_route[route] = self.wrap(
                    f"svc.handle.{route}", original
                )
            return fn(service, request)

        self._patches.append((SweepService, "handle", original))
        SweepService.handle = functools.wraps(original)(handle)  # type: ignore[method-assign]

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------

    def wrapper_cost_ns(self, calls: int = 100_000) -> float:
        """Measured cost of one empty wrapped call (best of 3)."""

        def noop() -> None:
            pass

        wrapped = self.wrap("trace.noop", noop)
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter_ns()
            for _ in range(calls):
                noop()
            bare = perf_counter_ns() - t0
            t0 = perf_counter_ns()
            for _ in range(calls):
                wrapped()
            best = min(best, (perf_counter_ns() - t0 - bare) / calls)
        self._state().aggs.pop("trace.noop", None)
        return best

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total, self and p50/p90/p99, in ns."""
        with self._lock:
            states = list(self._states)
        parts: dict[str, list[_Agg]] = {}
        for st in states:
            for name, agg in list(st.aggs.items()):
                parts.setdefault(name, []).append(agg)
        out: dict[str, dict[str, float]] = {}
        for name, aggs in sorted(parts.items()):
            # tobytes() copies under the GIL: other threads may still be
            # appending while the server takes its snapshot
            durs = np.concatenate([
                np.frombuffer(a.durs.tobytes(), dtype=np.int64) for a in aggs
            ])
            p50, p90, p99 = (
                np.percentile(durs, (50, 90, 99)) if len(durs) else (0, 0, 0)
            )
            out[name] = {
                "count": sum(a.count for a in aggs),
                "total_ns": sum(a.total for a in aggs),
                "self_ns": sum(a.self_ns for a in aggs),
                "p50_ns": float(p50),
                "p90_ns": float(p90),
                "p99_ns": float(p99),
            }
        return out

    def chrome_events(self, pid: int) -> list[dict]:
        """Chrome ``trace_event`` records of the rarely firing spans."""
        with self._lock:
            states = list(self._states)
        counts: dict[str, int] = {}
        for st in states:
            for name, agg in list(st.aggs.items()):
                counts[name] = counts.get(name, 0) + agg.count
        events = []
        for st in states:
            for name, agg in list(st.aggs.items()):
                if counts.get(name, 0) >= CHROME_SPAN_LIMIT:
                    continue
                for t0, dur, parent, rid in list(agg.kept):
                    events.append({
                        "name": name, "ph": "X", "pid": pid, "tid": st.tid,
                        "ts": t0 / 1e3, "dur": dur / 1e3,
                        "args": {"parent": parent, "rid": rid},
                    })
        return events


def route_name(method: str, path: str) -> str:
    """The service route a request hits, e.g. ``status`` or ``lease``."""
    parts = path.strip("/").split("/")
    if parts[:2] == ["v1", "queue"] and len(parts) == 3:
        return parts[2]
    if parts[:2] == ["v1", "jobs"]:
        if len(parts) == 2:
            return "submit" if method == "POST" else "list"
        if len(parts) == 3:
            return "status"
        return parts[-1]
    return parts[0] or "root"


def merge_summaries(client: dict, server: dict) -> dict:
    """One summary from the client's and the server's.

    Every layer runs in one of the two processes only (the server owns
    the job store, orchestrator and cache; the client the simulations
    and the service client), so their span names never collide.
    """
    shared = sorted(set(client) & set(server))
    if shared:
        raise ValueError(f"spans recorded by client and server: {shared}")
    return {**client, **server}


#: per-layer metrics: name -> unit, in BENCHMARK.json order
LAYER_UNITS = {
    "op.p90_ms": "ms",
    "op.p99_ms": "ms",
    "sim.events": "count",
    "sim.push_calls": "count",
    "sim.push_ns": "ns",
    "sim.push_p50_ns": "ns",
    "sim.push_p99_ns": "ns",
    "sim.pop_calls": "count",
    "sim.pop_ns": "ns",
    "sim.pop_p50_ns": "ns",
    "sim.pop_p99_ns": "ns",
    "sim.loop_self_s": "s",
    "sched.submit_calls": "count",
    "sched.submit_ns": "ns",
    "sched.cancel_calls": "count",
    "sched.cancel_ns": "ns",
    "sched.passes": "count",
    "sched.pass_us": "us",
    "sched.pass_self_us": "us",
    "sched.pass_p50_us": "us",
    "sched.pass_p99_us": "us",
    "sched.pass_yield": "starts/pass",
    "sched.finish_us": "us",
    "profile.find_start_calls": "count",
    "profile.find_start_us": "us",
    "profile.can_place_calls": "count",
    "profile.can_place_us": "us",
    "profile.can_place_p50_us": "us",
    "profile.can_place_p99_us": "us",
    "profile.adjust_calls": "count",
    "profile.adjust_us": "us",
    "coord.submit_job_calls": "count",
    "coord.submit_job_us": "us",
    "coord.submit_job_self_us": "us",
    "coord.submit_job_p50_us": "us",
    "coord.submit_job_p99_us": "us",
    "coord.copies_per_job": "copies/job",
    "coord.cancel_fanout_us": "us",
    "coord.cancels_per_job": "cancels/job",
    "online.observe_calls": "count",
    "online.observe_ns": "ns",
    "online.share": "ratio",
    "workload.generate_calls": "count",
    "workload.generate_ms": "ms",
    "run.calls": "count",
    "run.p50_ms": "ms",
    "run.p90_ms": "ms",
    "run.generate_s": "s",
    "run.simulate_s": "s",
    "run.aggregate_s": "s",
    "orch.prepare_ms": "ms",
    "orch.record_us": "us",
    "orch.assemble_ms": "ms",
    "orch.overhead_per_task_us": "us",
    "cache.get_calls": "count",
    "cache.get_us": "us",
    "cache.put_calls": "count",
    "cache.put_us": "us",
    "cache.hit_ratio": "ratio",
    "cache.entry_kb": "KB",
    **{
        f"svc.{op}_{q}_ms": "ms"
        for op in ("lease", "heartbeat", "complete", "submit", "status",
                   "cancel")
        for q in ("p50", "p99")
    },
    "svc.lease_empty_ratio": "ratio",
    "svc.status_polls_per_cycle": "polls/cycle",
    **{
        f"svc.handle_us.{route}": "us"
        for route in ("submit", "status", "cancel", "results", "lease",
                      "heartbeat", "complete")
    },
    "svc.transport_us": "us",
    "svc.warm_job_ms": "ms",
    "jobs.create_job_ms": "ms",
    "jobs.write_status_ms": "ms",
    "jobs.read_status_ms": "ms",
    "chunk.encode_us": "us",
    "chunk.decode_us": "us",
    "worker.compute_ms": "ms",
    "trace.overhead": "ratio",
    "trace.wrapper_ns": "ns",
    "trace.self_sum_ratio": "ratio",
}

_EMPTY = {"count": 0, "total_ns": 0, "self_ns": 0,
          "p50_ns": 0.0, "p90_ns": 0.0, "p99_ns": 0.0}

#: a percentile is reported only with this many samples beyond it: p50
#: needs 20 calls, p90 100 and p99 1000
MIN_BEYOND = 10


def enough_beyond(count: int, q: int) -> bool:
    """Whether ``count`` samples leave MIN_BEYOND beyond the q-th percentile."""
    return count * (100 - q) >= 100 * MIN_BEYOND


def layer_metrics(summary: dict, counts: dict) -> dict[str, float]:
    """Per-layer metric values from a span summary and program counts.

    ``counts`` carries what the untraced run measured (the op latency
    tail ``op_p90_ms``/``op_p99_ms``, ``warm_job_ms``, the churn
    ``cycles`` and their ``status_polls``) or the program
    reported itself (``events``, ``started``, ``jobs``, ``requests``,
    ``cancellations``, the ``*_s`` phase sums), plus what the benchmark
    measured around the traced run (``tasks``, ``task_wall_s``,
    ``cache_entry_kb``, ``overhead``, ``wrapper_ns``,
    ``self_sum_ratio``).
    """

    def s(name: str) -> dict:
        return summary.get(name, _EMPTY)

    def calls(*names: str) -> int:
        return sum(s(n)["count"] for n in names)

    def total(*names: str) -> float:
        return sum(s(n)["total_ns"] for n in names)

    def mean(scale: float, *names: str) -> float:
        n = calls(*names)
        return total(*names) / n / scale if n else 0.0

    def pct(name: str, q: str, scale: float) -> float:
        if not enough_beyond(s(name)["count"], int(q[1:])):
            return 0.0
        return s(name)[f"{q}_ns"] / scale

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    us, ms = 1e3, 1e6
    runs = ("run.single", "worker.run_single")
    run_durs = [s(n) for n in runs if s(n)["count"]]
    # run.single and worker.run_single never both fire in one workload
    run_span = run_durs[0] if run_durs else _EMPTY
    tasks = counts.get("tasks", 0)
    observe = ("online.observe_completion", "online.observe_waste")
    client_rtt = ("svc.request",)
    handles = [n for n in summary if n.startswith("svc.handle.")]
    out = {
        "op.p90_ms": counts.get("op_p90_ms", 0.0),
        "op.p99_ms": counts.get("op_p99_ms", 0.0),
        "sim.events": counts.get("events", 0),
        "sim.push_calls": calls("sim.push"),
        "sim.push_ns": mean(1, "sim.push"),
        "sim.push_p50_ns": pct("sim.push", "p50", 1),
        "sim.push_p99_ns": pct("sim.push", "p99", 1),
        "sim.pop_calls": calls("sim.pop"),
        "sim.pop_ns": mean(1, "sim.pop"),
        "sim.pop_p50_ns": pct("sim.pop", "p50", 1),
        "sim.pop_p99_ns": pct("sim.pop", "p99", 1),
        "sim.loop_self_s": s("sim.run")["self_ns"] / 1e9,
        "sched.submit_calls": calls("sched.submit"),
        "sched.submit_ns": mean(1, "sched.submit"),
        "sched.cancel_calls": calls("sched.cancel"),
        "sched.cancel_ns": mean(1, "sched.cancel"),
        "sched.passes": calls("cb.SCHEDULE"),
        "sched.pass_us": mean(us, "cb.SCHEDULE"),
        "sched.pass_self_us": ratio(s("cb.SCHEDULE")["self_ns"] / us,
                                    calls("cb.SCHEDULE")),
        "sched.pass_p50_us": pct("cb.SCHEDULE", "p50", us),
        "sched.pass_p99_us": pct("cb.SCHEDULE", "p99", us),
        "sched.pass_yield": ratio(counts.get("started", 0),
                                  calls("cb.SCHEDULE")),
        "sched.finish_us": mean(us, "cb.FINISH"),
        "profile.find_start_calls": calls("profile.find_start"),
        "profile.find_start_us": mean(us, "profile.find_start"),
        "profile.can_place_calls": calls("profile.can_place"),
        "profile.can_place_us": mean(us, "profile.can_place"),
        "profile.can_place_p50_us": pct("profile.can_place", "p50", us),
        "profile.can_place_p99_us": pct("profile.can_place", "p99", us),
        "profile.adjust_calls": calls("profile.adjust"),
        "profile.adjust_us": mean(us, "profile.adjust"),
        "coord.submit_job_calls": calls("coord.submit_job"),
        "coord.submit_job_us": mean(us, "coord.submit_job"),
        "coord.submit_job_self_us": ratio(
            s("coord.submit_job")["self_ns"] / us, calls("coord.submit_job")
        ),
        "coord.submit_job_p50_us": pct("coord.submit_job", "p50", us),
        "coord.submit_job_p99_us": pct("coord.submit_job", "p99", us),
        "coord.copies_per_job": ratio(counts.get("requests", 0),
                                      counts.get("jobs", 0)),
        "coord.cancel_fanout_us": mean(us, "coord.dispatch_cancellations"),
        "coord.cancels_per_job": ratio(counts.get("cancellations", 0),
                                       counts.get("jobs", 0)),
        "online.observe_calls": calls(*observe),
        "online.observe_ns": mean(1, *observe),
        "online.share": ratio(total(*observe), total("sim.run")),
        "workload.generate_calls": calls("workload.generate"),
        "workload.generate_ms": mean(ms, "workload.generate"),
        "run.calls": run_span["count"],
        "run.p50_ms": run_span["p50_ns"] / ms,
        "run.p90_ms": run_span["p90_ns"] / ms,
        "run.generate_s": counts.get("generate_s", 0.0),
        "run.simulate_s": counts.get("simulate_s", 0.0),
        "run.aggregate_s": counts.get("aggregate_s", 0.0),
        "orch.prepare_ms": mean(ms, "orch.prepare"),
        "orch.record_us": mean(us, "orch.record"),
        "orch.assemble_ms": mean(ms, "orch.assemble"),
        "orch.overhead_per_task_us": ratio(
            counts.get("task_wall_s", 0.0) * 1e6 - total(*runs) / us, tasks
        ),
        "cache.get_calls": calls("cache.get"),
        "cache.get_us": mean(us, "cache.get"),
        "cache.put_calls": calls("cache.put"),
        "cache.put_us": mean(us, "cache.put"),
        "cache.hit_ratio": ratio(calls("cache.hit"), calls("cache.get")),
        "cache.entry_kb": counts.get("cache_entry_kb", 0.0),
        **{
            f"svc.{op}_{q}_ms": pct(f"svc.{op}", q, ms)
            for op in ("lease", "heartbeat", "complete", "submit", "status",
                       "cancel")
            for q in ("p50", "p99")
        },
        "svc.lease_empty_ratio": ratio(calls("svc.lease_empty"),
                                       calls("svc.lease")),
        "svc.status_polls_per_cycle": ratio(counts.get("status_polls", 0),
                                            counts.get("cycles", 0)),
        **{
            f"svc.handle_us.{route}": mean(us, f"svc.handle.{route}")
            for route in ("submit", "status", "cancel", "results", "lease",
                          "heartbeat", "complete")
        },
        "svc.transport_us": ratio(
            (total(*client_rtt) - total(*handles)) / us, calls(*client_rtt)
        ),
        "svc.warm_job_ms": counts.get("warm_job_ms", 0.0),
        "jobs.create_job_ms": mean(ms, "jobs.create_job"),
        "jobs.write_status_ms": mean(ms, "jobs.write_status"),
        "jobs.read_status_ms": mean(ms, "jobs.read_status"),
        "chunk.encode_us": mean(us, "chunk.encode"),
        "chunk.decode_us": mean(us, "chunk.decode"),
        "worker.compute_ms": mean(ms, "worker.run_single"),
        "trace.overhead": counts.get("overhead", 0.0),
        "trace.wrapper_ns": counts.get("wrapper_ns", 0.0),
        "trace.self_sum_ratio": counts.get("self_sum_ratio", 0.0),
    }
    return out


def self_sum_ratio(summary: dict, busy_s: float) -> float:
    """Sum of all spans' self time over the units' busy time.

    The busy time is the program's part of the traced loop: on a sweep
    the ``run_grid`` calls, without the digesting the benchmark does
    between them.  On a single-threaded workload the ratio is the share
    of that time the wrapped functions cover, so it falls below 1 by
    whatever runs outside every span; other threads push it above 1.
    """
    return sum(v["self_ns"] for v in summary.values()) / 1e9 / busy_s
