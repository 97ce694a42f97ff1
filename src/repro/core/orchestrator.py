"""Sweep orchestrator: owns the task grid; executors own the running.

The engine in :mod:`repro.core.parallel` used to be one function that
both *planned* a sweep (dedup, cache resolution, chunking, reassembly)
and *executed* it (serial loop or process pool).  This module extracts
the planning half into an :class:`Orchestrator` so execution becomes a
pluggable strategy (:mod:`repro.core.executors`): the same orchestrator
state drives the in-process path, the process pool, and the HTTP
work-queue behind ``repro serve`` — and, because every completed task
is recorded through one :meth:`Orchestrator.record` path, progress,
caching, journaling and deterministic reassembly behave identically no
matter who did the computing.

Responsibilities, in execution order:

1. **dedup** — duplicate configs collapse to one unique-config table
   (configs are frozen dataclasses; equality is exact);
2. **cache resolution** — every ``(config, replication)`` is looked up
   before any work is scheduled; hits are recorded immediately;
3. **chunk planning** — remaining tasks, replication-major, are
   grouped into contiguous chunks (amortising per-task dispatch cost)
   that executors lease or submit as units;
4. **recording** — executors hand results back; the orchestrator
   stores them into the cache, feeds the heartbeat, appends to the run
   journal, and emits progress lines;
5. **reassembly** — results are reassembled by ``(config_index,
   replication)`` key, so output order never depends on executor
   scheduling.

``run_single`` being a pure function of ``(config, replication)`` is
the invariant that makes 2, 4 and 5 sound; a sweep interrupted at any
point can therefore be *resumed* by building a fresh orchestrator over
the same configs with the same (disk) cache — completed work resolves
in step 2 and only incomplete chunks reach an executor again.
"""

from __future__ import annotations

# repro-lint: disable-file=DET001 -- perf_counter here only feeds the
# cache_resolve_s/cache_store_s engine metrics and the display-only
# heartbeat ETA; task results are keyed and reassembled by
# (config, replication), never by host time

import logging
import math
import threading
import time
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:  # typing-only: obs imports core at runtime
    from ..obs.manifest import RunJournal
    from ..obs.metrics import MetricsRegistry
    from .executors import Executor

from .cache import ResultCache, config_fingerprint
from .config import ExperimentConfig
from .results import ExperimentResult

_log = logging.getLogger("repro.core.orchestrator")

#: one grid task: (index into the unique-config table, replication)
Task = tuple[int, int]

ProgressFn = Callable[[str], None]
RunnerFn = Callable[[ExperimentConfig, int], ExperimentResult]


class TaskError(RuntimeError):
    """A grid task failed, identified by its ``(config, replication)``.

    All constructor arguments flow through ``RuntimeError.__init__`` so
    the exception survives the pickle round-trip from worker processes.
    """

    def __init__(self, description: str, replication: int, cause: str) -> None:
        super().__init__(description, replication, cause)
        self.description = description
        self.replication = replication
        self.cause = cause

    def __str__(self) -> str:
        return (
            f"task ({self.description}, rep {self.replication}) "
            f"failed: {self.cause}"
        )


class SweepCancelled(RuntimeError):
    """The sweep was cancelled before completion (service cancel path)."""


class GridStats:
    """Failure/retry accounting for grid runs (surfaces in bench JSON)."""

    def __init__(self) -> None:
        #: failure counts keyed by ``"<config.describe()> rep <r>"``
        self.failures: dict[str, int] = {}
        self.retries = 0

    def record_failure(self, key: str) -> None:
        self.failures[key] = self.failures.get(key, 0) + 1

    @property
    def total_failures(self) -> int:
        return sum(self.failures.values())

    def as_dict(self) -> dict:
        return {
            "task_failures": dict(self.failures),
            "task_retries": self.retries,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GridStats({self.as_dict()})"


def fmt_eta(seconds: float) -> str:
    """Compact ETA rendering: ``42s``, ``3m10s``, ``2h05m``."""
    seconds = max(0.0, seconds)
    if seconds < 60.0:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def default_chunksize(n_tasks: int, n_workers: int) -> int:
    """Chunk so each worker sees a few chunks (load balance vs IPC cost)."""
    if n_tasks <= 0:
        return 1
    return max(1, math.ceil(n_tasks / (max(1, n_workers) * 4)))


class Heartbeat:
    """Live telemetry folded into progress lines and service status.

    Tracks wall-clock throughput (for the ETA), the evolving cache
    hit-rate, and a count-weighted running estimate of the online
    p50/p99 stretch read from each result's streaming-estimator payload
    (see :mod:`repro.obs.stream`).  Arrival order varies with executor
    scheduling, so the heartbeat is display-only — the authoritative
    merged statistics are computed from the deterministically ordered
    results after reassembly.

    ``pending`` is the number of tasks that will actually be *computed*
    (everything the cache could not serve).  The ETA multiplies the
    observed per-computation rate by the computed work still
    outstanding — never by *all* remaining tasks: on a warm-cache or
    resumed run most remaining tasks are satisfied instantly, and
    scaling the simulation rate across them overestimated the ETA by
    the inverse cache-hit-rate.
    """

    def __init__(
        self, total: int, cache_hits: int = 0, pending: Optional[int] = None
    ) -> None:
        self.total = total
        self.cache_hits = cache_hits
        self.pending = (total - cache_hits) if pending is None else pending
        self.computed = 0
        self._t0 = time.perf_counter()
        self._weight = 0.0
        self._p50_sum = 0.0
        self._p99_sum = 0.0

    @property
    def done(self) -> int:
        return self.cache_hits + self.computed

    def observe(self, result: object, computed: bool) -> None:
        """Fold one finished task in (``computed=False`` = cache hit).

        Tolerates every shape the NaN-free online-payload contract
        allows (undefined serialises as ``None``, at any level): a
        stretch bank with a positive count but ``None`` quantiles — or
        a ``None`` metrics/quantiles mapping altogether — skips the
        sample instead of raising mid-progress-line.
        """
        if computed:
            self.computed += 1
        else:
            self.cache_hits += 1
        # Custom runners return wrapper payloads (TracedRun/ProbedRun
        # hold the ExperimentResult one level down); anything without
        # online metrics simply doesn't feed the stretch estimate.
        payload = getattr(result, "online_metrics", None)
        if payload is None:
            inner = getattr(result, "result", None)
            payload = getattr(inner, "online_metrics", None)
        if not isinstance(payload, dict):
            return
        metrics = payload.get("metrics")
        if not isinstance(metrics, dict):
            return
        stretch = metrics.get("stretch")
        if not isinstance(stretch, dict) or not stretch.get("count"):
            return
        n = stretch["count"]
        quantiles = stretch.get("quantiles")
        if not isinstance(quantiles, dict):
            return
        p50, p99 = quantiles.get("p50"), quantiles.get("p99")
        if p50 is None or p99 is None or p50 != p50 or p99 != p99:
            return
        self._weight += n
        self._p50_sum += n * p50
        self._p99_sum += n * p99

    def eta_seconds(self) -> Optional[float]:
        """Projected seconds until the grid completes, if estimable.

        Based on computed work only: ``rate`` is wall-clock per
        *simulated* task, and it multiplies the simulations still
        outstanding (``pending - computed``), not every remaining task.
        """
        remaining = self.pending - self.computed
        if self.computed <= 0 or remaining <= 0:
            return None
        rate = (time.perf_counter() - self._t0) / self.computed
        return rate * remaining

    def suffix(self) -> str:
        done = self.done
        fields: list[str] = []
        eta = self.eta_seconds()
        if eta is not None and done < self.total:
            fields.append(f"eta {fmt_eta(eta)}")
        if self.cache_hits > 0 and done > 0:
            fields.append(f"cache {100.0 * self.cache_hits / done:.0f}%")
        if self._weight > 0.0:
            fields.append(
                f"stretch p50 {self._p50_sum / self._weight:.3g} "
                f"p99 {self._p99_sum / self._weight:.3g}"
            )
        return " | " + " | ".join(fields) if fields else ""

    def snapshot(self) -> dict:
        """JSON-able status view (the service's job-status payload)."""
        done = self.done
        return {
            "total": self.total,
            "done": done,
            "computed": self.computed,
            "cache_hits": self.cache_hits,
            "pending_computed": max(0, self.pending - self.computed),
            "cache_hit_rate": (self.cache_hits / done) if done else None,
            "eta_s": self.eta_seconds(),
            "stretch_p50": (
                self._p50_sum / self._weight if self._weight > 0 else None
            ),
            "stretch_p99": (
                self._p99_sum / self._weight if self._weight > 0 else None
            ),
        }


class Orchestrator:
    """One sweep grid: plan it, hand chunks to an executor, reassemble.

    The orchestrator is executor-agnostic and thread-safe on its
    recording surface: :meth:`record`/:meth:`complete_chunk` may be
    called from executor threads while :meth:`status` is read from a
    service thread.  Executors read :attr:`unique`, :attr:`runner` and
    :attr:`stats`, pull work via :meth:`pending_chunks`, and report
    through :meth:`complete_chunk` (or :meth:`record` per task).
    """

    def __init__(
        self,
        configs: Sequence[ExperimentConfig],
        n_replications: int,
        first_replication: int = 0,
        cache: Optional[ResultCache] = None,
        chunksize: Optional[int] = None,
        n_workers: int = 1,
        progress: Optional[ProgressFn] = None,
        runner: Optional[RunnerFn] = None,
        stats: Optional[GridStats] = None,
        metrics: Optional[MetricsRegistry] = None,
        journal: Optional[RunJournal] = None,
    ) -> None:
        if n_replications < 1:
            raise ValueError(f"need >= 1 replication, got {n_replications}")
        self.n_replications = n_replications
        self.first_replication = first_replication
        self.cache = cache
        self.chunksize = chunksize
        self.n_workers = max(1, int(n_workers))
        self.progress = progress
        self.runner = runner
        self.stats = stats
        self.metrics = metrics
        self.journal = journal
        #: cooperative cancellation flag; executors check it between
        #: tasks/chunks and raise :class:`SweepCancelled`
        self.abort = threading.Event()

        # Deduplicate the grid (frozen dataclasses hash by content).
        self.unique: list[ExperimentConfig] = []
        self._slots: list[int] = []
        index_of: dict[ExperimentConfig, int] = {}
        for cfg in configs:
            ui = index_of.get(cfg)
            if ui is None:
                ui = index_of[cfg] = len(self.unique)
                self.unique.append(cfg)
            self._slots.append(ui)

        self.reps = range(
            first_replication, first_replication + n_replications
        )
        self._grid: list[dict[int, ExperimentResult]] = [
            {} for _ in self.unique
        ]
        self.fingerprints: list[str] = []
        self._chunks: dict[int, list[Task]] = {}
        self._open_chunks: dict[int, set[Task]] = {}
        #: chunks partition the pending tasks: each one's chunk id
        self._chunk_of: dict[Task, int] = {}
        self._lock = threading.Lock()
        self.heartbeat = Heartbeat(0)
        self._prepared = False

    # -- planning --------------------------------------------------------

    @property
    def total(self) -> int:
        """Grid size after dedup: unique configs x replications."""
        return len(self.unique) * self.n_replications

    @property
    def done(self) -> int:
        with self._lock:
            return sum(len(per) for per in self._grid)

    @property
    def n_pending(self) -> int:
        return self.total - self.done

    def prepare(self) -> "Orchestrator":
        """Resolve the cache, seed the heartbeat, plan the chunks.

        Idempotent; every execution path calls it before pulling work.
        Cache resolution and chunk planning run on locals; the shared
        grid/heartbeat/chunk state is installed under the lock in one
        step at the end, so concurrent readers (``status()``, the
        ``done`` property) never observe a half-prepared orchestrator.
        """
        with self._lock:
            if self._prepared:
                return self
            self._prepared = True
        t_resolve = time.perf_counter()
        fingerprints = [config_fingerprint(cfg) for cfg in self.unique]
        tasks: list[Task] = []
        hits: list[tuple[Task, ExperimentResult]] = []
        # Replication-major: every config of one replication shares its
        # workload streams (common random numbers), so running them back
        # to back lets the per-replication stream cache stay tiny.
        for rep in self.reps:
            for ui, fp in enumerate(fingerprints):
                hit = (
                    self.cache.get(self.unique[ui], rep, fingerprint=fp)
                    if self.cache is not None else None
                )
                if hit is not None:
                    hits.append(((ui, rep), hit))
                else:
                    tasks.append((ui, rep))

        done = self.total - len(tasks)
        heartbeat = Heartbeat(self.total, pending=len(tasks))
        for _, hit in hits:
            # Seed the live stretch estimate with what the cache
            # already knows, so the first heartbeat line reflects the
            # whole sweep (each observe also counts the cache hit).
            heartbeat.observe(hit, computed=False)
        if self.metrics is not None:
            self.metrics.add_time(
                "cache_resolve_s", time.perf_counter() - t_resolve
            )
            if self.cache is not None:
                self.metrics.inc("cache_hits", done)
                self.metrics.inc("cache_misses", len(tasks))
            self.metrics.inc("tasks_executed", len(tasks))
        _log.debug(
            "grid: %d config(s) x %d rep(s) = %d task(s), %d from cache",
            len(self.unique), self.n_replications, self.total, done,
        )
        if self.progress is not None and done > 0:
            # Without this line a fully warm rerun would print nothing
            # at all — per-task notes only cover freshly simulated work.
            self.progress(
                f"[{done}/{self.total}] {done} task(s) resolved from cache"
            )

        # Plan contiguous chunks over what is left.
        size = self.chunksize
        if size is None:
            size = default_chunksize(
                len(tasks), min(self.n_workers, max(1, len(tasks)))
            )
        chunks = {
            cid: tasks[k:k + size]
            for cid, k in enumerate(range(0, len(tasks), size))
        }
        with self._lock:
            for (ui, rep), hit in hits:
                self._grid[ui][rep] = hit
            self.fingerprints = fingerprints
            self.heartbeat = heartbeat
            self._chunks = chunks
            self._open_chunks = {
                cid: set(chunk) for cid, chunk in chunks.items()
            }
            self._chunk_of = {
                task: cid for cid, chunk in chunks.items() for task in chunk
            }
        if self.journal is not None:
            self.journal.append({
                "event": "prepared",
                "total": self.total,
                "from_cache": done,
                "pending": len(tasks),
                "chunks": len(chunks),
                "chunksize": size,
            })
        return self

    def pending_chunks(self) -> dict[int, list[Task]]:
        """Incomplete chunks, keyed by chunk id (a fresh copy)."""
        self.prepare()
        with self._lock:
            return {
                cid: list(self._chunks[cid])
                for cid in sorted(self._open_chunks)
            }

    # -- recording -------------------------------------------------------

    def record(
        self, ci: int, rep: int, result: ExperimentResult,
        computed: bool = True,
    ) -> None:
        """Accept one task result: grid, cache, heartbeat, progress.

        Idempotent: a duplicate completion (a lease that expired and
        was recomputed elsewhere — ``run_single`` is pure, so both
        copies are identical) is dropped without recounting.
        """
        with self._lock:
            if rep in self._grid[ci]:
                return
            self._grid[ci][rep] = result
            self.heartbeat.observe(result, computed=computed)
            finished: Optional[tuple[int, list[Task]]] = None
            # -1 is no chunk id: a task no chunk holds finishes nothing
            cid = self._chunk_of.get((ci, rep), -1)
            tasks = self._open_chunks.get(cid)
            if tasks is not None:
                tasks.discard((ci, rep))
                if not tasks:
                    del self._open_chunks[cid]
                    finished = (cid, list(self._chunks[cid]))
            done = self.heartbeat.done
            suffix = self.heartbeat.suffix()
            fingerprint = self.fingerprints[ci]
        # cache store, progress and journal I/O stay outside the lock:
        # only the snapshot above needs mutual exclusion
        if computed and self.cache is not None:
            t_store = time.perf_counter()
            self.cache.put(
                self.unique[ci], rep, result, fingerprint=fingerprint,
            )
            if self.metrics is not None:
                self.metrics.add_time(
                    "cache_store_s", time.perf_counter() - t_store
                )
        if self.progress is not None:
            self.progress(
                f"[{done}/{self.total}] {self.unique[ci].describe()} "
                f"rep {rep}{suffix}"
            )
        if self.journal is not None and finished is not None:
            cid, chunk_tasks = finished
            self.journal.append({
                "event": "chunk_done",
                "chunk": cid,
                "tasks": [[a, b] for a, b in chunk_tasks],
                "done": done,
                "total": self.total,
            })

    def complete_chunk(
        self, cid: int, results: Sequence[tuple[int, int, ExperimentResult]],
    ) -> None:
        """Accept a whole chunk's results (journaled as they empty)."""
        for ci, rep, result in results:
            self.record(ci, rep, result)

    # -- execution & assembly --------------------------------------------

    def execute(self, executor: "Executor") -> list[list[ExperimentResult]]:
        """Run every pending chunk on ``executor``; return the grid."""
        if self.begin(executor.name):
            executor.execute(self)
        return self.assemble()

    def begin(self, executor: str) -> bool:
        """Prepare; if any chunk is pending, journal who will run it.

        Returns whether there is work to hand out: a grid the cache
        fully resolved goes straight to :meth:`assemble`.
        """
        self.prepare()
        with self._lock:
            has_pending = bool(self._open_chunks)
        if has_pending and self.journal is not None:
            self.journal.append({"event": "execute", "executor": executor})
        return has_pending

    def assemble(self) -> list[list[ExperimentResult]]:
        """Deterministic reassembly in (config, replication) order.

        The returned list is parallel to the constructor's ``configs``;
        duplicate configs receive equal-by-value, independent lists.
        """
        with self._lock:
            missing = [
                (ui, rep)
                for ui in range(len(self.unique))
                for rep in self.reps
                if rep not in self._grid[ui]
            ]
            if missing:
                ui, rep = missing[0]
                raise TaskError(
                    self.unique[ui].describe(), rep,
                    f"result never recorded ({len(missing)} task(s) "
                    f"missing at assembly)",
                )
            per_unique = [
                [self._grid[ui][rep] for rep in self.reps]
                for ui in range(len(self.unique))
            ]
        return [list(per_unique[ui]) for ui in self._slots]

    # -- introspection ---------------------------------------------------

    def status(self) -> dict:
        """JSON-able progress snapshot (drives ``repro serve`` status)."""
        with self._lock:
            snap = self.heartbeat.snapshot()
            snap["chunks_total"] = len(self._chunks)
            snap["chunks_open"] = len(self._open_chunks)
            snap["cancelled"] = self.abort.is_set()
        return snap

    def cancel(self) -> None:
        """Request cooperative cancellation (executors check the flag)."""
        self.abort.set()

    def check_cancelled(self) -> None:
        """Raise :class:`SweepCancelled` if cancellation was requested."""
        if self.abort.is_set():
            raise SweepCancelled("sweep cancelled")
