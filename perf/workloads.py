"""The benchmark's four workloads, each a closed loop of *units*.

A unit is one step of the loop: a sweep row (one replication of every
config), one served cold+warm job pair, or one submit/status/cancel
churn cycle.  :func:`perf.child.run_workload` repeats units until the
run's time is up, so a faster program runs more units in the same
time.  Unit ``i`` depends only on the seed and ``i``; the traced rerun
replays exactly the units the untraced run completed, so the two must
produce the same trajectory digest.

An *op* is the piece of user work whose latency and rate the
end-to-end metrics report: one simulation on the sweeps, one task of
the cold job on ``served-sweep``, one whole cycle on ``service-churn``.

Sizes are class attributes so the self-test can shrink them in-process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

from repro.core.config import ExperimentConfig
from repro.core.parallel import run_grid
from repro.core.results import ExperimentResult
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobSpec, canonical_grid_json
from repro.service.worker import QueueWorker

from . import DEFAULT_SEED, ROOT, child_env
from .trace import Tracer

#: replications used by warm-up runs, outside every timed range
WARMUP_REPLICATION = 1_000_000

#: result fields that carry host timing or kernel-internal counters; a
#: kernel optimisation may change them without changing the trajectory
DIGEST_EXCLUDED = ("wall_time_s", "phase_timings", "events_executed",
                   "heap_compactions", "online_metrics")

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def _plain(obj: Any) -> Any:
    """numpy scalars as Python numbers, for canonical JSON."""
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON-serialisable: {type(obj).__name__}")


def digest_rows(rows: list[dict]) -> str:
    """sha256 over the canonical JSON of result rows' trajectories."""
    h = hashlib.sha256()
    for row in rows:
        kept = {k: v for k, v in row.items() if k not in DIGEST_EXCLUDED}
        h.update(json.dumps(kept, sort_keys=True, separators=(",", ":"),
                            default=_plain).encode())
    return h.hexdigest()


def grid_rows(payload_bytes: bytes) -> list[dict]:
    """Result rows of a canonical grid payload, config-major."""
    grid = json.loads(payload_bytes)["grid"]
    return [row for per_config in grid for row in per_config]


def golden_digests(workload: str) -> list[str]:
    """Per-unit digests recorded for the default seed (may be empty)."""
    try:
        golden = json.loads(GOLDEN_PATH.read_text())
    except FileNotFoundError:
        return []
    return golden.get("units", {}).get(workload, [])


@dataclasses.dataclass
class Unit:
    """What one loop step did."""

    ops: int
    #: time the ops took, excluding the benchmark's own bookkeeping
    busy_s: float
    #: ops that failed or produced a wrong output
    failed: int
    digest: Optional[str] = None


class Workload:
    """One closed-loop workload: set up, run units, check, tear down."""

    name = ""

    def __init__(self, seed: int, workdir: Path,
                 tracer: Optional[Tracer] = None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.golden = golden_digests(self.name) if seed == DEFAULT_SEED else []
        self.golden_checked = 0
        self.latencies_ms: list[float] = []
        #: program-reported counts summed over the timed units
        self.counts: dict[str, float] = {}

    def setup(self) -> None:
        """Everything before the first timed operation."""

    def unit(self, i: int) -> Unit:
        raise NotImplementedError

    def trace_reset(self) -> None:
        """Drop spans recorded before the timed section (server side)."""

    def snapshot(self) -> dict:
        """End-of-timing state: ``peak_rss_mb`` and, traced, ``summary``."""
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {"peak_rss_mb": rss_mb, "summary": {}, "events": []}

    def finish(self) -> int:
        """Checks that need the timing stopped; returns failures found."""
        return 0

    def close(self) -> None:
        """Release everything setup acquired."""

    def check_golden(self, i: int, digest: str) -> bool:
        if i >= len(self.golden):
            return True
        self.golden_checked += 1
        return digest == self.golden[i]

    def add_counts(self, rows: list[dict]) -> None:
        c = self.counts
        for row in rows:
            c["events"] = c.get("events", 0) + row["events_executed"]
            c["started"] = c.get("started", 0) + sum(
                cl["started"] for cl in row["clusters"])
            c["jobs"] = c.get("jobs", 0) + row["n_submitted_jobs"]
            c["requests"] = c.get("requests", 0) + row["total_requests"]
            c["cancellations"] = (c.get("cancellations", 0)
                                  + row["total_cancellations"])
            for phase, seconds in (row.get("phase_timings") or {}).items():
                c[phase] = c.get(phase, 0.0) + seconds


# -- sweeps -----------------------------------------------------------------


class SweepWorkload(Workload):
    """Serial in-process scheme sweep, one replication row per unit."""

    algorithm = "easy"
    schemes: tuple[str, ...] = ()
    n_clusters = 5
    nodes_per_cluster = 32
    duration = 900.0

    def __init__(self, seed: int, workdir: Path,
                 tracer: Optional[Tracer] = None) -> None:
        super().__init__(seed, workdir, tracer)
        base = ExperimentConfig(
            n_clusters=self.n_clusters,
            nodes_per_cluster=self.nodes_per_cluster,
            duration=self.duration, offered_load=2.0, drain=True,
            seed=seed, algorithm=self.algorithm,
        )
        self.configs = [base.with_(scheme=s) for s in self.schemes]

    def setup(self) -> None:
        # imports, the load-calibration fit and one simulation
        run_grid(self.configs[:1], 1, first_replication=WARMUP_REPLICATION)

    def row(self, i: int) -> tuple[list[ExperimentResult], list[float]]:
        """Replication ``i`` of every config: results and their seconds."""
        results, seconds = [], []
        for cfg in self.configs:
            if self.tracer is not None:
                self.tracer.set_request(f"{cfg.scheme}/r{i}")
            t0 = perf_counter()
            [[result]] = run_grid([cfg], 1, first_replication=i)
            seconds.append(perf_counter() - t0)
            results.append(result)
        return results, seconds

    def reference_digest(self, i: int) -> str:
        results, _ = self.row(i)
        return digest_rows([dataclasses.asdict(r) for r in results])

    def unit(self, i: int) -> Unit:
        results, seconds = self.row(i)
        busy = sum(seconds)
        self.latencies_ms.extend(s * 1e3 for s in seconds)
        rows = [dataclasses.asdict(r) for r in results]
        self.add_counts(rows)
        failed = sum(len(r.jobs) != r.n_submitted_jobs for r in results)
        digest = digest_rows(rows)
        if not self.check_golden(i, digest):
            failed = len(results)
        self.counts["tasks"] = self.counts.get("tasks", 0) + len(results)
        self.counts["task_wall_s"] = self.counts.get("task_wall_s", 0) + busy
        return Unit(len(results), busy, failed, digest)


class SweepEasy(SweepWorkload):
    name = "sweep-easy"
    algorithm = "easy"
    schemes = ("NONE", "R2", "R3", "R4", "HALF", "ALL")


class SweepCbf(SweepWorkload):
    name = "sweep-cbf"
    algorithm = "cbf"
    schemes = ("NONE", "R2", "R4", "ALL")


# -- the sweep service ------------------------------------------------------


class Server:
    """``repro serve`` in a subprocess, started through ``perf.serve``."""

    def __init__(self, state_dir: Path, trace: bool) -> None:
        self.state_dir = state_dir
        self.snapshot_path = state_dir.with_name(state_dir.name + ".snap")
        cmd = [sys.executable, "-m", "perf.serve",
               "--state-dir", str(state_dir),
               "--snapshot", str(self.snapshot_path)]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.PIPE, text=True)
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.stop()
            raise RuntimeError("repro serve did not report its url")
        self.url = json.loads(line)["url"]

    def signal(self, sig: int) -> None:
        self.proc.send_signal(sig)

    def snapshot(self) -> dict:
        """Ask the server for its peak RSS and spans (SIGUSR2)."""
        self.proc.send_signal(signal.SIGUSR2)
        deadline = time.monotonic() + 60.0
        while not self.snapshot_path.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("repro serve wrote no snapshot")
            time.sleep(0.01)
        data = json.loads(self.snapshot_path.read_text())
        self.snapshot_path.unlink()
        return data

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class ServiceWorkload(Workload):
    """Common set-up: a fresh state dir, a server and a client."""

    def __init__(self, seed: int, workdir: Path,
                 tracer: Optional[Tracer] = None) -> None:
        super().__init__(seed, workdir, tracer)
        self.base = ExperimentConfig(
            n_clusters=2, nodes_per_cluster=8, duration=200.0,
            offered_load=2.0, drain=True, seed=seed,
        )
        self.state_dir = workdir / f"{self.name}-{os.getpid()}"
        self.server: Optional[Server] = None

    def spec(self, configs: list[ExperimentConfig], first: int,
             n: int) -> dict:
        return JobSpec(
            configs=tuple(configs), n_replications=n,
            first_replication=first, executor="workqueue", chunksize=1,
        ).to_dict()

    def setup(self) -> None:
        shutil.rmtree(self.state_dir, ignore_errors=True)
        self.server = Server(self.state_dir, trace=self.tracer is not None)
        self.client = ServiceClient(self.server.url)

    def trace_reset(self) -> None:
        assert self.server is not None
        self.server.signal(signal.SIGUSR1)

    def snapshot(self) -> dict:
        assert self.server is not None
        snap = self.server.snapshot()
        return {"peak_rss_mb": snap["rss_kb"] / 1024,
                "summary": snap.get("summary", {}),
                "events": snap.get("events", [])}

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        shutil.rmtree(self.state_dir, ignore_errors=True)


class _TimedWorker(QueueWorker):
    """``QueueWorker`` that times each leased chunk it processes."""

    def __init__(self, url: str, tracer: Optional[Tracer]) -> None:
        super().__init__(url, worker_id="perf-worker", poll_interval_s=0.01)
        self.tracer = tracer
        self.latencies_ms: deque[float] = deque()
        self.failures = 0

    def _process(self, granted: dict) -> bool:
        if self.tracer is not None:
            self.tracer.set_request(
                f"{granted['job_id']}/c{granted['lease']['chunk_id']}")
        t0 = perf_counter()
        ok = super()._process(granted)
        self.latencies_ms.append((perf_counter() - t0) * 1e3)
        self.failures += not ok
        return ok


class ServedSweep(ServiceWorkload):
    """A work-queue job computed by one in-process worker, then resubmitted.

    Unit ``i`` submits replications ``[i*R, (i+1)*R)`` of NONE and R2
    cold, then the same spec again, which resolves from the cache.
    """

    name = "served-sweep"
    replications = 60

    def __init__(self, seed: int, workdir: Path,
                 tracer: Optional[Tracer] = None) -> None:
        super().__init__(seed, workdir, tracer)
        self.configs = [self.base.with_(scheme="NONE"),
                        self.base.with_(scheme="R2")]

    def reference_bytes(self, i: int) -> bytes:
        """Unit ``i``'s result file, computed in-process."""
        n = self.replications
        grids = run_grid(self.configs, n, first_replication=i * n)
        return (canonical_grid_json(grids) + "\n").encode()

    def reference_digest(self, i: int) -> str:
        return digest_rows(grid_rows(self.reference_bytes(i)))

    def setup(self) -> None:
        super().setup()
        assert self.server is not None
        self.worker = _TimedWorker(self.server.url, self.tracer)
        self.worker_thread = threading.Thread(
            target=self.worker.run, name="perf-worker", daemon=True)
        self.worker_thread.start()
        self.cold: list[Optional[bytes]] = []
        self.warm_ms: list[float] = []
        self.job(self.spec(self.configs, WARMUP_REPLICATION, 1))
        self.worker.latencies_ms.clear()

    def job(self, spec: dict) -> tuple[float, Optional[bytes]]:
        """Submit and wait; (seconds to ``done``, result bytes or None)."""
        t0 = perf_counter()
        job_id = self.client.submit(spec)
        state = self.client.wait(job_id, timeout=120.0,
                                 poll_interval_s=0.01)["state"]
        seconds = perf_counter() - t0
        if state != "done":
            return seconds, None
        return seconds, self.client.results_bytes(job_id)

    def unit(self, i: int) -> Unit:
        n = self.replications
        spec = self.spec(self.configs, i * n, n)
        tasks = n * len(self.configs)
        cold_s, cold = self.job(spec)
        warm_s, warm = self.job(spec)
        self.warm_ms.append(warm_s * 1e3)
        self.cold.append(cold)
        self.counts["tasks"] = self.counts.get("tasks", 0) + tasks
        self.counts["task_wall_s"] = self.counts.get("task_wall_s", 0) + cold_s
        if cold is None or warm != cold:
            return Unit(tasks, cold_s, tasks)
        rows = grid_rows(cold)
        self.add_counts(rows)
        digest = digest_rows(rows)
        failed = 0 if self.check_golden(i, digest) else tasks
        return Unit(tasks, cold_s, failed, digest)

    def snapshot(self) -> dict:
        self.latencies_ms = list(self.worker.latencies_ms)
        self.counts["warm_job_ms"] = statistics.median(self.warm_ms)
        entries = list((self.state_dir / "cache").glob("*/*.pkl"))
        self.counts["cache_entry_kb"] = (
            sum(p.stat().st_size for p in entries) / len(entries) / 1024
            if entries else 0.0
        )
        return super().snapshot()

    def finish(self) -> int:
        """Served bytes must equal the in-process grid, byte for byte."""
        failed = self.worker.failures
        for i, cold in enumerate(self.cold):
            if cold is not None and cold != self.reference_bytes(i):
                failed += self.replications * len(self.configs)
        return failed

    def close(self) -> None:
        if getattr(self, "worker_thread", None) is not None:
            self.worker.stop()
            self.worker_thread.join(timeout=30.0)
        super().close()


class ServiceChurn(ServiceWorkload):
    """Submit -> status -> cancel cycles against a loaded service.

    Set-up parks :attr:`background_jobs` work-queue jobs that never get
    a worker, so their job threads keep polling while the loop runs.

    The client cancels a job only once its status shows live progress.
    A cancel that reaches ``repro serve`` before the job thread has
    built its orchestrator marks the job cancelled but leaves the
    thread polling forever (``SweepService._route_cancel``); the
    benchmark steers clear of that defect so that no operation fails.
    The wait for progress is not timed: a cycle's time is its submit,
    its first status and its cancel request, so it follows the cost of
    the control routes and not how soon a job thread gets to run.
    """

    name = "service-churn"
    background_jobs = 200
    warmup_cycles = 5
    #: pause between the status polls that wait for a job to run
    poll_pause_s = 0.002
    #: a job that shows no progress within this long fails its cycle
    progress_timeout_s = 10.0

    def setup(self) -> None:
        super().setup()
        self.background = [
            self.client.submit(self.spec([self.base],
                                         WARMUP_REPLICATION + k, 1))
            for k in range(self.background_jobs)
        ]
        self.churned: list[str] = []
        for k in range(self.warmup_cycles):
            self.cycle(WARMUP_REPLICATION - 1 - k)
        self.counts = {"cycles": 0, "status_polls": 0}

    def cycle(self, replication: int) -> Optional[float]:
        """Submit a job, wait until it runs, cancel it.

        Returns the seconds the submit, first status and cancel requests
        took, or None when a request failed or the job never ran.
        """
        spec = self.spec([self.base], replication, 1)
        try:
            t0 = perf_counter()
            job_id = self.client.submit(spec)
            status = self.client.status(job_id)
            busy = perf_counter() - t0
            self.churned.append(job_id)
            polls = 1
            deadline = time.monotonic() + self.progress_timeout_s
            while "progress" not in status:
                if time.monotonic() > deadline:
                    return None
                time.sleep(self.poll_pause_s)
                status = self.client.status(job_id)
                polls += 1
            t0 = perf_counter()
            self.client.cancel(job_id)
            busy += perf_counter() - t0
        except ServiceError:
            return None
        self.counts["cycles"] = self.counts.get("cycles", 0) + 1
        self.counts["status_polls"] = (self.counts.get("status_polls", 0)
                                       + polls)
        return busy

    def unit(self, i: int) -> Unit:
        if self.tracer is not None:
            self.tracer.set_request(f"cycle{i}")
        busy = self.cycle(i)
        if busy is None:
            return Unit(1, 0.0, 1)
        self.latencies_ms.append(busy * 1e3)
        return Unit(1, busy, 0)

    def finish(self) -> int:
        """Churned jobs end cancelled; background jobs stay live."""
        deadline = time.monotonic() + 60.0
        while True:
            states = {j["job_id"]: j["state"] for j in self.client.jobs()}
            pending = [j for j in self.churned
                       if states.get(j) != "cancelled"]
            if not pending or time.monotonic() > deadline:
                break
            time.sleep(0.2)
        live = sum(states.get(j) in ("pending", "running")
                   for j in self.background)
        running = self.client.health()["jobs_running"]
        # a job thread that outlived its cancellation stays in the count
        return len(pending) + (len(self.background) - live) + abs(
            running - len(self.background))


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SweepEasy, SweepCbf, ServedSweep, ServiceChurn)
}
