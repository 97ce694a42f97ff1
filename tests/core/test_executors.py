"""Tests for the pluggable executors, centred on the work queue.

The lease protocol is driven with an injected fake clock so expiry is
deterministic; "workers" here are plain threads calling the queue
directly (the HTTP transport on top is covered in ``tests/service``).
The crash-resume tests pin the tentpole guarantee: a dead worker or a
killed sweep never loses completed work and never recomputes it.
"""

import dataclasses
import statistics
import sys
import threading
import time

import pytest

from repro.core.cache import ResultCache
from repro.core.config import ExperimentConfig
from repro.core.executors import (
    ChunkQueue,
    InProcessExecutor,
    WorkQueueExecutor,
)
from repro.core.orchestrator import Orchestrator, SweepCancelled, TaskError


def tiny(**kw):
    defaults = dict(
        n_clusters=4, nodes_per_cluster=16, duration=300.0,
        offered_load=2.0, drain=True, seed=8,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class FakeResult:
    def __init__(self, scheme, replication):
        self.scheme = scheme
        self.replication = replication

    def __eq__(self, other):
        return (self.scheme, self.replication) == (
            other.scheme, other.replication
        )

    def __hash__(self):
        return hash((self.scheme, self.replication))


def fake_runner(config, replication):
    return FakeResult(config.scheme, replication)


def strip_wall(result):
    d = dataclasses.asdict(result)
    d.pop("wall_time_s")
    d.pop("phase_timings")
    return d


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make_queue(n_chunks=3, **kw):
    chunks = {cid: [(0, cid)] for cid in range(n_chunks)}
    kw.setdefault("lease_ttl_s", 10.0)
    kw.setdefault("clock", FakeClock())
    return ChunkQueue(chunks, **kw), kw["clock"]


class TestChunkQueue:
    def test_leases_grant_lowest_open_chunk_first(self):
        queue, _ = make_queue(2)
        a = queue.lease("w1")
        b = queue.lease("w2")
        assert (a.chunk_id, b.chunk_id) == (0, 1)
        assert a.token != b.token
        assert queue.lease("w3") is None, "nothing left to offer"

    def test_heartbeat_extends_the_deadline(self):
        queue, clock = make_queue(1, lease_ttl_s=10.0)
        lease = queue.lease("w1")
        clock.advance(8.0)
        assert queue.heartbeat(lease.chunk_id, lease.token) is True
        clock.advance(8.0)  # past the original deadline, not the renewed
        assert queue.expire() == []
        clock.advance(8.0)
        assert queue.expire() == [lease.chunk_id]

    def test_expiry_requeues_for_another_worker(self):
        queue, clock = make_queue(1, lease_ttl_s=5.0)
        first = queue.lease("w1")
        clock.advance(6.0)
        second = queue.lease("w2")  # lease() expires internally first
        assert second is not None
        assert second.chunk_id == first.chunk_id
        assert second.attempt == 2
        assert queue.heartbeat(first.chunk_id, first.token) is False

    def test_attempt_budget_exhaustion_marks_failed(self):
        queue, clock = make_queue(1, lease_ttl_s=5.0, max_attempts=2)
        for _ in range(2):
            assert queue.lease("w") is not None
            clock.advance(6.0)
            queue.expire()
        assert queue.lease("w") is None
        cid, task, attempts = queue.first_failed()
        assert (cid, task, attempts) == (0, (0, 0), 2)
        assert queue.outstanding() == 1, "failed chunks stay outstanding"

    def test_stale_completion_still_buffers_results(self):
        """A slow worker racing its own expiry never wastes its work."""
        queue, clock = make_queue(1, lease_ttl_s=5.0)
        slow = queue.lease("slow")
        clock.advance(6.0)
        fast = queue.lease("fast")  # requeued to a second worker
        results = [(0, 0, FakeResult("NONE", 0))]
        assert queue.complete(slow.chunk_id, slow.token, results) is False
        assert queue.outstanding() == 0
        assert queue.drain_completed() == [(0, results)]
        # The fast worker's duplicate arrives after: not re-buffered.
        assert queue.complete(fast.chunk_id, fast.token, results) is False
        assert queue.drain_completed() == []

    def test_remote_failure_consumes_an_attempt(self):
        queue, _ = make_queue(1, max_attempts=2)
        lease = queue.lease("w")
        assert queue.fail(lease.chunk_id, lease.token, "boom") is True
        retry = queue.lease("w")
        assert retry.attempt == 2
        queue.fail(retry.chunk_id, retry.token, "boom again")
        assert queue.first_failed() is not None

    def test_snapshot_counts(self):
        queue, _ = make_queue(3)
        lease = queue.lease("w")
        queue.complete(lease.chunk_id, lease.token, [])
        assert queue.snapshot() == {
            "chunks": 3, "open": 2, "leased": 0, "done": 1, "failed": 0,
        }


def drain_queue_in_thread(executor, runner, configs, worker_id="w"):
    """Background 'worker': polls the executor's queue until it drains."""

    def loop():
        while True:
            queue = executor.queue
            if queue is None:
                return
            lease = queue.lease(worker_id)
            if lease is None:
                if queue.outstanding() == 0:
                    return
                continue
            results = [
                (ci, rep, runner(configs[ci], rep))
                for ci, rep in lease.tasks
            ]
            queue.complete(lease.chunk_id, lease.token, results)

    thread = threading.Thread(target=loop, daemon=True)
    return thread


class TestWorkQueueExecutor:
    def test_grid_matches_inprocess(self):
        configs = [tiny(), tiny(scheme="R2")]
        serial = Orchestrator(
            configs, 2, runner=fake_runner,
        ).execute(InProcessExecutor())

        executor = WorkQueueExecutor()
        orch = Orchestrator(configs, 2, runner=fake_runner, chunksize=1)
        orch.prepare()
        thread = drain_queue_in_thread(executor, fake_runner, orch.unique)
        # Start the worker only once the queue is published.
        executor._on_queue_ready = lambda queue: thread.start()
        queued = orch.execute(executor)
        thread.join(timeout=10.0)
        assert queued == serial

    def test_exhausted_chunk_raises_task_error(self):
        clock = FakeClock()
        executor = WorkQueueExecutor(
            lease_ttl_s=5.0, max_attempts=2, clock=clock,
        )
        orch = Orchestrator([tiny()], 1, chunksize=1)

        def doomed_worker(queue):
            # Lease and abandon: each poll advances the clock past the
            # TTL, so the lease expires every attempt.
            def loop():
                while executor.queue is not None:
                    lease = queue.lease("doomed")
                    if lease is None and queue.outstanding() == 0:
                        return
                    clock.advance(6.0)

            threading.Thread(target=loop, daemon=True).start()

        executor._on_queue_ready = doomed_worker
        with pytest.raises(TaskError, match="lease attempt"):
            orch.execute(executor)
        assert executor.queue is None, "queue unpublished on exit"



class TestChunkQueueWait:
    def test_returns_at_once_after_a_missed_change(self):
        queue, _ = make_queue(1)
        seen = queue.version()
        queue.lease("w")  # lands between the caller's checks and its wait
        t0 = time.monotonic()
        assert queue.wait(seen) != seen
        assert time.monotonic() - t0 < 1.0

    def test_wake_ends_an_untimed_wait(self):
        queue, _ = make_queue(1)
        seen = queue.version()
        threading.Timer(0.05, queue.wake).start()
        assert queue.wait(seen) == seen + 1

    def test_times_out_at_the_earliest_lease_deadline(self):
        queue = ChunkQueue({0: [(0, 0)]}, lease_ttl_s=0.1)
        queue.lease("w")
        seen = queue.version()
        t0 = time.monotonic()
        assert queue.wait(seen) == seen, "a timeout is not a change"
        assert 0.05 < time.monotonic() - t0 < 5.0
        assert queue.expire() == [0]


class ParkedJob:
    """A work-queue sweep executing on a background thread."""

    def __init__(self, n_chunks=1, **executor_kw):
        self.executor = WorkQueueExecutor(**executor_kw)
        self.orch = Orchestrator(
            [tiny()], n_chunks, runner=fake_runner, chunksize=1,
        )
        ready = threading.Event()
        self.executor._on_queue_ready = lambda queue: ready.set()
        self.outcome = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert ready.wait(timeout=10.0), "queue never published"
        self.queue = self.executor.queue

    def _run(self):
        try:
            self.outcome = self.orch.execute(self.executor)
        except Exception as exc:
            self.outcome = exc


class TestEventDrivenExecutor:
    """The job thread sleeps until something changes; it never polls."""

    def test_parked_job_does_not_spin(self, monkeypatch):
        calls = []
        real = ChunkQueue.expire

        def counting(self):
            calls.append(time.monotonic())
            return real(self)

        monkeypatch.setattr(ChunkQueue, "expire", counting)
        job = ParkedJob()
        time.sleep(0.5)
        assert len(calls) <= 2, f"{len(calls)} loop iterations while idle"
        job.orch.cancel()
        job.thread.join(timeout=10.0)
        assert isinstance(job.outcome, SweepCancelled)

    def test_completion_reaches_record_without_a_poll_delay(self):
        job = ParkedJob(n_chunks=5)
        recorded = threading.Event()
        real = job.orch.record

        def record(*args, **kwargs):
            real(*args, **kwargs)
            recorded.set()

        job.orch.record = record
        latencies = []
        for _ in range(5):
            lease = job.queue.lease("w")
            results = [
                (ci, rep, fake_runner(job.orch.unique[ci], rep))
                for ci, rep in lease.tasks
            ]
            recorded.clear()
            t0 = time.monotonic()
            job.queue.complete(lease.chunk_id, lease.token, results)
            assert recorded.wait(timeout=10.0)
            latencies.append(time.monotonic() - t0)
        job.thread.join(timeout=10.0)
        assert [r.replication for r in job.outcome[0]] == [0, 1, 2, 3, 4]
        # The retired 50 ms poll put the median near 25 ms.
        assert statistics.median(latencies) < 0.01, latencies

    def test_cancel_ends_a_parked_job_promptly(self):
        job = ParkedJob()
        time.sleep(0.1)  # let the job thread settle into its wait
        t0 = time.monotonic()
        job.orch.cancel()
        job.thread.join(timeout=10.0)
        assert isinstance(job.outcome, SweepCancelled)
        assert time.monotonic() - t0 < 1.0
        assert job.executor.queue is None

    def test_abandoned_lease_expires_on_its_deadline(self):
        """Nothing touches the queue after the lease: the job thread's
        own timeout requeues the chunk."""
        job = ParkedJob(lease_ttl_s=0.1)
        lease = job.queue.lease("dead")
        deadline = time.monotonic() + 10.0
        while job.queue.snapshot()["open"] == 0:
            assert time.monotonic() < deadline, "lease never expired"
            time.sleep(0.01)
        retry = job.queue.lease("live")
        assert (retry.chunk_id, retry.attempt) == (lease.chunk_id, 2)
        job.orch.cancel()
        job.thread.join(timeout=10.0)
        assert isinstance(job.outcome, SweepCancelled)

    def test_many_workers_never_strand_the_job_thread(self):
        """A lost wake-up would leave the job thread asleep with every
        chunk done; a short switch interval makes the race likely."""
        job = ParkedJob(n_chunks=200)
        configs = job.orch.unique

        def worker(worker_id):
            while job.queue.outstanding():
                lease = job.queue.lease(worker_id)
                if lease is not None:
                    job.queue.complete(lease.chunk_id, lease.token, [
                        (ci, rep, fake_runner(configs[ci], rep))
                        for ci, rep in lease.tasks
                    ])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=worker, args=(f"w{k}",), daemon=True)
                for k in range(8)
            ]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=30.0)
            job.thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not job.thread.is_alive(), "job thread stranded"
        assert [r.replication for r in job.outcome[0]] == list(range(200))


class TestCrashResume:
    """The tentpole guarantee: interrupted sweeps resume, never redo."""

    def test_dead_worker_chunk_is_recomputed_elsewhere(self):
        clock = FakeClock()
        executor = WorkQueueExecutor(
            lease_ttl_s=5.0, max_attempts=3, clock=clock,
        )
        orch = Orchestrator([tiny()], 3, runner=fake_runner, chunksize=1)
        orch.prepare()
        computed = []

        def counting_runner(config, replication):
            computed.append(replication)
            return fake_runner(config, replication)

        def workers(queue):
            def loop():
                died = False
                while executor.queue is not None:
                    lease = queue.lease("w")
                    if lease is None:
                        if queue.outstanding() == 0:
                            return
                        continue
                    if not died:
                        # First lease: the worker "dies" mid-chunk.
                        died = True
                        clock.advance(6.0)
                        continue
                    results = [
                        (ci, rep, counting_runner(orch.unique[ci], rep))
                        for ci, rep in lease.tasks
                    ]
                    queue.complete(lease.chunk_id, lease.token, results)

            threading.Thread(target=loop, daemon=True).start()

        executor._on_queue_ready = workers
        [results] = orch.execute(executor)
        assert [r.replication for r in results] == [0, 1, 2]
        assert sorted(computed) == [0, 1, 2], (
            "the abandoned chunk was recomputed exactly once"
        )

    def test_killed_sweep_resumes_from_disk_cache(self, tmp_path):
        """Kill the executor mid-sweep; a rebuilt orchestrator over the
        same disk cache re-runs *only* the incomplete chunks and yields
        a byte-identical grid.  Uses the real ``run_single`` — the disk
        cache only trusts genuine ExperimentResult payloads."""
        from repro.core.experiment import run_single

        configs = [tiny(), tiny(scheme="R2")]
        reference = Orchestrator(configs, 2).execute(InProcessExecutor())

        cache = ResultCache(tmp_path / "cache")
        first_calls = []

        def crashing_runner(config, replication):
            if len(first_calls) == 2:
                raise KeyboardInterrupt("sweep killed mid-run")
            first_calls.append((config.scheme, replication))
            return run_single(config, replication)

        crashed = Orchestrator(
            configs, 2, cache=cache, runner=crashing_runner, chunksize=1,
        )
        with pytest.raises(KeyboardInterrupt):
            crashed.execute(InProcessExecutor())
        assert len(first_calls) == 2, "two tasks completed before the kill"

        # Fresh process: new orchestrator, new cache handle, same disk.
        resumed_cache = ResultCache(tmp_path / "cache")
        resumed_calls = []

        def counting_runner(config, replication):
            resumed_calls.append((config.scheme, replication))
            return run_single(config, replication)

        resumed = Orchestrator(
            configs, 2, cache=resumed_cache, runner=counting_runner,
            chunksize=1,
        )
        resumed.prepare()
        pending = sum(
            len(c) for c in resumed.pending_chunks().values()
        )
        assert pending == 2, "completed tasks resolved from the cache"
        grids = resumed.execute(InProcessExecutor())
        assert len(resumed_calls) == 2, "only incomplete chunks re-ran"
        assert set(resumed_calls).isdisjoint(first_calls)
        assert [
            [strip_wall(r) for r in per_config] for per_config in grids
        ] == [
            [strip_wall(r) for r in per_config] for per_config in reference
        ]

    def test_resume_through_workqueue_matches_serial(self, tmp_path):
        """Same resume invariant when the second leg runs on the queue."""
        from repro.core.experiment import run_single

        configs = [tiny()]
        reference = Orchestrator(configs, 4).execute(InProcessExecutor())

        cache = ResultCache(tmp_path / "cache")
        half = Orchestrator(configs, 2, cache=cache)
        half.execute(InProcessExecutor())  # reps 0..1 land in the cache

        executor = WorkQueueExecutor()
        resumed = Orchestrator(
            configs, 4, cache=ResultCache(tmp_path / "cache"),
            chunksize=1,
        )
        resumed.prepare()
        assert sum(
            len(c) for c in resumed.pending_chunks().values()
        ) == 2
        thread = drain_queue_in_thread(
            executor, run_single, resumed.unique,
        )
        executor._on_queue_ready = lambda queue: thread.start()
        grids = resumed.execute(executor)
        thread.join(timeout=10.0)
        assert [strip_wall(r) for r in grids[0]] == [
            strip_wall(r) for r in reference[0]
        ]
