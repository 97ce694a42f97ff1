"""Tests for the pluggable executors, centred on the work queue.

The lease protocol is driven with an injected fake clock so expiry is
deterministic, and a work-queue sweep is driven synchronously: a
"worker" leases and completes chunks on the test's own thread and
:func:`settle` feeds the orchestrator in between (the service that
schedules those steps, and the HTTP transport, are covered in
``tests/service``).  The crash-resume tests pin the tentpole
guarantee: a dead worker or a killed sweep never loses completed work
and never recomputes it.
"""

import dataclasses

import pytest

from repro.core.cache import ResultCache
from repro.core.config import ExperimentConfig
from repro.core.executors import ChunkQueue, InProcessExecutor, settle
from repro.core.orchestrator import Orchestrator, TaskError


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


def open_queue(orch, **kw):
    """Hand an orchestrator's pending chunks to a fresh work queue."""
    assert orch.begin("work-queue"), "nothing pending"
    return ChunkQueue(orch.pending_chunks(), **kw)


def work(queue, orch, runner, worker_id="w"):
    """One synchronous worker: settle, lease, compute until drained."""
    while not settle(queue, orch):
        lease = queue.lease(worker_id)
        assert lease is not None, "work outstanding but none to lease"
        queue.complete(lease.chunk_id, lease.token, [
            (ci, rep, runner(orch.unique[ci], rep))
            for ci, rep in lease.tasks
        ])
    return orch.assemble()


class TestSettle:
    def test_grid_matches_inprocess(self):
        configs = [tiny(), tiny(scheme="R2")]
        serial = Orchestrator(
            configs, 2, runner=fake_runner,
        ).execute(InProcessExecutor())

        orch = Orchestrator(configs, 2, runner=fake_runner, chunksize=1)
        assert work(open_queue(orch), orch, fake_runner) == serial

    def test_completions_are_recorded_only_when_settled(self):
        orch = Orchestrator([tiny()], 2, chunksize=1)
        queue = open_queue(orch)
        assert settle(queue, orch) is False, "two chunks outstanding"
        for _ in range(2):
            lease = queue.lease("w")
            queue.complete(lease.chunk_id, lease.token, [
                (ci, rep, fake_runner(orch.unique[ci], rep))
                for ci, rep in lease.tasks
            ])
        assert orch.done == 0, "the queue only buffers deliveries"
        assert settle(queue, orch) is True
        assert orch.done == 2

    def test_exhausted_chunk_raises_task_error(self):
        clock = FakeClock()
        orch = Orchestrator([tiny()], 1, chunksize=1)
        queue = open_queue(
            orch, lease_ttl_s=5.0, max_attempts=2, clock=clock,
        )
        # Lease and abandon: the clock passes the TTL every attempt.
        queue.lease("doomed")
        clock.advance(6.0)
        assert settle(queue, orch) is False, "a second attempt remains"
        queue.lease("doomed")
        clock.advance(6.0)
        with pytest.raises(TaskError, match="lease attempt"):
            settle(queue, orch)


class TestCrashResume:
    """The tentpole guarantee: interrupted sweeps resume, never redo."""

    def test_dead_worker_chunk_is_recomputed_elsewhere(self):
        clock = FakeClock()
        orch = Orchestrator([tiny()], 3, runner=fake_runner, chunksize=1)
        queue = open_queue(
            orch, lease_ttl_s=5.0, max_attempts=3, clock=clock,
        )
        computed = []

        def counting_runner(config, replication):
            computed.append(replication)
            return fake_runner(config, replication)

        # The first lease's worker "dies" mid-chunk.
        assert queue.lease("dead") is not None
        clock.advance(6.0)
        [results] = work(queue, orch, counting_runner)
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

        resumed = Orchestrator(
            configs, 4, cache=ResultCache(tmp_path / "cache"),
            chunksize=1,
        )
        resumed.prepare()
        assert sum(
            len(c) for c in resumed.pending_chunks().values()
        ) == 2
        grids = work(open_queue(resumed), resumed, run_single)
        assert [strip_wall(r) for r in grids[0]] == [
            strip_wall(r) for r in reference[0]
        ]
