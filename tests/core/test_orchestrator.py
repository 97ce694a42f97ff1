"""Tests for the sweep orchestrator: planning, recording, reassembly.

Executor behaviour is covered in ``test_executors.py``; here the
orchestrator is driven directly (or through the in-process executor
with a fake runner) so each responsibility — dedup, cache resolution,
chunk planning, idempotent recording, journaling, cancellation — is
pinned in isolation.
"""

import time

import pytest

from repro.core.cache import ResultCache
from repro.core.config import ExperimentConfig
from repro.core.executors import InProcessExecutor
from repro.core.orchestrator import (
    GridStats,
    Orchestrator,
    SweepCancelled,
    TaskError,
    default_chunksize,
)
from repro.obs.manifest import RunJournal


def tiny(**kw):
    defaults = dict(
        n_clusters=4, nodes_per_cluster=16, duration=300.0,
        offered_load=2.0, drain=True, seed=8,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class FakeResult:
    """Cheap stand-in for ExperimentResult (record() is shape-agnostic)."""

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


class TestPlanning:
    def test_dedup_collapses_equal_configs(self):
        orch = Orchestrator([tiny(), tiny(scheme="R2"), tiny()], 2)
        assert len(orch.unique) == 2
        assert orch.total == 4

    def test_prepare_is_idempotent(self):
        orch = Orchestrator([tiny()], 4, chunksize=2)
        first = orch.pending_chunks()
        orch.prepare()
        assert orch.pending_chunks() == first
        assert len(first) == 2

    def test_pending_chunks_returns_copies(self):
        orch = Orchestrator([tiny()], 2)
        chunks = orch.pending_chunks()
        next(iter(chunks.values())).append("sentinel")
        assert all(
            "sentinel" not in chunk
            for chunk in orch.pending_chunks().values()
        )

    def test_cache_hits_resolve_before_chunking(self):
        cache = ResultCache(None)
        orch = Orchestrator(
            [tiny()], 3, cache=cache, runner=fake_runner, chunksize=1,
        )
        orch.execute(InProcessExecutor())
        warm = Orchestrator([tiny()], 3, cache=cache, chunksize=1)
        warm.prepare()
        assert warm.pending_chunks() == {}
        assert warm.done == 3
        # No executor needed: assemble directly from the cache.
        [results] = warm.assemble()
        assert [r.replication for r in results] == [0, 1, 2]

    def test_chunksize_defaults_from_pending_not_total(self):
        """A mostly-warm grid must chunk over what is *left*."""
        cache = ResultCache(None)
        cold = Orchestrator(
            [tiny()], 8, cache=cache, runner=fake_runner, n_workers=2,
        )
        cold.execute(InProcessExecutor())
        # Invalidate exactly one replication by asking for a fresh rep.
        warm = Orchestrator(
            [tiny()], 9, cache=cache, n_workers=2,
        )
        warm.prepare()
        chunks = warm.pending_chunks()
        assert sum(len(c) for c in chunks.values()) == 1
        assert default_chunksize(1, 1) == 1


class TestRecording:
    def test_record_is_idempotent(self):
        orch = Orchestrator([tiny()], 2, chunksize=1)
        orch.prepare()
        result = FakeResult("NONE", 0)
        orch.record(0, 0, result)
        orch.record(0, 0, FakeResult("OTHER", 0))  # late duplicate
        orch.record(0, 1, FakeResult("NONE", 1))
        [results] = orch.assemble()
        assert results[0] is result, "first completion wins"
        assert orch.heartbeat.computed == 2, "duplicate not recounted"

    def test_progress_lines_and_chunk_accounting(self):
        messages = []
        orch = Orchestrator(
            [tiny()], 2, chunksize=2, progress=messages.append,
        )
        orch.prepare()
        assert orch.status()["chunks_open"] == 1
        orch.record(0, 0, FakeResult("NONE", 0))
        assert orch.status()["chunks_open"] == 1, "chunk still has rep 1"
        orch.record(0, 1, FakeResult("NONE", 1))
        assert orch.status()["chunks_open"] == 0
        assert len(messages) == 2
        assert "[2/2]" in messages[1]

    def test_record_cost_does_not_grow_with_open_chunks(self):
        """20,000 one-task chunks: each record touches only its own chunk.

        Scanning every open chunk per record made this grid quadratic
        (about 30 s); a task -> chunk map keeps it linear.
        """
        configs = [tiny(seed=s) for s in range(200)]
        orch = Orchestrator(configs, 100, chunksize=1)
        orch.prepare()
        assert orch.status()["chunks_open"] == 20_000
        result = FakeResult("NONE", 0)
        t0 = time.perf_counter()
        for rep in orch.reps:
            for ci in range(len(configs)):
                orch.record(ci, rep, result)
        elapsed = time.perf_counter() - t0
        assert orch.status()["chunks_open"] == 0
        assert elapsed < 5.0, f"20,000 records took {elapsed:.1f} s"

    def test_assemble_names_the_first_missing_task(self):
        orch = Orchestrator([tiny()], 3)
        orch.prepare()
        orch.record(0, 0, FakeResult("NONE", 0))
        with pytest.raises(TaskError, match="rep 1") as err:
            orch.assemble()
        assert "2 task(s) missing" in err.value.cause

    def test_duplicate_configs_share_results_not_lists(self):
        orch = Orchestrator(
            [tiny(), tiny()], 1, runner=fake_runner,
        )
        a, b = orch.execute(InProcessExecutor())
        assert a == b
        a.append("sentinel")
        assert len(b) == 1


class TestJournal:
    def test_lifecycle_events(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        orch = Orchestrator(
            [tiny()], 2, chunksize=1, runner=fake_runner, journal=journal,
        )
        orch.execute(InProcessExecutor())
        events = [e["event"] for e in journal.entries()]
        assert events == ["prepared", "execute", "chunk_done", "chunk_done"]
        prepared = journal.entries()[0]
        assert prepared["total"] == 2
        assert prepared["pending"] == 2
        done_events = [
            e for e in journal.entries() if e["event"] == "chunk_done"
        ]
        assert [e["tasks"] for e in done_events] == [[[0, 0]], [[0, 1]]]

    def test_chunk_done_waits_for_its_last_task(self, tmp_path):
        """Out-of-order records close each chunk once, in completion
        order, listing the chunk's tasks in plan order."""
        journal = RunJournal(tmp_path / "journal.jsonl")
        orch = Orchestrator([tiny()], 6, chunksize=3, journal=journal)
        orch.prepare()
        for rep in (4, 2, 0, 5, 3):
            orch.record(0, rep, FakeResult("NONE", rep))
        orch.record(0, 1, FakeResult("NONE", 1))
        done = [e for e in journal.entries() if e["event"] == "chunk_done"]
        assert [(e["chunk"], e["done"]) for e in done] == [(1, 5), (0, 6)]
        assert done[0]["tasks"] == [[0, 3], [0, 4], [0, 5]]
        assert done[1]["tasks"] == [[0, 0], [0, 1], [0, 2]]

    def test_cached_task_record_closes_no_chunk(self, tmp_path):
        cache = ResultCache(None)
        Orchestrator(
            [tiny()], 1, cache=cache, runner=fake_runner,
        ).execute(InProcessExecutor())
        journal = RunJournal(tmp_path / "journal.jsonl")
        warm = Orchestrator([tiny()], 2, cache=cache, journal=journal)
        warm.prepare()
        warm.record(0, 0, FakeResult("OTHER", 0))  # already resolved
        assert warm.status()["chunks_open"] == 1
        warm.record(0, 1, FakeResult("NONE", 1))
        events = [e["event"] for e in journal.entries()]
        assert events == ["prepared", "chunk_done"]
        [results] = warm.assemble()
        assert results == [FakeResult("NONE", 0), FakeResult("NONE", 1)]

    def test_warm_run_journals_no_execute(self, tmp_path):
        cache = ResultCache(None)
        Orchestrator(
            [tiny()], 2, cache=cache, runner=fake_runner,
        ).execute(InProcessExecutor())
        journal = RunJournal(tmp_path / "journal.jsonl")
        warm = Orchestrator(
            [tiny()], 2, cache=cache, journal=journal,
        )
        warm.execute(InProcessExecutor())
        events = [e["event"] for e in journal.entries()]
        assert events == ["prepared"], "nothing to execute on a warm run"

    def test_journal_sequence_resumes(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = RunJournal(path)
        first.append({"event": "a"})
        second = RunJournal(path)
        second.append({"event": "b"})
        entries = RunJournal(path).entries()
        assert [e["seq"] for e in entries] == [0, 1]

    def test_journal_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        journal.append({"event": "a"})
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"event": "torn')  # no newline, invalid JSON
        entries = RunJournal(path).entries()
        assert [e["event"] for e in entries] == ["a"]


class TestCancellation:
    def test_cancel_surfaces_as_sweep_cancelled(self):
        orch = Orchestrator([tiny()], 4, runner=fake_runner, chunksize=1)
        orch.prepare()

        def cancelling_runner(config, replication):
            orch.cancel()
            return fake_runner(config, replication)

        orch.runner = cancelling_runner
        with pytest.raises(SweepCancelled):
            orch.execute(InProcessExecutor())
        assert orch.status()["cancelled"] is True

    def test_stats_flow_through(self):
        stats = GridStats()
        orch = Orchestrator(
            [tiny()], 2, runner=fake_runner, stats=stats,
        )
        orch.execute(InProcessExecutor())
        assert stats.as_dict() == {"task_failures": {}, "task_retries": 0}
