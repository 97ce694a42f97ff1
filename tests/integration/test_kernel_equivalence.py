"""Old kernel vs new kernel: full experiments must be indistinguishable.

The calendar-queue rewrite claims to be a pure data-structure change —
same events, same order, same trajectories.  The lockstep suite
(``tests/sim/test_calendar_lockstep.py``) proves the structures agree
operation-by-operation; this module closes the loop end-to-end by
running whole traced experiments on both kernels (monkeypatching the
engine's default queue factory) and asserting the obs-layer trace is
byte-identical and the results are equal.
"""

from __future__ import annotations

import pytest

from repro.core.config import ExperimentConfig
from repro.obs.trace import (
    TRACE_KIND,
    TRACE_SCHEMA_VERSION,
    _event_record,
    run_single_traced,
    write_jsonl,
)
from repro.sim import engine
from repro.sim.heapref import BinaryHeapQueue


def _config(**overrides):
    defaults = dict(
        scheme="ALL", algorithm="easy", n_clusters=3, nodes_per_cluster=16,
        duration=300.0, drain=True, seed=42,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _trace_bytes(tmp_path, name, traced, scheme):
    path = tmp_path / name
    records = (
        _event_record(e, config_index=0, replication=0, scheme=scheme)
        for e in traced.events
    )
    write_jsonl(path, TRACE_KIND, TRACE_SCHEMA_VERSION, {"configs": []}, records)
    return path.read_bytes()


@pytest.mark.parametrize("algorithm", ["fcfs", "easy", "cbf"])
def test_trace_byte_identical_across_kernels(tmp_path, monkeypatch, algorithm):
    """Same seed, both kernels: the serialized trace bytes must match."""
    cfg = _config(algorithm=algorithm)
    new = run_single_traced(cfg)
    monkeypatch.setattr(engine, "_DEFAULT_QUEUE_FACTORY", BinaryHeapQueue)
    old = run_single_traced(cfg)
    assert new.events == old.events
    assert _trace_bytes(tmp_path, "new.jsonl", new, cfg.scheme) == _trace_bytes(
        tmp_path, "old.jsonl", old, cfg.scheme
    )


def test_results_equal_across_kernels(monkeypatch):
    """Job-level metrics agree, not just the event stream."""
    cfg = _config(scheme="R2", algorithm="easy", seed=7)
    new = run_single_traced(cfg).result
    monkeypatch.setattr(engine, "_DEFAULT_QUEUE_FACTORY", BinaryHeapQueue)
    old = run_single_traced(cfg).result
    assert [j.stretch for j in new.jobs] == [j.stretch for j in old.jobs]
    assert [j.wait_time for j in new.jobs] == [j.wait_time for j in old.jobs]
    assert new.events_executed == old.events_executed
