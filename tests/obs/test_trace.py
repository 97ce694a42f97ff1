"""Tests for the lifecycle trace recorder and traced sweeps."""

import dataclasses
import json

import pytest

from repro.core.config import ExperimentConfig
from repro.core.experiment import run_single
from repro.obs.probes import PROBE_KIND, PROBE_SCHEMA_VERSION
from repro.obs.trace import (
    EVENT_TYPES,
    TRACE_KIND,
    TRACE_SCHEMA_VERSION,
    TraceRecorder,
    filter_events,
    read_jsonl,
    record_sweep,
    run_single_traced,
    summarize_trace,
    write_jsonl,
)


def small_config(**overrides):
    defaults = dict(
        scheme="ALL", algorithm="easy", n_clusters=3, nodes_per_cluster=16,
        duration=300.0, drain=True, seed=42,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestRecorder:
    def test_on_appends_tuples(self):
        from repro.cluster.platform import Platform
        from repro.sim.engine import Simulator

        from ..conftest import make_request

        sim = Simulator()
        platform = Platform(sim, [8, 8], algorithm="easy")
        request = make_request(nodes=2)
        rec = TraceRecorder()
        sim.at(1.5, lambda: rec.on("submit", platform.schedulers[0], request))
        sim.at(2.0, lambda: rec.on("outage_down", platform.schedulers[1]))
        sim.at(2.5, lambda: rec.on("pass", platform.schedulers[1]))
        sim.run()
        assert rec.events == [
            (1.5, "submit", 0, request.request_id, -1),
            (2.0, "outage_down", 1, -1, -1),
        ]
        assert len(rec) == 2
        rec.clear()
        assert len(rec) == 0


class TestTracedRun:
    def test_events_cover_lifecycle(self):
        traced = run_single_traced(small_config())
        types = {e[1] for e in traced.events}
        assert {"submit", "queue", "start", "complete"} <= types
        # The ALL scheme cancels losers.
        assert "cancel_sent" in types and "cancel_applied" in types
        for e in traced.events:
            assert e[1] in EVENT_TYPES

    def test_event_counts_match_result(self):
        traced = run_single_traced(small_config())
        by_type = {}
        for e in traced.events:
            by_type[e[1]] = by_type.get(e[1], 0) + 1
        r = traced.result
        assert by_type["submit"] == r.total_requests
        assert by_type["queue"] == r.total_requests
        assert by_type["complete"] == sum(c.completed for c in r.clusters)
        assert by_type.get("cancel_applied", 0) == r.total_cancellations

    def test_tracing_does_not_change_results(self):
        """The strict no-op guarantee: traced == untraced trajectories."""
        cfg = small_config()
        plain = run_single(cfg, 0)
        traced = run_single_traced(cfg, 0).result
        assert [dataclasses.astuple(j) for j in plain.jobs] == [
            dataclasses.astuple(j) for j in traced.jobs
        ]
        assert plain.clusters == traced.clusters
        assert plain.total_cancellations == traced.total_cancellations

    def test_untraced_run_attaches_no_recorder(self):
        """A platform starts with no observer on any scheduler."""
        from repro.cluster.platform import Platform
        from repro.sim.engine import Simulator

        platform = Platform(Simulator(), [8], algorithm="easy")
        assert all(s.observer is None for s in platform.schedulers)

    def test_outage_events_recorded(self):
        from repro.faults import FaultConfig

        cfg = small_config(
            faults=FaultConfig(outage_rate=24.0, outage_duration=30.0),
        )
        traced = run_single_traced(cfg)
        types = {e[1] for e in traced.events}
        if traced.result.outages:
            assert "outage_down" in types and "outage_up" in types


#: one sample file of each kind the JSONL codec reads and writes
JSONL_KINDS = {
    TRACE_KIND: (TRACE_SCHEMA_VERSION, [
        {"t": 0.0, "type": "submit", "cluster": 0, "request": 1,
         "job": 0, "config": 0, "rep": 0, "scheme": "R2"},
        {"t": 1.0, "type": "start", "cluster": 0, "request": 1,
         "job": 0, "config": 0, "rep": 0, "scheme": "R2"},
    ]),
    PROBE_KIND: (PROBE_SCHEMA_VERSION, [
        {"t": 0.0, "config": 0, "rep": 0, "scheme": "R2", "cluster": 0,
         "queue_depth": 3, "busy_nodes": 8, "total_nodes": 16,
         "utilisation": 0.5},
        {"t": 0.0, "config": 0, "rep": 0, "scheme": "R2", "cluster": -1,
         "outstanding_duplicates": 1, "wasted_node_seconds": 0.0,
         "pending_events": 11, "events_executed": 4, "compactions": 0},
    ]),
}


@pytest.mark.parametrize("kind", sorted(JSONL_KINDS))
class TestJsonlRoundTrip:
    """The one JSONL codec, over both kinds of file it serves."""

    def test_write_read(self, tmp_path, kind):
        schema, records = JSONL_KINDS[kind]
        path = tmp_path / "x.jsonl"
        assert write_jsonl(path, kind, schema, {"note": "x"}, records) == 2
        header, got = read_jsonl(path, kind, schema)
        assert header == {"kind": kind, "schema": schema, "note": "x"}
        assert got == records

    def test_read_rejects_foreign_file(self, tmp_path, kind):
        schema, _ = JSONL_KINDS[kind]
        path = tmp_path / "x.jsonl"
        path.write_text('{"hello": 1}\n')
        with pytest.raises(ValueError, match=f"not a {kind} file"):
            read_jsonl(path, kind, schema)

    def test_read_rejects_other_kind(self, tmp_path, kind):
        schema, records = JSONL_KINDS[kind]
        other = next(k for k in JSONL_KINDS if k != kind)
        path = tmp_path / "x.jsonl"
        write_jsonl(path, other, JSONL_KINDS[other][0], {}, records)
        with pytest.raises(ValueError, match=f"not a {kind} file"):
            read_jsonl(path, kind, schema)

    def test_read_rejects_future_schema(self, tmp_path, kind):
        schema, _ = JSONL_KINDS[kind]
        path = tmp_path / "x.jsonl"
        path.write_text(json.dumps({"kind": kind, "schema": 999}) + "\n")
        with pytest.raises(ValueError, match=f"unsupported {kind} schema"):
            read_jsonl(path, kind, schema)

    def test_read_rejects_empty(self, tmp_path, kind):
        schema, _ = JSONL_KINDS[kind]
        path = tmp_path / "x.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match=f"empty file, expected {kind}"):
            read_jsonl(path, kind, schema)


class TestFilterAndSummary:
    EVENTS = [
        {"t": 0.0, "type": "submit", "cluster": 0, "request": 1, "job": 0,
         "config": 0, "rep": 0, "scheme": "R2"},
        {"t": 0.0, "type": "submit", "cluster": 1, "request": 2, "job": 0,
         "config": 0, "rep": 0, "scheme": "R2"},
        {"t": 5.0, "type": "start", "cluster": 1, "request": 2, "job": 0,
         "config": 0, "rep": 0, "scheme": "R2"},
        {"t": 5.0, "type": "cancel_sent", "cluster": 0, "request": 1,
         "job": 0, "config": 0, "rep": 1, "scheme": "R2"},
    ]

    def test_filter_by_type(self):
        got = list(filter_events(self.EVENTS, types=["submit"]))
        assert len(got) == 2

    def test_filter_by_cluster_and_time(self):
        got = list(filter_events(self.EVENTS, cluster=1, t_min=1.0))
        assert got == [self.EVENTS[2]]

    def test_filter_by_rep(self):
        got = list(filter_events(self.EVENTS, rep=1))
        assert got == [self.EVENTS[3]]

    def test_summary(self):
        s = summarize_trace(self.EVENTS)
        assert s["n_events"] == 4
        assert s["by_type"] == {"cancel_sent": 1, "start": 1, "submit": 2}
        assert s["n_jobs"] == 2  # (config 0, rep 0) and (config 0, rep 1)
        assert s["n_requests"] == 3
        assert s["t_first"] == 0.0 and s["t_last"] == 5.0


class TestRecordSweepDeterminism:
    def test_parallel_trace_byte_identical_to_serial(self, tmp_path):
        """The headline guarantee: --workers N never changes the bytes."""
        cfgs = [small_config(scheme="R2"), small_config(scheme="R3")]
        record_sweep(cfgs, 2, tmp_path / "serial", n_workers=1)
        record_sweep(cfgs, 2, tmp_path / "parallel", n_workers=2)
        serial = (tmp_path / "serial" / "trace.jsonl").read_bytes()
        parallel = (tmp_path / "parallel" / "trace.jsonl").read_bytes()
        assert serial == parallel

    def test_results_and_manifest(self, tmp_path):
        cfgs = [small_config(scheme="R2")]
        results, manifest = record_sweep(cfgs, 2, tmp_path)
        assert len(results) == 1 and len(results[0]) == 2
        assert (tmp_path / "trace.jsonl").exists()
        assert (tmp_path / "manifest.json").exists()
        assert manifest.n_replications == 2
        assert manifest.extra["n_trace_events"] > 0
        header, events = read_jsonl(
            tmp_path / "trace.jsonl", TRACE_KIND, TRACE_SCHEMA_VERSION
        )
        assert header["configs"][0]["scheme"] == "R2"
        assert len(events) == manifest.extra["n_trace_events"]

    def test_duplicate_configs_collapse(self, tmp_path):
        cfg = small_config(scheme="R2")
        results, manifest = record_sweep([cfg, cfg], 1, tmp_path)
        assert len(results) == 2
        assert results[0] == results[1]
        assert len(manifest.configs) == 1


class TestDeprecatedShimRemoved:
    def test_core_tracing_shim_is_gone(self):
        # the old ``repro.core.tracing`` rename shim has been deleted;
        # the old import path must fail loudly rather than silently
        # resurface
        import importlib
        import sys

        sys.modules.pop("repro.core.tracing", None)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.tracing")
