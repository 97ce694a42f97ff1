"""Tests for the deterministic probe sampler and probed sweeps.

The three guarantees under test, in order of importance:

1. *Strict no-op when disabled* — a run without probes/online stats
   produces a bit-identical trajectory;
2. *Trajectory invariance when enabled* — probes add observation events
   but never change any job outcome;
3. *Worker invariance* — a probed sweep's JSONL is byte-identical for
   any ``--workers``.
"""

import dataclasses
import math

import pytest

from repro.core.config import ExperimentConfig
from repro.core.experiment import run_single
from repro.obs.probes import (
    DEFAULT_PROBE_CADENCE,
    PROBE_KIND,
    PROBE_SCHEMA_VERSION,
    ProbeSampler,
    probe_series,
    record_probe_sweep,
    run_single_probed,
    summarize_probes,
)
from repro.obs.trace import read_jsonl


def small_config(**overrides):
    defaults = dict(
        scheme="R2", algorithm="easy", n_clusters=3, nodes_per_cluster=16,
        duration=300.0, drain=True, seed=42,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestDisabledIsStrictNoOp:
    def test_disabled_run_is_bit_identical(self):
        cfg = small_config()
        with_online = run_single(cfg, 0)
        without = run_single(cfg, 0, online=False)
        assert without.online_metrics is None
        assert with_online.online_metrics is not None
        assert [dataclasses.astuple(j) for j in with_online.jobs] == [
            dataclasses.astuple(j) for j in without.jobs
        ]
        assert with_online.clusters == without.clusters
        assert with_online.events_executed == without.events_executed
        assert with_online.wasted_node_seconds == without.wasted_node_seconds


class TestProbedTrajectoryInvariance:
    def test_probes_do_not_change_outcomes(self):
        """Probe events interleave but every job outcome is identical."""
        cfg = small_config()
        plain = run_single(cfg, 0)
        probed = run_single_probed(cfg, 0, cadence=25.0)
        assert [dataclasses.astuple(j) for j in plain.jobs] == [
            dataclasses.astuple(j) for j in probed.result.jobs
        ]
        assert plain.clusters == probed.result.clusters
        assert plain.online_metrics == probed.result.online_metrics
        # The one permitted difference: the probe ticks themselves.
        assert probed.result.events_executed > plain.events_executed

    def test_rows_cover_every_cluster_at_cadence(self):
        cfg = small_config(duration=100.0)
        probed = run_single_probed(cfg, 0, cadence=10.0)
        times = sorted({row[0] for row in probed.cluster_rows})
        # Samples start at t=0 and step by the cadence while events
        # remain; the drain tail may extend past the window.
        assert times[0] == 0.0
        steps = {round(b - a, 9) for a, b in zip(times, times[1:])}
        assert steps == {10.0}
        for t in times:
            clusters = [r[1] for r in probed.cluster_rows if r[0] == t]
            assert clusters == [0, 1, 2]

    def test_sampler_stops_when_queue_drains(self):
        """The self-rescheduling tick must not keep an empty sim alive."""
        cfg = small_config(duration=60.0)
        probed = run_single_probed(cfg, 0, cadence=5.0)
        last_tick = max(row[0] for row in probed.kernel_rows)
        # Finite: the sampler observed the drain finishing and stopped.
        assert math.isfinite(last_tick)
        assert probed.cadence == 5.0

    def test_kernel_rows_track_waste(self):
        cfg = small_config(
            scheme="ALL", cancellation_latency=60.0, duration=200.0
        )
        probed = run_single_probed(cfg, 0, cadence=20.0)
        final_wasted = probed.kernel_rows[-1][2]
        assert final_wasted == pytest.approx(
            probed.result.wasted_node_seconds, rel=1e-9, abs=1e-6
        )


class TestSeriesAndSummary:
    RECORDS = [
        {"t": 0.0, "config": 0, "rep": 0, "scheme": "R2", "cluster": 0,
         "queue_depth": 3, "busy_nodes": 8, "total_nodes": 16,
         "utilisation": 0.5},
        {"t": 0.0, "config": 0, "rep": 0, "scheme": "R2", "cluster": -1,
         "outstanding_duplicates": 1, "wasted_node_seconds": 0.0,
         "pending_events": 11, "events_executed": 4, "compactions": 0},
    ]

    def test_series_and_summary(self):
        series = probe_series(self.RECORDS, "queue_depth", cluster=0)
        assert series == [(0.0, 3.0)]
        assert probe_series(self.RECORDS, "outstanding_duplicates") == [
            (0.0, 1.0)
        ]
        summary = summarize_probes(self.RECORDS)
        assert summary["n_records"] == 2
        assert summary["by_cluster"][0]["max_queue_depth"] == 3


class TestRecordSweepDeterminism:
    def test_parallel_probes_byte_identical_to_serial(self, tmp_path):
        """The headline guarantee: --workers N never changes the bytes."""
        cfgs = [small_config(scheme="R2"), small_config(scheme="R3")]
        record_probe_sweep(cfgs, 2, tmp_path / "serial",
                           cadence=50.0, n_workers=1)
        record_probe_sweep(cfgs, 2, tmp_path / "parallel",
                           cadence=50.0, n_workers=2)
        serial = (tmp_path / "serial" / "probes.jsonl").read_bytes()
        parallel = (tmp_path / "parallel" / "probes.jsonl").read_bytes()
        assert serial == parallel

    def test_manifest_records_observability_provenance(self, tmp_path):
        from repro.obs.stream import (
            ONLINE_ESTIMATORS,
            ONLINE_SCHEMA_VERSION,
        )

        _, manifest = record_probe_sweep(
            [small_config()], 1, tmp_path, cadence=75.0
        )
        assert manifest.online_schema_version == ONLINE_SCHEMA_VERSION
        assert manifest.extra["probe_cadence"] == 75.0
        assert manifest.extra["probe_schema"] == PROBE_SCHEMA_VERSION
        assert manifest.extra["online_estimators"] == list(ONLINE_ESTIMATORS)
        assert manifest.extra["n_probe_records"] > 0
        header, records = read_jsonl(
            tmp_path / "probes.jsonl", PROBE_KIND, PROBE_SCHEMA_VERSION
        )
        assert header["cadence"] == 75.0
        assert len(records) == manifest.extra["n_probe_records"]

    def test_default_cadence_is_sane(self):
        assert 0.0 < DEFAULT_PROBE_CADENCE <= 300.0

    def test_sampler_requires_positive_cadence(self):
        with pytest.raises(ValueError):
            ProbeSampler(0.0)
        with pytest.raises(ValueError):
            ProbeSampler(-1.0)
