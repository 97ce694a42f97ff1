"""Tests for the flattened parallel sweep engine."""

import dataclasses

import pytest

from repro.core.cache import ResultCache
from repro.core.config import ExperimentConfig
from repro.core.orchestrator import Heartbeat, default_chunksize, fmt_eta
from repro.core.parallel import SweepEngine, run_grid
from repro.core.runner import compare_schemes, paired_nonadopter_penalty


def tiny(**kw):
    defaults = dict(
        n_clusters=4, nodes_per_cluster=16, duration=300.0,
        offered_load=2.0, drain=True, seed=8,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def strip_wall(result):
    d = dataclasses.asdict(result)
    d.pop("wall_time_s")
    d.pop("phase_timings")
    return d


class TestRunGrid:
    def test_shape_and_replication_order(self):
        grids = run_grid([tiny(), tiny(scheme="R2")], 3)
        assert len(grids) == 2
        for per_config in grids:
            assert [r.replication for r in per_config] == [0, 1, 2]
        assert grids[1][0].scheme == "R2"

    def test_first_replication_offset(self):
        [results] = run_grid([tiny()], 2, first_replication=5)
        assert [r.replication for r in results] == [5, 6]

    def test_zero_replications_rejected(self):
        with pytest.raises(ValueError):
            run_grid([tiny()], 0)

    def test_empty_grid(self):
        assert run_grid([], 3) == []

    def test_duplicate_configs_simulated_once(self, monkeypatch):
        calls = []
        import repro.core.parallel as parallel

        real = parallel.run_single

        def counting(config, replication):
            calls.append((config.scheme, replication))
            return real(config, replication)

        monkeypatch.setattr(parallel, "run_single", counting)
        a, b, c = run_grid([tiny(), tiny(scheme="R2"), tiny()], 2)
        assert len(calls) == 4, "duplicate config must not be re-simulated"
        # Both duplicates see the same values nonetheless.
        assert [strip_wall(r) for r in a] == [strip_wall(r) for r in c]

    def test_shared_config_lists_are_independent(self):
        a, b = run_grid([tiny(), tiny()], 1)
        a.append("sentinel")
        assert len(b) == 1, "callers must not share list objects"

    def test_cache_fills_and_skips(self):
        cache = ResultCache(None)
        run_grid([tiny()], 2, cache=cache)
        assert cache.stats.stores == 2
        run_grid([tiny()], 2, cache=cache)
        assert cache.stats.hits == 2
        assert cache.stats.stores == 2, "warm run must not resimulate"

    def test_cached_equals_fresh(self):
        cache = ResultCache(None)
        [fresh] = run_grid([tiny()], 2, cache=cache)
        [cached] = run_grid([tiny()], 2, cache=cache)
        assert [strip_wall(r) for r in fresh] == [strip_wall(r) for r in cached]

    def test_progress_reports_every_task(self):
        messages = []
        run_grid([tiny(), tiny(scheme="ALL")], 2, progress=messages.append)
        assert len(messages) == 4
        assert any("ALL" in m for m in messages)


class TestHeartbeat:
    """The live per-chunk telemetry folded into progress lines."""

    def test_progress_lines_carry_online_stretch(self):
        messages = []
        run_grid([tiny(scheme="R2")], 2, progress=messages.append)
        # Every computed result feeds the running stretch estimate.
        assert all("stretch p50" in m and "p99" in m for m in messages)

    def test_warm_run_reports_cache_hit_rate(self):
        cache = ResultCache(None)
        run_grid([tiny()], 2, cache=cache)
        messages = []
        run_grid([tiny()], 2, cache=cache, progress=messages.append)
        assert len(messages) == 1
        assert "2/2" in messages[0] and "cache" in messages[0]

    def test_fmt_eta_ranges(self):
        assert fmt_eta(42.0) == "42s"
        assert fmt_eta(190.0) == "3m10s"
        assert fmt_eta(2 * 3600.0 + 5 * 60.0) == "2h05m"
        assert fmt_eta(-3.0) == "0s"

    def test_suffix_weights_stretch_by_count(self):
        def fake(count, p50, p99):
            class R:
                online_metrics = {
                    "metrics": {
                        "stretch": {
                            "count": count,
                            "quantiles": {"p50": p50, "p99": p99},
                        }
                    }
                }

            return R()

        hb = Heartbeat(total=4, cache_hits=0)
        hb.observe(fake(1, 1.0, 2.0), computed=True)
        hb.observe(fake(3, 5.0, 10.0), computed=True)
        suffix = hb.suffix()
        # (1*1 + 3*5)/4 = 4, (1*2 + 3*10)/4 = 8
        assert "stretch p50 4 p99 8" in suffix
        assert "eta" in suffix  # 2 of 4 done, rate is known

    def test_suffix_empty_without_signal(self):
        hb = Heartbeat(total=2, cache_hits=0)

        class Bare:
            pass

        hb.observe(Bare(), computed=True)
        suffix = hb.suffix()
        assert "stretch" not in suffix and "cache" not in suffix

    def test_eta_counts_only_computed_remaining(self, monkeypatch):
        """Regression: the ETA must scale the *simulation* rate by the
        simulations still outstanding, not by every remaining task.  On
        a warm run, 8 instant cache hits must not multiply into the
        projection."""
        from repro.core import orchestrator

        clock = {"t": 0.0}
        monkeypatch.setattr(
            orchestrator.time, "perf_counter", lambda: clock["t"]
        )
        hb = orchestrator.Heartbeat(total=10, pending=2)
        for _ in range(8):  # warm tasks resolve instantly from cache
            hb.observe(object(), computed=False)
        clock["t"] = 5.0  # one real simulation took 5s
        hb.observe(object(), computed=True)
        # One computation left: the ETA is one rate interval, 5s.
        assert hb.eta_seconds() == pytest.approx(5.0)
        clock["t"] = 9.0
        hb.observe(object(), computed=True)
        assert hb.eta_seconds() is None, "nothing left to compute"

    def test_fully_warm_run_has_no_eta(self):
        cache = ResultCache(None)
        run_grid([tiny()], 2, cache=cache)
        messages = []
        run_grid([tiny()], 2, cache=cache, progress=messages.append)
        assert "eta" not in messages[0]

    def test_observe_counts_cache_hits_dynamically(self):
        """Regression: mid-run cache hits (``computed=False``) must be
        folded into the hit-rate, not silently dropped."""
        hb = Heartbeat(total=4)
        hb.observe(object(), computed=False)
        hb.observe(object(), computed=True)
        assert hb.cache_hits == 1
        assert hb.done == 2
        assert "cache 50%" in hb.suffix()

    def test_observe_tolerates_nan_free_payload_shapes(self):
        """Regression: the online payload contract serialises undefined
        values as ``None`` at *any* level; none of these may raise."""
        shapes = [
            None,
            "not a dict",
            {},
            {"metrics": None},
            {"metrics": {"stretch": None}},
            {"metrics": {"stretch": {"count": 0}}},
            {"metrics": {"stretch": {"count": 2, "quantiles": None}}},
            {"metrics": {"stretch": {
                "count": 2, "quantiles": {"p50": None, "p99": 4.0},
            }}},
            {"metrics": {"stretch": {
                "count": 2,
                "quantiles": {"p50": float("nan"), "p99": float("nan")},
            }}},
        ]
        hb = Heartbeat(total=len(shapes), cache_hits=0)
        for payload in shapes:
            record = type("R", (), {"online_metrics": payload})()
            hb.observe(record, computed=True)
        assert hb.computed == len(shapes)
        assert "stretch" not in hb.suffix(), "no valid sample arrived"


class TestParallelDeterminism:
    def test_run_grid_parallel_bit_identical_to_serial(self):
        serial = run_grid([tiny(), tiny(scheme="R2")], 2, n_workers=1)
        parallel = run_grid([tiny(), tiny(scheme="R2")], 2, n_workers=2)
        for s_cfg, p_cfg in zip(serial, parallel):
            assert [strip_wall(r) for r in s_cfg] == [
                strip_wall(r) for r in p_cfg
            ]

    def test_compare_schemes_four_workers_matches_serial(self):
        """The ISSUE's determinism criterion: identical RelativeMetrics."""
        cfg = tiny()
        schemes = ["R2", "ALL"]
        serial = compare_schemes(cfg, schemes, 4, n_workers=1)
        parallel = compare_schemes(cfg, schemes, 4, n_workers=4)
        for scheme in schemes:
            assert serial.relative(scheme) == parallel.relative(scheme)

    def test_explicit_chunksize(self):
        serial = run_grid([tiny()], 3, n_workers=1)
        chunked = run_grid([tiny()], 3, n_workers=2, chunksize=1)
        assert [strip_wall(r) for r in serial[0]] == [
            strip_wall(r) for r in chunked[0]
        ]

    def test_parallel_with_cache(self):
        cache = ResultCache(None)
        first = run_grid([tiny()], 3, n_workers=2, cache=cache)
        again = run_grid([tiny()], 3, n_workers=2, cache=cache)
        assert cache.stats.hits == 3
        assert [strip_wall(r) for r in first[0]] == [
            strip_wall(r) for r in again[0]
        ]


class TestDefaultChunksize:
    def test_small_grids_chunk_to_one(self):
        assert default_chunksize(3, 4) == 1

    def test_large_grids_amortise(self):
        assert default_chunksize(96, 4) == 6

    def test_degenerate(self):
        assert default_chunksize(0, 4) == 1


class TestSweepEngine:
    def test_bound_defaults(self):
        cache = ResultCache(None)
        engine = SweepEngine(n_workers=1, cache=cache)
        engine.run_replications(tiny(), 2)
        assert cache.stats.stores == 2
        [results] = engine.run_grid([tiny()], 2)
        assert cache.stats.hits == 2
        assert [r.replication for r in results] == [0, 1]


class TestPairedPenaltyGrid:
    def test_penalty_runs_through_grid(self):
        penalty = paired_nonadopter_penalty(
            tiny(), "ALL", adoption=0.5, n_replications=2
        )
        assert penalty == penalty, "penalty must be finite for a live workload"

    def test_penalty_uses_cache(self):
        cache = ResultCache(None)
        a = paired_nonadopter_penalty(
            tiny(), "ALL", adoption=0.5, n_replications=2, cache=cache
        )
        stores = cache.stats.stores
        b = paired_nonadopter_penalty(
            tiny(), "ALL", adoption=0.5, n_replications=2, cache=cache
        )
        assert cache.stats.stores == stores, "warm rerun must not simulate"
        assert a == b
