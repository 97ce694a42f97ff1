"""Per-run metric summaries: exactness against post-hoc arrays, merge laws.

The accuracy contract under test is the one documented in
:mod:`repro.obs.stream`: per-run quantiles are bit-identical to the
linear-interpolation quantile of the sorted post-hoc population, counts
match it exactly, and the sweep-level merge is exactly associative.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiment import run_single
from repro.obs.stream import (
    ONLINE_METRIC_NAMES,
    ONLINE_QUANTILES,
    ONLINE_SCHEMA_VERSION,
    MergedOnlineMetrics,
    OnlineMetrics,
    OnlineStat,
    WelfordAccumulator,
    _exact_quantile,
    merge_online_payloads,
    quantile_label,
)

_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestQuantileLabel:
    def test_canonical_labels(self):
        assert quantile_label(0.5) == "p50"
        assert quantile_label(0.9) == "p90"
        assert quantile_label(0.99) == "p99"
        assert quantile_label(0.999) == "p99_9"


class TestWelford:
    @settings(max_examples=200, deadline=None)
    @given(xs=st.lists(_floats, min_size=1, max_size=200))
    def test_matches_numpy(self, xs):
        arr = np.array(xs, dtype=float)
        acc = WelfordAccumulator.of(arr)
        assert acc.count == len(xs)
        assert acc.mean == float(arr.mean())
        assert acc.variance == pytest.approx(
            float(arr.var()), rel=1e-9, abs=1e-6
        )
        assert acc.minimum == float(arr.min())
        assert acc.maximum == float(arr.max())
        assert acc.total == float(arr.sum())

    @settings(max_examples=200, deadline=None)
    @given(
        xs=st.lists(_floats, min_size=0, max_size=100),
        ys=st.lists(_floats, min_size=0, max_size=100),
    )
    def test_merge_equals_sequential(self, xs, ys):
        """Chan's merge of two halves ≈ the summary of the concatenation."""
        left = WelfordAccumulator.of(np.array(xs, dtype=float))
        left.merge(WelfordAccumulator.of(np.array(ys, dtype=float)))
        seq = WelfordAccumulator.of(np.array(xs + ys, dtype=float))
        assert left.count == seq.count
        if seq.count:
            assert left.mean == pytest.approx(seq.mean, rel=1e-9, abs=1e-6)
            assert left.variance == pytest.approx(
                seq.variance, rel=1e-6, abs=1e-3
            )
            assert left.minimum == seq.minimum
            assert left.maximum == seq.maximum

    def test_empty_is_nan(self):
        acc = WelfordAccumulator.of(np.empty(0))
        assert math.isnan(acc.variance)
        assert math.isnan(acc.std)
        assert acc.count == 0 and acc.total == 0.0


class TestExactQuantile:
    def test_empty_is_nan(self):
        assert math.isnan(_exact_quantile([], 0.5))

    @settings(max_examples=200, deadline=None)
    @given(
        xs=st.lists(_floats, min_size=1, max_size=200),
        p=st.sampled_from(ONLINE_QUANTILES),
    )
    def test_matches_numpy_linear_quantile(self, xs, p):
        expected = float(np.quantile(np.array(xs, dtype=float), p))
        assert _exact_quantile(sorted(xs), p) == pytest.approx(
            expected, rel=1e-9, abs=1e-9
        )

    @settings(max_examples=100, deadline=None)
    @given(batches=st.lists(
        st.lists(_floats, min_size=0, max_size=40), min_size=1, max_size=4
    ))
    def test_batches_summarise_their_concatenation(self, batches):
        stat = OnlineStat()
        for batch in batches:
            stat.observe(np.array(batch, dtype=float))
        pooled = sorted(x for batch in batches for x in batch)
        quantiles = stat.summary()["quantiles"]
        for p in ONLINE_QUANTILES:
            expected = _exact_quantile(pooled, p) if pooled else None
            assert quantiles[quantile_label(p)] == expected


def _payload_from(values: list[float]) -> dict:
    arr = np.array(values, dtype=float)
    om = OnlineMetrics()
    om.observe_completion(waits=arr, stretches=arr, slowdowns=arr)
    om.observe_waste(np.abs(arr))
    return om.to_dict()


class TestOnlineMetrics:
    def test_payload_shape(self):
        payload = _payload_from([1.0, 2.0, 3.0])
        assert payload["schema"] == ONLINE_SCHEMA_VERSION
        assert tuple(payload["metrics"]) == ONLINE_METRIC_NAMES
        stretch = payload["metrics"]["stretch"]
        assert stretch["count"] == 3
        assert stretch["mean"] == pytest.approx(2.0)
        assert stretch["quantiles"]["p50"] == pytest.approx(2.0)

    def test_empty_serialises_none_not_nan(self):
        payload = OnlineMetrics().to_dict()
        stretch = payload["metrics"]["stretch"]
        assert stretch["count"] == 0
        assert stretch["mean"] is None
        assert stretch["min"] is None
        assert stretch["quantiles"]["p50"] is None
        # NaN would make this blow up; None round-trips.
        assert json.loads(json.dumps(payload, allow_nan=False)) == payload


class TestMergedOnlineMetrics:
    def test_rejects_wrong_schema(self):
        merged = MergedOnlineMetrics()
        with pytest.raises(ValueError, match="schema"):
            merged.add({"schema": ONLINE_SCHEMA_VERSION + 1, "metrics": {}})

    def test_none_parts_are_skipped(self):
        merged = MergedOnlineMetrics()
        merged.add(None)
        assert merged.n_runs == 0
        assert merged.summary() is None
        assert merge_online_payloads([None, None]) is None

    def test_count_and_total_sum_over_parts(self):
        merged = MergedOnlineMetrics()
        merged.add(_payload_from([1.0, 2.0]))
        merged.add(_payload_from([3.0]))
        assert merged.count("stretch") == 3
        assert merged.total("wasted_node_seconds") == pytest.approx(6.0)
        mean, var = merged.mean_variance("stretch")
        assert mean == pytest.approx(2.0)
        assert var == pytest.approx(np.var([1.0, 2.0, 3.0]))

    @settings(max_examples=100, deadline=None)
    @given(
        runs=st.lists(
            st.lists(_floats, min_size=0, max_size=40),
            min_size=3,
            max_size=6,
        ),
        split=st.integers(min_value=1, max_value=4),
    )
    def test_merge_is_exactly_associative(self, runs, split):
        """(a ⊕ b) ⊕ c and a ⊕ (b ⊕ c) are bit-identical.

        This is the property that lets sweep workers reduce partial
        grids in any grouping: the merged aggregate depends only on the
        final part order, never on the merge tree.
        """
        payloads = [_payload_from(r) for r in runs]
        split = min(split, len(payloads) - 1)

        def reduction(groups):
            accs = []
            for group in groups:
                acc = MergedOnlineMetrics()
                for p in group:
                    acc.add(p)
                accs.append(acc)
            out = accs[0]
            for acc in accs[1:]:
                out.merge(acc)
            return out

        left = reduction([payloads[:split], payloads[split:]])
        right = reduction([payloads[:1], payloads[1:]])
        flat = reduction([payloads])
        assert left.parts == right.parts == flat.parts
        # Bitwise equality of every derived aggregate, not approx.
        assert left.summary() == right.summary() == flat.summary()

    def test_quantile_is_count_weighted(self):
        merged = MergedOnlineMetrics()
        merged.add(_payload_from([1.0]))
        merged.add(_payload_from([4.0, 4.0, 4.0]))
        # (1*1 + 3*4) / 4
        assert merged.quantile("stretch", 0.5) == pytest.approx(13.0 / 4.0)

    def test_summary_is_strict_json(self):
        merged = MergedOnlineMetrics()
        merged.add(_payload_from([]))
        merged.add(_payload_from([1.0, 5.0]))
        summary = merged.summary()
        assert summary["n_runs"] == 2
        assert json.loads(json.dumps(summary, allow_nan=False)) == summary


def _run(**overrides):
    from repro.core.config import ExperimentConfig

    defaults = dict(
        scheme="R2", n_clusters=3, nodes_per_cluster=16,
        duration=900.0, offered_load=2.0, drain=True, seed=20060619,
    )
    defaults.update(overrides)
    return run_single(ExperimentConfig(**defaults))


class TestSmokeGridAccuracy:
    """Acceptance gate: per-run summaries vs the post-hoc arrays."""

    def test_online_stretch_quantiles_within_documented_bounds(self):
        """The documented bound is exactness, bit for bit."""
        result = _run()
        assert len(result.jobs) >= 50
        metrics = result.online_metrics["metrics"]
        for name, values in (("stretch", result.stretches()),
                             ("wait", result.waits())):
            online = metrics[name]
            assert online["count"] == len(values)
            pooled = sorted(values.tolist())
            for p in ONLINE_QUANTILES:
                assert online["quantiles"][quantile_label(p)] == (
                    _exact_quantile(pooled, p)
                ), (name, p)

    def test_online_moments_exactly_match_post_hoc(self):
        result = _run(scheme="HALF", n_clusters=2, duration=600.0,
                      offered_load=None, seed=7)
        stretches = result.stretches()
        online = result.online_metrics["metrics"]["stretch"]
        assert online["count"] == stretches.size
        assert online["mean"] == pytest.approx(
            float(stretches.mean()), rel=1e-9
        )
        assert online["max"] == float(stretches.max())
        waste = result.online_metrics["metrics"]["wasted_node_seconds"]
        assert waste["total"] == pytest.approx(
            result.wasted_node_seconds, rel=1e-9, abs=1e-9
        )


class TestWasteMatchesDuplicateStarts:
    """Waste is charged once per duplicate start, up to the horizon."""

    @staticmethod
    def _run_with_duplicates(monkeypatch, **overrides):
        """``run_single`` plus the coordinator it built."""
        from repro.core import experiment

        built = []
        real = experiment.Coordinator

        def capture(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(experiment, "Coordinator", capture)
        result = _run(**overrides)
        (coordinator,) = built
        return result, coordinator

    def _check(self, result, coordinator):
        duplicates = coordinator.duplicate_starts
        assert duplicates, "the scenario must produce duplicate starts"
        waste = result.online_metrics["metrics"]["wasted_node_seconds"]
        assert waste["count"] == len(duplicates)
        assert waste["total"] == pytest.approx(
            result.wasted_node_seconds, rel=1e-12
        )
        return duplicates

    def test_cancel_on_complete(self, monkeypatch):
        result, coordinator = self._run_with_duplicates(
            monkeypatch, scheme="ALL", cancellation_policy="cancel-on-complete",
        )
        duplicates = self._check(result, coordinator)
        assert all(r.end_time is not None for r in duplicates)

    def test_duplicates_cut_by_the_horizon(self, monkeypatch):
        result, coordinator = self._run_with_duplicates(
            monkeypatch, scheme="ALL", cancellation_latency=60.0,
            drain=False,
        )
        duplicates = self._check(result, coordinator)
        assert any(r.end_time is None for r in duplicates), (
            "the scenario must leave a duplicate running at the horizon"
        )


class TestEndOfRunPayload:
    def test_negative_wait_still_raises(self):
        from repro.core.experiment import _online_payload
        from repro.core.results import JobOutcome

        job = JobOutcome(
            job_id=0, origin=0, winner_cluster=0, nodes=1, runtime=10.0,
            requested_time=10.0, submit_time=100.0, start_time=95.0,
            end_time=105.0, uses_redundancy=False, n_copies=1,
        )
        with pytest.raises(ValueError, match="negative wait"):
            _online_payload([job], [], now=105.0)

    def test_estimators_run_once_per_run(self, monkeypatch):
        """One call of each, whatever the job count: no per-event work."""
        calls = {"observe_completion": 0, "observe_waste": 0}
        for name in calls:
            real = getattr(OnlineMetrics, name)

            def counted(self, *args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(OnlineMetrics, name, counted)
        result = _run(scheme="ALL", cancellation_latency=60.0)
        assert len(result.jobs) > 100
        assert result.online_metrics["metrics"]["wasted_node_seconds"]["count"]
        assert calls == {"observe_completion": 1, "observe_waste": 1}
