"""Tests for schedule-quality metrics."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import (
    MetricSummary,
    RatioSummary,
    bounded_slowdown,
    bounded_slowdowns,
    mean_of_ratios,
    relative,
    stretch,
    stretches,
    summarize_ratios,
)


class TestStretch:
    def test_basic(self):
        assert stretch(40.0, 10.0) == 4.0

    def test_zero_wait_is_one(self):
        assert stretch(10.0, 10.0) == 1.0

    def test_float_rounding_clamped_to_one(self):
        rt = 4.224930832079049
        ta = 4.224930832079046  # a few ulps below (event arithmetic)
        assert stretch(ta, rt) == 1.0

    def test_clearly_negative_wait_rejected(self):
        with pytest.raises(ValueError):
            stretch(5.0, 10.0)

    def test_nonpositive_runtime_rejected(self):
        with pytest.raises(ValueError):
            stretch(10.0, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        wait=st.floats(min_value=0.0, max_value=1e6),
        runtime=st.floats(min_value=1e-3, max_value=1e6),
    )
    def test_property_at_least_one(self, wait, runtime):
        assert stretch(wait + runtime, runtime) >= 1.0


class TestBoundedSlowdown:
    def test_floors_short_runtimes(self):
        # A 1-second job waiting 99s: raw stretch 100, bounded 10.
        assert stretch(100.0, 1.0) == 100.0
        assert bounded_slowdown(100.0, 1.0) == 10.0

    def test_matches_stretch_for_long_jobs(self):
        assert bounded_slowdown(40.0, 20.0) == stretch(40.0, 20.0)

    def test_never_below_one(self):
        assert bounded_slowdown(0.5, 1.0) == 1.0

    def test_custom_tau(self):
        assert bounded_slowdown(100.0, 1.0, tau=50.0) == 2.0


_runtimes = st.floats(min_value=1e-3, max_value=1e6)


class TestArrayForms:
    """``stretches``/``bounded_slowdowns`` against the scalar reference."""

    @settings(max_examples=100, deadline=None)
    @given(jobs=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1e6), _runtimes),
        max_size=50,
    ))
    def test_bit_identical_to_scalar(self, jobs):
        turnaround = np.array([w + r for w, r in jobs], dtype=float)
        runtime = np.array([r for _, r in jobs], dtype=float)
        assert stretches(turnaround, runtime).tolist() == [
            stretch(t, r) for t, r in zip(turnaround, runtime)
        ]
        assert bounded_slowdowns(turnaround, runtime).tolist() == [
            bounded_slowdown(t, r) for t, r in zip(turnaround, runtime)
        ]

    def test_rounding_clamped_negative_wait_rejected(self):
        rt = np.array([4.224930832079049, 10.0])
        assert stretches(np.array([4.224930832079046, 10.0]), rt).tolist() == [
            1.0, 1.0,
        ]
        with pytest.raises(ValueError, match="negative wait"):
            stretches(np.array([10.0, 5.0]), np.array([5.0, 10.0]))

    @pytest.mark.parametrize("fn", [stretches, bounded_slowdowns])
    def test_nonpositive_runtime_rejected(self, fn):
        with pytest.raises(ValueError, match="runtime must be positive"):
            fn(np.array([10.0, 10.0]), np.array([5.0, 0.0]))


class TestMetricSummary:
    def test_of_values(self):
        s = MetricSummary.of([1.0, 2.0, 3.0])
        assert s.count == 3
        assert s.mean == 2.0
        assert s.maximum == 3.0
        assert s.std == pytest.approx(np.std([1, 2, 3]))

    def test_cv_percent(self):
        s = MetricSummary.of([2.0, 2.0, 2.0])
        assert s.cv_percent == 0.0
        s2 = MetricSummary.of([1.0, 3.0])
        assert s2.cv_percent == pytest.approx(50.0)

    def test_empty(self):
        s = MetricSummary.of([])
        assert s.count == 0
        assert math.isnan(s.mean)
        assert math.isnan(s.cv_percent)


class TestRelative:
    def test_ratio(self):
        assert relative(0.8, 1.0) == 0.8

    def test_zero_baseline_is_nan(self):
        assert math.isnan(relative(1.0, 0.0))

    def test_mean_of_ratios_is_paired(self):
        """Mean of per-experiment ratios, not ratio of means — they differ."""
        pairs = [(1.0, 2.0), (9.0, 3.0)]
        assert mean_of_ratios(pairs) == pytest.approx((0.5 + 3.0) / 2)
        ratio_of_means = (1.0 + 9.0) / (2.0 + 3.0)
        assert mean_of_ratios(pairs) != ratio_of_means

    def test_mean_of_ratios_skips_nan(self):
        pairs = [(1.0, 0.0), (2.0, 4.0)]
        assert mean_of_ratios(pairs) == 0.5

    def test_mean_of_ratios_all_bad(self):
        assert math.isnan(mean_of_ratios([(1.0, 0.0)]))


class TestSummarizeRatios:
    def test_counts_used_and_dropped(self):
        s = summarize_ratios([(1.0, 2.0), (3.0, 0.0), (float("nan"), 1.0)])
        assert isinstance(s, RatioSummary)
        assert s.mean == pytest.approx(0.5)
        assert s.used == 1
        assert s.dropped == 2

    def test_nothing_dropped_on_clean_pairs(self):
        s = summarize_ratios([(1.0, 2.0), (4.0, 2.0)])
        assert s.dropped == 0
        assert s.used == 2
        assert s.mean == pytest.approx(1.25)

    def test_all_dropped_is_nan_not_crash(self):
        s = summarize_ratios([(1.0, 0.0)])
        assert math.isnan(s.mean)
        assert (s.used, s.dropped) == (0, 1)

    def test_empty(self):
        s = summarize_ratios([])
        assert math.isnan(s.mean)
        assert (s.used, s.dropped) == (0, 0)

    def test_mean_matches_mean_of_ratios(self):
        pairs = [(1.0, 2.0), (9.0, 3.0), (2.0, 0.0)]
        assert summarize_ratios(pairs).mean == mean_of_ratios(pairs)

    def test_mean_of_ratios_warns_when_dropping(self, caplog, monkeypatch):
        # setup_logging() (run by any earlier CLI-driven test) stops
        # propagation at the "repro" logger; restore it so caplog's
        # root handler sees the record regardless of test order.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        with caplog.at_level("WARNING", logger="repro.core.metrics"):
            mean_of_ratios([(1.0, 0.0), (2.0, 4.0)])
        assert any("dropped 1 of 2" in r.getMessage() for r in caplog.records)

    def test_mean_of_ratios_silent_when_clean(self, caplog, monkeypatch):
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        with caplog.at_level("WARNING", logger="repro.core.metrics"):
            mean_of_ratios([(2.0, 4.0)])
        assert not caplog.records
