"""Tests for replication sweeps and paired comparisons."""

import pytest

from repro.core.config import ExperimentConfig
from repro.core.runner import compare_schemes, run_replications


def tiny(**kw):
    defaults = dict(
        n_clusters=3, nodes_per_cluster=16, duration=300.0,
        offered_load=2.0, drain=True, seed=8,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunReplications:
    def test_count_and_indices(self):
        rs = run_replications(tiny(), 3)
        assert [r.replication for r in rs] == [0, 1, 2]

    def test_first_replication_offset(self):
        rs = run_replications(tiny(), 2, first_replication=5)
        assert [r.replication for r in rs] == [5, 6]

    def test_zero_replications_rejected(self):
        with pytest.raises(ValueError):
            run_replications(tiny(), 0)

    def test_parallel_matches_serial(self):
        serial = run_replications(tiny(), 2, n_workers=1)
        parallel = run_replications(tiny(), 2, n_workers=2)
        assert [r.avg_stretch for r in serial] == [
            r.avg_stretch for r in parallel
        ]


class TestCompareSchemes:
    def test_structure(self):
        cmp_ = compare_schemes(tiny(), ["R2", "ALL"], 2)
        assert set(cmp_.per_scheme) == {"R2", "ALL"}
        assert len(cmp_.baseline) == 2
        rel = cmp_.relative("R2")
        assert rel.scheme == "R2"
        assert rel.n_replications == 2
        assert 0 < rel.avg_stretch < 10

    def test_baseline_is_none_scheme(self):
        cmp_ = compare_schemes(tiny(scheme="ALL"), ["R2"], 1)
        assert all(r.scheme == "NONE" for r in cmp_.baseline)

    def test_win_fraction_bounds(self):
        cmp_ = compare_schemes(tiny(), ["ALL"], 3)
        rel = cmp_.relative("ALL")
        assert 0.0 <= rel.win_fraction <= 1.0
        assert rel.worst_avg_stretch >= rel.avg_stretch - rel.avg_stretch_ratio_std * 3

    def test_progress_callback(self):
        messages = []
        compare_schemes(tiny(), ["R2"], 1, progress=messages.append)
        assert len(messages) == 2  # baseline + one scheme
        assert "NONE" in messages[0]


class TestDroppedRatios:
    """Degenerate baselines are counted, not silently skipped."""

    @staticmethod
    def _result(replication, jobs):
        from repro.core.results import ExperimentResult, JobOutcome

        outcomes = [
            JobOutcome(
                job_id=i, origin=0, winner_cluster=0, nodes=1,
                runtime=10.0, requested_time=10.0, submit_time=0.0,
                start_time=float(5 * i), end_time=float(5 * i) + 10.0,
                uses_redundancy=False, n_copies=1,
            )
            for i in range(jobs)
        ]
        return ExperimentResult(
            scheme="R2", algorithm="easy", n_clusters=1,
            replication=replication, jobs=outcomes,
        )

    def _comparison(self, baseline_jobs):
        from repro.core.runner import SchemeComparison

        cmp_ = SchemeComparison(
            base_config=tiny(), n_replications=2,
            baseline=[self._result(r, jobs) for r, jobs in
                      enumerate(baseline_jobs)],
        )
        cmp_.per_scheme["R2"] = [self._result(r, 3) for r in range(2)]
        return cmp_

    def test_clean_comparison_drops_nothing(self):
        rel = self._comparison([3, 3]).relative("R2")
        assert rel.dropped_ratios == 0

    def test_nan_baseline_counted_across_all_four_metrics(self, caplog):
        # Replication 1's baseline completed no jobs: all four paired
        # ratios for it are NaN and must be counted, with a warning.
        with caplog.at_level("WARNING", logger="repro.core.runner"):
            rel = self._comparison([3, 0]).relative("R2")
        assert rel.dropped_ratios == 4
        assert 0 < rel.avg_stretch  # the surviving replication still averages
        assert any("4 paired ratio(s)" in r.getMessage()
                   for r in caplog.records)
