"""Integration tests for the single-experiment driver."""

import pytest

from repro.core.config import ExperimentConfig
from repro.core.experiment import run_single


def small(**kw):
    defaults = dict(
        n_clusters=3, nodes_per_cluster=16, duration=300.0,
        offered_load=2.0, drain=True, scheme="R2", seed=5,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunSingle:
    def test_all_jobs_complete_with_drain(self):
        r = run_single(small(), 0, check_invariants=True)
        assert r.n_jobs == r.n_submitted_jobs
        assert r.completion_fraction == 1.0

    def test_truncation_excludes_incomplete(self):
        r = run_single(small(drain=False, offered_load=None), 0)
        assert r.n_jobs < r.n_submitted_jobs

    def test_deterministic(self):
        a = run_single(small(), 0)
        b = run_single(small(), 0)
        assert a.avg_stretch == b.avg_stretch
        assert [j.start_time for j in a.jobs] == [j.start_time for j in b.jobs]

    def test_replications_differ(self):
        a = run_single(small(), 0)
        b = run_single(small(), 1)
        assert a.avg_stretch != b.avg_stretch

    def test_common_random_numbers_across_schemes(self):
        """Workloads are identical across schemes for the same replication."""
        a = run_single(small(scheme="NONE"), 0)
        b = run_single(small(scheme="ALL"), 0)
        assert a.n_submitted_jobs == b.n_submitted_jobs
        ja = {j.job_id: (j.submit_time, j.nodes, j.runtime) for j in a.jobs}
        jb = {j.job_id: (j.submit_time, j.nodes, j.runtime) for j in b.jobs}
        common = set(ja) & set(jb)
        assert common
        assert all(ja[i] == jb[i] for i in common)

    def test_redundant_jobs_have_copies(self):
        r = run_single(small(scheme="R3"), 0)
        red = [j for j in r.jobs if j.uses_redundancy]
        assert red
        assert all(j.n_copies == 3 for j in red)

    def test_heterogeneous_platform(self):
        r = run_single(small(heterogeneous=True, scheme="HALF"), 0,
                       check_invariants=True)
        sizes = {c.total_nodes for c in r.clusters}
        assert sizes <= {16, 32, 64, 128, 256}
        assert r.n_jobs > 0

    @pytest.mark.parametrize("algorithm", ["fcfs", "easy", "cbf"])
    def test_all_algorithms_run(self, algorithm):
        r = run_single(small(algorithm=algorithm), 0, check_invariants=True)
        assert r.n_jobs > 0

    def test_cbf_produces_predictions(self):
        r = run_single(small(algorithm="cbf"), 0)
        assert all(j.predicted_wait_local is not None for j in r.jobs)
        assert all(j.predicted_wait_min is not None for j in r.jobs)
        # Min over copies can never exceed the local prediction.
        assert all(
            j.predicted_wait_min <= j.predicted_wait_local + 1e-9
            for j in r.jobs
        )

    def test_easy_produces_no_predictions(self):
        r = run_single(small(algorithm="easy"), 0)
        assert all(j.predicted_wait_local is None for j in r.jobs)

    def test_phi_estimates_pad_requests(self):
        r = run_single(small(estimates="phi"), 0)
        assert all(j.requested_time >= j.runtime for j in r.jobs)
        assert any(j.requested_time > j.runtime for j in r.jobs)

    def test_wall_time_recorded(self):
        r = run_single(small(), 0)
        assert r.wall_time_s > 0


class TestStreamCache:
    """Workload streams are generated once per replication of a grid."""

    CONFIGS = [
        ExperimentConfig(
            n_clusters=2, nodes_per_cluster=8, duration=120.0,
            offered_load=2.0, drain=True, scheme=scheme, seed=11,
        )
        for scheme in ("NONE", "R2", "ALL")
    ]

    @pytest.fixture
    def generations(self, monkeypatch):
        from repro.core import experiment

        calls = []
        original = experiment.generate_platform_streams

        def counted(*args, **kwargs):
            calls.append(args[1])  # the replication
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, "generate_platform_streams", counted)
        experiment._cached_streams.cache_clear()
        yield calls
        experiment._cached_streams.cache_clear()

    def test_three_configs_by_four_reps_generate_four_times(self, generations):
        from repro.core import experiment
        from repro.core.parallel import run_grid

        run_grid(self.CONFIGS, 4)
        assert sorted(generations) == [0, 1, 2, 3]
        info = experiment._cached_streams.cache_info()
        assert (info.hits, info.misses) == (8, 4)
        assert info.maxsize == experiment._STREAM_CACHE_SIZE

    def test_grid_runs_replication_major(self, generations, monkeypatch):
        """One cached replication is enough: every config of a
        replication runs before the next replication starts."""
        from functools import lru_cache

        from repro.core import experiment
        from repro.core.parallel import run_grid

        one_entry = lru_cache(maxsize=1)(experiment._cached_streams.__wrapped__)
        monkeypatch.setattr(experiment, "_cached_streams", one_entry)
        run_grid(self.CONFIGS, 4)
        assert generations == [0, 1, 2, 3]

    def test_profile_sweep_runs_replication_major(
        self, generations, monkeypatch
    ):
        from functools import lru_cache

        from repro.bench.profiling import profile_sweep
        from repro.core import experiment

        one_entry = lru_cache(maxsize=1)(experiment._cached_streams.__wrapped__)
        monkeypatch.setattr(experiment, "_cached_streams", one_entry)
        report = profile_sweep(self.CONFIGS[0], ["NONE", "R2", "ALL"], 4)
        assert report.n_simulations == 12
        assert generations == [0, 1, 2, 3]
