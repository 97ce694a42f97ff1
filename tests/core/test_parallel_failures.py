"""Failure-path tests for the sweep engine: crashes, retries, naming.

The runners handed to ``run_grid`` must be module-level (picklable) —
they travel to worker processes through the pool initializer.  Flag
files (rooted at ``REPRO_TEST_FLAG_DIR``) coordinate "fail exactly
once" behaviour across processes.
"""

import os
import pickle
from pathlib import Path

import pytest

from repro.core.cache import ResultCache
from repro.core.config import ExperimentConfig
from repro.core.experiment import run_single
from repro.core.orchestrator import TaskError
from repro.core.parallel import GridStats, resolve_workers, run_grid


def tiny(**kw):
    defaults = dict(
        n_clusters=4, nodes_per_cluster=16, duration=300.0,
        offered_load=2.0, drain=True, seed=8,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def _fail_rep1(config, replication):
    if replication == 1:
        raise ValueError("boom on rep 1")
    return run_single(config, replication)


def _transient_rep1(config, replication):
    flag = Path(os.environ["REPRO_TEST_FLAG_DIR"]) / f"rep{replication}"
    if replication == 1 and not flag.exists():
        flag.write_text("failed once")
        raise ValueError("transient failure")
    return run_single(config, replication)


def _crash_rep1(config, replication):
    if replication == 1:
        os._exit(13)  # simulate the worker process dying outright
    return run_single(config, replication)


def _crash_once_rep1(config, replication):
    flag = Path(os.environ["REPRO_TEST_FLAG_DIR"]) / "crashed"
    if replication == 1 and not flag.exists():
        flag.write_text("crashed once")
        os._exit(13)
    return run_single(config, replication)


@pytest.fixture
def flag_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TEST_FLAG_DIR", str(tmp_path))
    return tmp_path


class TestResolveWorkers:
    @pytest.mark.parametrize("value,expected", [
        (None, 1), ("", 1), ("  ", 1), ("4", 4), (4, 4), (" 2 ", 2),
    ])
    def test_accepted(self, value, expected):
        assert resolve_workers(value) == expected

    @pytest.mark.parametrize("value", ["0", 0, "-2", -2, "abc", "3.5"])
    def test_rejected(self, value):
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(value, source="REPRO_WORKERS")

    def test_error_names_the_source(self):
        with pytest.raises(ValueError, match="--workers"):
            resolve_workers("no", source="--workers")


class TestSerialFailures:
    def test_persistent_failure_names_the_task(self):
        stats = GridStats()
        with pytest.raises(TaskError, match="rep 1") as err:
            run_grid([tiny()], 2, runner=_fail_rep1, stats=stats)
        assert err.value.replication == 1
        assert err.value.description == tiny().describe()
        assert "ValueError" in err.value.cause
        assert stats.retries == 1
        assert stats.total_failures == 2  # first try + the retry

    def test_transient_failure_retried_once(self, flag_dir):
        stats = GridStats()
        [results] = run_grid(
            [tiny()], 3, runner=_transient_rep1, stats=stats
        )
        assert [r.replication for r in results] == [0, 1, 2]
        assert stats.retries == 1
        assert stats.total_failures == 1


class TestParallelFailures:
    def test_persistent_failure_names_the_task(self):
        stats = GridStats()
        with pytest.raises(TaskError, match="rep 1") as err:
            run_grid(
                [tiny()], 4, n_workers=2, chunksize=1,
                runner=_fail_rep1, stats=stats,
            )
        assert err.value.replication == 1
        assert stats.retries >= 1

    def test_transient_failure_recovers(self, flag_dir):
        stats = GridStats()
        [results] = run_grid(
            [tiny()], 4, n_workers=2, chunksize=1,
            runner=_transient_rep1, stats=stats,
        )
        assert [r.replication for r in results] == [0, 1, 2, 3]
        assert stats.retries == 1

    def test_worker_crash_names_a_suspect(self):
        stats = GridStats()
        with pytest.raises(TaskError, match="crashed") as err:
            run_grid(
                [tiny()], 4, n_workers=2, chunksize=1,
                runner=_crash_rep1, stats=stats,
            )
        assert "BrokenProcessPool" in err.value.cause
        assert err.value.description == tiny().describe()
        assert stats.retries == 1  # one fresh-pool attempt before giving up

    def test_worker_crash_recovers_on_fresh_pool(self, flag_dir):
        stats = GridStats()
        [results] = run_grid(
            [tiny()], 4, n_workers=2, chunksize=1,
            runner=_crash_once_rep1, stats=stats,
        )
        assert [r.replication for r in results] == [0, 1, 2, 3]
        assert stats.retries == 1


class TestTaskError:
    def test_survives_pickling(self):
        err = TaskError("cfg(x)", 3, "ValueError('nope')")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.description == "cfg(x)"
        assert clone.replication == 3
        assert clone.cause == "ValueError('nope')"
        assert "rep 3" in str(clone)


class TestGridStats:
    def test_as_dict_keys(self):
        stats = GridStats()
        stats.record_failure("cfg rep 0")
        stats.record_failure("cfg rep 0")
        stats.retries = 1
        assert stats.as_dict() == {
            "task_failures": {"cfg rep 0": 2},
            "task_retries": 1,
        }
        assert stats.total_failures == 2


class TestWarmProgress:
    def test_warm_rerun_reports_cache_resolution(self):
        cache = ResultCache(None)
        cold = []
        run_grid([tiny(), tiny(scheme="ALL")], 2, cache=cache,
                 progress=cold.append)
        assert len(cold) == 4, "cold runs keep the one-line-per-task contract"
        warm = []
        run_grid([tiny(), tiny(scheme="ALL")], 2, cache=cache,
                 progress=warm.append)
        assert len(warm) == 1
        assert "4/4" in warm[0] and "cache" in warm[0]
