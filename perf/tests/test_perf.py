"""Self-test of the benchmark; outside tier-1's ``testpaths``.

    PYTHONPATH=src python -m pytest perf/tests -q

Each workload runs in-process with its size constants shrunk, once
traced and once untraced over the same units.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess

import pytest

from perf import ROOT, child_env
from perf import workloads as wl
from perf.__main__ import WORKLOAD_NAMES
from perf.agree import agree
from perf.child import run_workload
from perf.run import METRIC_UNITS, run, traced_layers
from perf.trace import LAYER_UNITS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Not the default seed (shrunk sizes have no golden digests), and one
# per workload: the two sweeps share workload streams, which the
# process-wide stream cache would otherwise hand the second one.
SEEDS = {"sweep-easy": 7, "sweep-cbf": 8, "served-sweep": 9,
         "service-churn": 10}
UNITS = 2

#: layer metric -> the workloads that must exercise it
EXERCISED = {
    "sim.push_calls": ("sweep-easy", "sweep-cbf", "served-sweep"),
    "sim.pop_calls": ("sweep-easy", "sweep-cbf", "served-sweep"),
    "sim.loop_self_s": ("sweep-easy", "sweep-cbf", "served-sweep"),
    "sched.submit_calls": ("sweep-easy", "sweep-cbf"),
    "sched.cancel_calls": ("sweep-easy", "sweep-cbf"),
    "sched.passes": ("sweep-easy", "sweep-cbf"),
    "sched.finish_us": ("sweep-easy", "sweep-cbf"),
    "profile.find_start_calls": ("sweep-cbf",),
    "profile.can_place_calls": ("sweep-cbf",),
    "profile.adjust_calls": ("sweep-cbf",),
    "coord.submit_job_calls": ("sweep-easy", "sweep-cbf"),
    "coord.cancel_fanout_us": ("sweep-easy", "sweep-cbf"),
    "online.observe_calls": ("sweep-easy", "sweep-cbf"),
    "workload.generate_calls": ("sweep-easy", "sweep-cbf"),
    "run.calls": ("sweep-easy", "sweep-cbf", "served-sweep"),
    "orch.prepare_ms": tuple(SEEDS),
    "orch.record_us": ("sweep-easy", "sweep-cbf", "served-sweep"),
    "cache.get_calls": ("served-sweep", "service-churn"),
    "cache.put_calls": ("served-sweep",),
    "cache.hit_ratio": ("served-sweep",),
    "cache.entry_kb": ("served-sweep",),
    "svc.handle_us.submit": ("served-sweep", "service-churn"),
    "svc.handle_us.status": ("served-sweep", "service-churn"),
    "svc.handle_us.cancel": ("service-churn",),
    "svc.handle_us.lease": ("served-sweep",),
    "svc.handle_us.complete": ("served-sweep",),
    "svc.transport_us": ("served-sweep", "service-churn"),
    "svc.status_polls_per_cycle": ("service-churn",),
    "svc.warm_job_ms": ("served-sweep",),
    "jobs.create_job_ms": ("served-sweep", "service-churn"),
    "jobs.write_status_ms": ("served-sweep", "service-churn"),
    "jobs.read_status_ms": ("served-sweep", "service-churn"),
    "chunk.encode_us": ("served-sweep",),
    "chunk.decode_us": ("served-sweep",),
    "worker.compute_ms": ("served-sweep",),
}


@pytest.fixture(scope="module")
def shrunk():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wl.SweepWorkload, "duration", 150.0)
        mp.setattr(wl.ServedSweep, "replications", 3)
        mp.setattr(wl.ServiceChurn, "background_jobs", 5)
        mp.setattr(wl.ServiceChurn, "warmup_cycles", 1)
        yield


@pytest.fixture(scope="module")
def runs(shrunk, tmp_path_factory):
    """Per workload: (untraced record, traced record, layer metrics)."""
    workdir = tmp_path_factory.mktemp("perf")
    out = {}
    for name, seed in SEEDS.items():
        # traced first: its set-up must not find the streams cached
        traced = run_workload(name, seed, workdir, units=UNITS, trace=True)
        untraced = run_workload(name, seed, workdir, units=UNITS)
        out[name] = (untraced, traced, traced_layers(untraced, traced))
    return out


def test_benchmark_json_lists_the_emitted_metrics():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == METRIC_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS
    names = sorted(w["name"] for w in SPEC["workloads"])
    assert names == sorted(SEEDS) == sorted(wl.WORKLOADS)
    assert names == sorted(WORKLOAD_NAMES)


def test_every_run_is_correct_and_reports_its_metrics(runs):
    for name, (untraced, traced, layers) in runs.items():
        assert untraced["failed"] == traced["failed"] == 0, name
        assert untraced["units"] == traced["units"] == UNITS
        assert set(untraced["metrics"]) == set(METRIC_UNITS) - {"setup_s"}
        assert all(v > 0 for v in untraced["metrics"].values()), name
        assert set(layers) == set(LAYER_UNITS)


def test_traced_run_has_the_untraced_trajectory(runs):
    for name, (untraced, traced, _) in runs.items():
        assert traced["trajectory_digest"] == untraced["trajectory_digest"]
        if name != "service-churn":
            assert untraced["trajectory_digest"] is not None, name


def test_each_layer_is_exercised_where_the_table_says(runs):
    for metric, workloads in EXERCISED.items():
        for name in workloads:
            assert runs[name][2][metric] > 0, (metric, name)
    easy = runs["sweep-easy"][2]
    assert all(easy[m] == 0 for m in LAYER_UNITS if m.startswith("profile."))


def test_self_times_add_up_to_the_wall_time_on_sweeps(runs):
    for name in ("sweep-easy", "sweep-cbf"):
        ratio = runs[name][1]["counts"]["self_sum_ratio"]
        assert ratio == pytest.approx(1.0, abs=0.05), name


def _undrained(run_single):
    def run(config, replication=0, **kwargs):
        result = run_single(config, replication, **kwargs)
        return dataclasses.replace(result, jobs=result.jobs[:-1])

    return run


def test_corrupted_output_counts_as_failed(shrunk, tmp_path, monkeypatch):
    import repro.core.parallel as parallel

    monkeypatch.setattr(parallel, "run_single",
                        _undrained(parallel.run_single))
    record = run_workload("sweep-easy", 11, tmp_path, units=1)
    assert record["failed"] == record["attempted"] > 0


def test_golden_mismatch_counts_as_failed(shrunk, tmp_path, monkeypatch):
    monkeypatch.setattr(wl, "golden_digests", lambda name: ["0" * 64])
    record = run_workload("sweep-easy", wl.DEFAULT_SEED, tmp_path, units=1)
    assert record["golden_units_checked"] == 1
    assert record["failed"] == record["attempted"] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_run_prints_the_contract_line(tmp_path, capsys, trace):
    # in-process with a short run: the command fixes the run length
    assert run(["sweep-easy"], 3, 0.2, trace, tmp_path) == 0
    out = capsys.readouterr().out
    line = json.loads(out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in names}


def test_command_refuses_another_run_length(tmp_path):
    cmd = SPEC["command"] + ["--workload", "sweep-easy", "--seconds", "0.2",
                             "--out", str(tmp_path)]
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout.strip() == ""


def test_agree_refuses_sets_of_different_run_lengths(tmp_path, capsys):
    for name, seconds in (("A", 15), ("B", 10)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "r.json").write_text(json.dumps(
            {"workload": "sweep-easy", "seconds": seconds}))
    assert agree(tmp_path / "A", tmp_path / "B") == 2
    assert "run length" in capsys.readouterr().out


def test_command_fails_without_the_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    shutil.copytree(ROOT / "perf", tmp_path / "perf")
    env = {k: v for k, v in child_env().items() if k != "PYTHONPATH"}
    done = subprocess.run(SPEC["command"] + ["--workload", "sweep-easy"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
