"""Tests for the job model, canonical payloads and the job store."""

import dataclasses
import json
import threading

import numpy as np
import pytest

from repro.core.config import ExperimentConfig
from repro.core.experiment import run_single
from repro.service.jobs import (
    JobSpec,
    JobStore,
    canonical_grid_json,
    canonical_grid_payload,
    decode_chunk_results,
    encode_chunk_results,
)

from ..conftest import BAD_CONFIG_FIELDS, BAD_SPEC_FIELDS


def tiny(**kw):
    defaults = dict(
        n_clusters=2, nodes_per_cluster=8, duration=120.0,
        offered_load=2.0, drain=True, seed=8,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def spec(**kw):
    defaults = dict(configs=(tiny(),), n_replications=1)
    defaults.update(kw)
    return JobSpec(**defaults)


@pytest.fixture(scope="module")
def result():
    return run_single(tiny(), 0)


class TestCanonicalPayload:
    def test_strips_host_timing_fields(self, result):
        payload = canonical_grid_payload([[result]])
        row = payload["grid"][0][0]
        assert "wall_time_s" not in row
        assert "phase_timings" not in row
        kept = dataclasses.asdict(result)
        kept.pop("wall_time_s")
        kept.pop("phase_timings")
        assert set(row) == set(kept)

    def test_json_is_stable_across_wall_time(self, result):
        other = dataclasses.replace(result, wall_time_s=99.9)
        assert canonical_grid_json([[result]]) == canonical_grid_json(
            [[other]]
        )
        # ... and is valid single-line JSON.
        assert "\n" not in canonical_grid_json([[result]])
        json.loads(canonical_grid_json([[result]]))

    def test_numpy_bool_encodes_as_python_bool(self, result):
        job = result.jobs[0]
        jobs = list(result.jobs)
        jobs[0] = dataclasses.replace(job, uses_redundancy=np.bool_(True))
        numpy_bool = dataclasses.replace(result, jobs=jobs)
        jobs = list(result.jobs)
        jobs[0] = dataclasses.replace(job, uses_redundancy=True)
        plain_bool = dataclasses.replace(result, jobs=jobs)
        assert canonical_grid_json([[numpy_bool]]) == canonical_grid_json(
            [[plain_bool]]
        )


class TestChunkCodec:
    def test_roundtrip(self, result):
        wire = encode_chunk_results([(0, 3, result)])
        assert isinstance(wire, str)
        [(ci, rep, back)] = decode_chunk_results(wire)
        assert (ci, rep) == (0, 3)
        assert dataclasses.asdict(back) == dataclasses.asdict(result)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="undecodable"):
            decode_chunk_results("%%% not base64 %%%")

    def test_rejects_foreign_payload_shapes(self):
        import base64
        import pickle

        not_results = base64.b64encode(
            pickle.dumps([(0, 0, "just a string")])
        ).decode("ascii")
        with pytest.raises(ValueError, match="not ExperimentResult"):
            decode_chunk_results(not_results)


class TestJobSpec:
    def test_roundtrip_through_dict(self):
        original = spec(
            configs=(tiny(), tiny(scheme="R2")), n_replications=3,
            executor="workqueue", n_workers=2, chunksize=2,
            lease_ttl_s=5.0, max_attempts=2,
        )
        clone = JobSpec.from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        assert clone == original

    def test_rejects_unknown_fields(self):
        payload = spec().to_dict()
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            JobSpec.from_dict(payload)

    def test_rejects_empty_configs(self):
        with pytest.raises(ValueError, match="at least one config"):
            JobSpec(configs=(), n_replications=1)

    def test_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="unknown executor"):
            spec(executor="carrier-pigeon")

    def test_rejects_nonpositive_replications(self):
        with pytest.raises(ValueError, match="replication"):
            spec(n_replications=0)

    @pytest.mark.parametrize("field, value", BAD_SPEC_FIELDS)
    def test_rejects_malformed_field(self, field, value):
        payload = spec().to_dict()
        payload[field] = value
        with pytest.raises(ValueError, match=field):
            JobSpec.from_dict(payload)

    @pytest.mark.parametrize("field, value", [
        ("first_replication", 7),
        ("chunksize", None),
        ("chunksize", 4),
        ("lease_ttl_s", 5),
        ("lease_ttl_s", 0.25),
        ("max_attempts", 1),
    ])
    def test_accepts_well_formed_field(self, field, value):
        payload = spec().to_dict()
        payload[field] = value
        assert getattr(JobSpec.from_dict(payload), field) == value

    @pytest.mark.parametrize("field, value", BAD_CONFIG_FIELDS)
    def test_rejects_malformed_config_field(self, field, value):
        payload = spec().to_dict()
        payload["configs"][0][field] = value
        with pytest.raises(ValueError, match=f"bad config: {field}"):
            JobSpec.from_dict(payload)

    @pytest.mark.parametrize("payload, message", [
        ([1, 2], "JSON object"),
        ({"configs": [3], "n_replications": 1}, "bad config"),
        ({"configs": [{"n_clusters": "3"}], "n_replications": 1},
         "bad config"),
    ])
    def test_rejects_malformed_shapes(self, payload, message):
        with pytest.raises(ValueError, match=message):
            JobSpec.from_dict(payload)


class TestJobStore:
    def test_sequential_ids_and_spec_roundtrip(self, tmp_path):
        store = JobStore(tmp_path)
        first = store.create_job(spec())
        second = store.create_job(spec(n_replications=2))
        assert [first, second] == ["job-0001", "job-0002"]
        assert store.job_ids() == [first, second]
        assert store.spec(second).n_replications == 2

    def test_ids_continue_after_restart(self, tmp_path):
        JobStore(tmp_path).create_job(spec())
        assert JobStore(tmp_path).create_job(spec()) == "job-0002"

    def test_ids_come_from_one_directory_scan(self, tmp_path, monkeypatch):
        scans = []
        real = JobStore.job_ids

        def counting(self):
            scans.append(1)
            return real(self)

        monkeypatch.setattr(JobStore, "job_ids", counting)
        store = JobStore(tmp_path)
        ids = [store.create_job(spec()) for _ in range(50)]
        assert ids == [f"job-{n:04d}" for n in range(1, 51)]
        assert len(scans) <= 1

    def test_concurrent_submits_get_distinct_sequential_ids(self, tmp_path):
        store = JobStore(tmp_path)
        ids = []

        def submit():
            for _ in range(10):
                ids.append(store.create_job(spec()))

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert sorted(ids) == [f"job-{n:04d}" for n in range(1, 41)]

    def test_reopened_store_skips_out_of_band_directories(self, tmp_path):
        store = JobStore(tmp_path)
        assert store.create_job(spec()) == "job-0001"
        reopened = JobStore(tmp_path)
        assert reopened.create_job(spec()) == "job-0002"
        # Made behind both stores' backs, at the id they would use next.
        (tmp_path / "jobs" / "job-0003").mkdir()
        assert reopened.create_job(spec()) == "job-0004"
        assert store.create_job(spec()) == "job-0005"
        assert reopened.create_job(spec()) == "job-0006"

    def test_status_lifecycle(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.create_job(spec())
        assert store.read_status(job_id)["state"] == "pending"
        store.write_status(job_id, "done", total=4)
        status = store.read_status(job_id)
        assert status["state"] == "done"
        assert status["total"] == 4

    def test_unknown_state_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.create_job(spec())
        with pytest.raises(ValueError, match="unknown job state"):
            store.write_status(job_id, "confused")

    def test_missing_job_raises_key_error(self, tmp_path):
        with pytest.raises(KeyError):
            JobStore(tmp_path).read_status("job-9999")

    @pytest.mark.parametrize("bad", ["../oops", "job-1/../2", "nope"])
    def test_malformed_ids_rejected(self, tmp_path, bad):
        with pytest.raises(ValueError, match="malformed"):
            JobStore(tmp_path).job_dir(bad)

    def test_results_written_as_one_canonical_line(self, tmp_path, result):
        store = JobStore(tmp_path)
        job_id = store.create_job(spec())
        assert store.read_results(job_id) is None
        store.write_results(job_id, canonical_grid_payload([[result]]))
        raw = store.read_results(job_id)
        assert raw.endswith(b"\n") and raw.count(b"\n") == 1
        assert raw.decode() == canonical_grid_json([[result]]) + "\n"
