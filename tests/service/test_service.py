"""End-to-end sweep-service tests over real loopback HTTP.

Each test stands up a :class:`SweepService` on a free port, drives it
with the real :class:`ServiceClient`/:class:`QueueWorker`, and holds
the tentpole acceptance bar: results fetched from the service are
byte-identical to an in-process ``run_grid`` of the same configs, and
a restarted server resumes incomplete jobs from the shared disk cache
instead of recomputing finished work.
"""

import json
import statistics
import sys
import threading
import time

import pytest

from repro.core.cache import ResultCache
from repro.core.config import ExperimentConfig
from repro.core.orchestrator import Orchestrator
from repro.core.executors import InProcessExecutor
from repro.core.parallel import run_grid
from repro.core.results import ExperimentResult
from repro.obs.manifest import RunJournal
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import HttpRequest
from repro.service.jobs import (
    JobSpec,
    JobStore,
    canonical_grid_json,
    encode_chunk_results,
)
from repro.service.server import SweepService
from repro.service.worker import QueueWorker

from ..conftest import BAD_CONFIG_FIELDS, BAD_SPEC_FIELDS


def tiny(**kw):
    defaults = dict(
        n_clusters=2, nodes_per_cluster=8, duration=120.0,
        offered_load=2.0, drain=True, seed=8,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def spec(**kw):
    defaults = dict(configs=(tiny(), tiny(scheme="R2")), n_replications=2)
    defaults.update(kw)
    return JobSpec(**defaults)


def reference_json(job_spec):
    grids = run_grid(
        list(job_spec.configs),
        job_spec.n_replications,
        first_replication=job_spec.first_replication,
    )
    return (canonical_grid_json(grids) + "\n").encode("utf-8")


@pytest.fixture
def service(tmp_path):
    svc = SweepService(tmp_path / "state", port=0)
    port = svc.start()
    client = ServiceClient(f"http://127.0.0.1:{port}")
    try:
        yield svc, client
    finally:
        svc.wait_idle(timeout=30.0)
        svc.stop()


def journal_events(svc, job_id):
    journal = RunJournal(svc.store.job_dir(job_id) / "journal.jsonl")
    return [e["event"] for e in journal.entries()]


#: journal event names of work-queue jobs, as recorded while each job
#: still ran on a thread of its own
QUEUE_DONE_4_CHUNKS = ["prepared", "execute"] + ["chunk_done"] * 4 + ["done"]
QUEUE_CANCELLED = ["prepared", "execute", "cancelled"]
QUEUE_FAILED = ["prepared", "execute", "failed"]


def run_worker(client_url, **kw):
    worker = QueueWorker(client_url, poll_interval_s=0.05)
    kw.setdefault("max_idle_polls", 100)
    thread = threading.Thread(
        target=worker.run, kwargs=kw, daemon=True,
    )
    thread.start()
    return worker, thread


class TestJobLifecycle:
    def test_health(self, service):
        _, client = service
        assert client.health()["ok"] is True

    def test_inprocess_job_end_to_end(self, service):
        svc, client = service
        job_spec = spec()
        job_id = client.submit(job_spec.to_dict())
        assert job_id == "job-0001"
        status = client.wait(job_id, timeout=120.0)
        assert status["state"] == "done"
        assert client.results_bytes(job_id) == reference_json(job_spec)
        # The manifest and journal landed next to the results.
        jdir = svc.store.job_dir(job_id)
        assert (jdir / "manifest.json").is_file()
        events = journal_events(svc, job_id)
        assert events[0] == "prepared" and events[-1] == "done"

    def test_results_time_is_journalled_and_in_the_manifest(self, service):
        """``results_s`` (building + writing results.json, which
        ``wall_time_s`` excludes) lands in the ``done`` record and the
        manifest."""
        svc, client = service
        job_id = client.submit(spec().to_dict())
        assert client.wait(job_id, timeout=120.0)["state"] == "done"
        jdir = svc.store.job_dir(job_id)
        done = list(RunJournal(jdir / "journal.jsonl").entries())[-1]
        manifest = json.loads((jdir / "manifest.json").read_text())
        assert done["event"] == "done"
        assert done["results_s"] == manifest["extra"]["results_s"]
        assert done["results_s"] > 0.0

    def test_workqueue_job_with_http_worker(self, service):
        svc, client = service
        job_spec = spec(executor="workqueue", chunksize=1, lease_ttl_s=30.0)
        job_id = client.submit(job_spec.to_dict())
        url = f"http://127.0.0.1:{svc.port}"
        _, thread = run_worker(url)
        status = client.wait(job_id, timeout=120.0)
        thread.join(timeout=30.0)
        assert status["state"] == "done"
        assert client.results_bytes(job_id) == reference_json(job_spec)
        assert journal_events(svc, job_id) == QUEUE_DONE_4_CHUNKS

    def test_second_submission_is_fully_cached(self, service):
        """Jobs share the state dir's disk cache: a repeat submission
        completes without recomputing anything."""
        svc, client = service
        job_spec = spec()
        client.wait(client.submit(job_spec.to_dict()), timeout=120.0)
        hits_before = svc.store.cache().stats.hits
        repeat = client.submit(job_spec.to_dict())
        assert client.wait(repeat, timeout=120.0)["state"] == "done"
        assert svc.store.cache().stats.hits >= hits_before + 4
        assert client.results_bytes(repeat) == reference_json(job_spec)

    def test_bad_spec_is_client_error(self, service):
        _, client = service
        with pytest.raises(ServiceError) as err:
            client.submit({"configs": [], "n_replications": 1})
        assert err.value.status == 400

    @pytest.mark.parametrize("field, value", BAD_SPEC_FIELDS)
    def test_malformed_field_is_400_and_creates_no_job(
        self, service, field, value
    ):
        svc, client = service
        payload = spec().to_dict()
        payload[field] = value
        with pytest.raises(ServiceError) as err:
            client.submit(payload)
        assert err.value.status == 400
        assert field in err.value.message
        assert svc.store.job_ids() == []

    @pytest.mark.parametrize("field, value", BAD_CONFIG_FIELDS)
    def test_malformed_config_field_is_400_and_creates_no_job(
        self, service, field, value
    ):
        svc, client = service
        payload = spec().to_dict()
        payload["configs"][0][field] = value
        with pytest.raises(ServiceError) as err:
            client.submit(payload)
        assert err.value.status == 400
        assert field in err.value.message
        assert svc.store.job_ids() == []

    def test_unknown_job_is_404(self, service):
        _, client = service
        with pytest.raises(ServiceError) as err:
            client.status("job-4242")
        assert err.value.status == 404

    def test_cancel_workqueue_job_without_workers(self, service):
        svc, client = service
        job_id = client.submit(
            spec(executor="workqueue", lease_ttl_s=60.0).to_dict()
        )
        # No workers exist, so the job parks on the queue until cancel.
        client.cancel(job_id)
        status = client.wait(job_id, timeout=60.0)
        assert status["state"] == "cancelled"
        with pytest.raises(ServiceError) as err:
            client.results_bytes(job_id)
        assert err.value.status == 404
        assert journal_events(svc, job_id) == QUEUE_CANCELLED

    def test_cancel_before_the_job_thread_builds_its_orchestrator(
        self, service, monkeypatch
    ):
        """A cancel that wins the race with job start still ends the job."""
        import repro.service.server as server

        svc, client = service
        before = client.health()["jobs_running"]
        cancel_sent = threading.Event()
        real = server.Orchestrator

        def after_cancel(*args, **kwargs):
            cancel_sent.wait(timeout=30.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(server, "Orchestrator", after_cancel)
        job_id = client.submit(
            spec(executor="workqueue", lease_ttl_s=60.0).to_dict()
        )
        client.cancel(job_id)
        cancel_sent.set()
        assert svc.wait_idle(timeout=30.0), "job thread never stopped"
        assert client.wait(job_id, timeout=30.0)["state"] == "cancelled"
        assert client.health()["jobs_running"] == before


class TestResume:
    def test_restart_resumes_pending_job(self, tmp_path):
        """A job created by a server that died before executing it is
        picked up and completed by the next server over the state dir."""
        state = tmp_path / "state"
        job_spec = spec()
        dead_store = JobStore(state)
        job_id = dead_store.create_job(job_spec)  # persisted, never run

        svc = SweepService(state, port=0)
        try:
            assert svc.start() > 0
            client = ServiceClient(f"http://127.0.0.1:{svc.port}")
            status = client.wait(job_id, timeout=120.0)
            assert status["state"] == "done"
            assert client.results_bytes(job_id) == reference_json(job_spec)
        finally:
            svc.wait_idle(timeout=30.0)
            svc.stop()

    def test_torn_job_directory_does_not_block_startup(self, tmp_path):
        """A crash between create_job's mkdir and its spec write leaves
        a job directory without spec.json: startup skips it, and its id
        is never handed out again."""
        state = tmp_path / "state"
        (state / "jobs" / "job-0001").mkdir(parents=True)
        svc = SweepService(state, port=0)
        try:
            assert svc.resume_incomplete() == []
            assert svc.submit(spec()) == "job-0002"
        finally:
            svc.wait_idle(timeout=60.0)
            svc.stop()

    def test_invalid_stored_spec_does_not_block_startup(self, tmp_path):
        """A pending job whose spec.json no longer validates is skipped
        at startup instead of crashing it."""
        state = tmp_path / "state"
        store = JobStore(state)
        job_id = store.create_job(spec())
        payload = spec().to_dict()
        payload["chunksize"] = 0
        (store.job_dir(job_id) / "spec.json").write_text(json.dumps(payload))
        svc = SweepService(state, port=0)
        try:
            assert svc.resume_incomplete() == []
        finally:
            svc.stop()

    def test_restart_reuses_partial_progress(self, tmp_path):
        """Work completed before the 'crash' resolves from the shared
        disk cache — the resumed job only computes what is missing."""
        state = tmp_path / "state"
        job_spec = spec()

        # Simulate a first server that computed half the grid (one
        # config, both reps) before being killed: its completions are
        # in the shared cache, the job's status is still "running".
        half = Orchestrator(
            [job_spec.configs[0]], 2, cache=ResultCache(state / "cache"),
        )
        half.execute(InProcessExecutor())
        dead_store = JobStore(state)
        job_id = dead_store.create_job(job_spec)
        dead_store.write_status(job_id, "running", executor="inprocess")

        svc = SweepService(state, port=0)
        try:
            svc.start()  # resume_incomplete() re-launches the job
            client = ServiceClient(f"http://127.0.0.1:{svc.port}")
            status = client.wait(job_id, timeout=120.0)
            assert status["state"] == "done"
            assert client.results_bytes(job_id) == reference_json(job_spec)
            journal = RunJournal(
                svc.store.job_dir(job_id) / "journal.jsonl"
            )
            prepared = [
                e for e in journal.entries() if e["event"] == "prepared"
            ][-1]
            assert prepared["from_cache"] == 2, (
                "the crashed server's completed tasks were not recomputed"
            )
            assert prepared["pending"] == 2
        finally:
            svc.wait_idle(timeout=30.0)
            svc.stop()

    def test_dead_worker_lease_expires_and_job_completes(self, tmp_path):
        """A worker that leases a chunk and dies does not wedge the job:
        the lease expires and another worker recomputes the chunk."""
        state = tmp_path / "state"
        svc = SweepService(state, port=0)
        try:
            svc.start()
            url = f"http://127.0.0.1:{svc.port}"
            client = ServiceClient(url)
            job_spec = spec(
                configs=(tiny(),), n_replications=2,
                executor="workqueue", chunksize=1,
                lease_ttl_s=1.0, max_attempts=5,
            )
            job_id = client.submit(job_spec.to_dict())

            # The "dead" worker: leases one chunk, then vanishes
            # without heartbeat, completion or failure report.
            dead = ServiceClient(url)
            granted = None
            while granted is None:
                granted = dead.lease("doomed-worker")
            assert granted["lease"]["attempt"] == 1

            # A live worker drains everything the dead one abandoned.
            _, thread = run_worker(url, max_idle_polls=200)
            status = client.wait(job_id, timeout=120.0)
            thread.join(timeout=30.0)
            assert status["state"] == "done"
            assert client.results_bytes(job_id) == reference_json(job_spec)
        finally:
            svc.wait_idle(timeout=30.0)
            svc.stop()


def route(svc, method, path, payload=None):
    """Call a route in-process, without a socket; the JSON reply."""
    body = json.dumps(payload).encode("utf-8") if payload is not None else b""
    response = svc.handle(HttpRequest(method, path, {}, body))
    assert response.status == 200, response.body
    return json.loads(response.body)


def fake_result(replication):
    return ExperimentResult(
        scheme="NONE", algorithm="easy", n_clusters=2,
        replication=replication,
    )


def deliver(svc, granted):
    """Complete a granted lease with fake results for its tasks."""
    lease = granted["lease"]
    results = [(ci, rep, fake_result(rep)) for ci, rep in lease["tasks"]]
    return route(svc, "POST", "/v1/queue/complete", {
        "job_id": granted["job_id"],
        "chunk_id": lease["chunk_id"],
        "token": lease["token"],
        "results": encode_chunk_results(results),
    })


@pytest.fixture
def parked(tmp_path):
    """A service that is never bound to a socket: routes are called
    in-process, so the only thread it adds is its step thread."""
    svc = SweepService(tmp_path / "state", port=0)
    try:
        yield svc
    finally:
        svc.stop()


def park(svc, **kw):
    """Submit a work-queue job and wait until its queue is open."""
    kw.setdefault("configs", (tiny(),))
    kw.setdefault("n_replications", 1)
    job_id = svc.submit(spec(executor="workqueue", chunksize=1, **kw))
    deadline = time.monotonic() + 30.0
    while "queue" not in route(svc, "GET", f"/v1/jobs/{job_id}"):
        assert time.monotonic() < deadline, "the start step never ran"
        time.sleep(0.005)
    return job_id


def wait_retired(svc, job_id, timeout):
    """Seconds until ``job_id`` leaves ``_running`` (fails on timeout)."""
    t0 = time.monotonic()
    while job_id in svc._running:
        assert time.monotonic() - t0 < timeout, "the job never ended"
        time.sleep(0.001)
    return time.monotonic() - t0


class TestParkedJobs:
    """Work-queue jobs hold no thread: one step thread serves them all."""

    def test_parked_jobs_hold_no_thread(self, parked):
        before = threading.active_count()
        for k in range(50):
            park(parked, first_replication=k)
        assert threading.active_count() - before <= 2

    def test_stop_ends_the_step_thread(self, parked):
        before = set(threading.enumerate())
        park(parked)
        steps = [
            t for t in set(threading.enumerate()) - before
            if t.name.startswith("repro-steps")
        ]
        assert len(steps) == 1
        parked.stop()
        steps[0].join(timeout=10.0)
        assert not steps[0].is_alive()

    def test_completion_is_recorded_promptly(self, parked):
        job_id = park(parked, n_replications=5)
        orchestrator = parked._running[job_id].orchestrator
        recorded = threading.Event()
        real = orchestrator.record

        def record(*args, **kwargs):
            recorded.set()  # reached: the cache and journal writes follow
            real(*args, **kwargs)

        orchestrator.record = record
        latencies = []
        for _ in range(5):
            granted = route(parked, "POST", "/v1/queue/lease", {})
            recorded.clear()
            t0 = time.monotonic()
            deliver(parked, granted)
            assert recorded.wait(timeout=10.0)
            latencies.append(time.monotonic() - t0)
        wait_retired(parked, job_id, timeout=10.0)
        status = route(parked, "GET", f"/v1/jobs/{job_id}")
        assert status["state"] == "done"
        assert statistics.median(latencies) < 0.01, latencies

    def test_cancel_ends_a_parked_job_promptly(self, parked):
        job_id = park(parked)
        route(parked, "POST", f"/v1/jobs/{job_id}/cancel")
        assert wait_retired(parked, job_id, timeout=10.0) < 1.0
        status = route(parked, "GET", f"/v1/jobs/{job_id}")
        assert status["state"] == "cancelled"
        assert journal_events(parked, job_id) == QUEUE_CANCELLED

    def test_many_workers_finish_the_job(self, parked):
        """No completion is left unsettled when eight workers race;
        a short switch interval makes the interleavings likely."""
        job_id = park(parked, n_replications=200)
        queue = parked._running[job_id].queue

        def worker():
            while queue.outstanding():
                granted = route(parked, "POST", "/v1/queue/lease", {})
                if granted["lease"] is not None:
                    deliver(parked, granted)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=worker, daemon=True)
                for _ in range(8)
            ]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        wait_retired(parked, job_id, timeout=30.0)
        assert route(parked, "GET", f"/v1/jobs/{job_id}")["state"] == "done"
        [rows] = json.loads(parked.store.read_results(job_id))["grid"]
        assert [row["replication"] for row in rows] == list(range(200))

    def test_abandoned_lease_expires_at_the_next_status_read(self, parked):
        job_id = park(parked, lease_ttl_s=0.1)
        first = route(parked, "POST", "/v1/queue/lease", {})["lease"]
        time.sleep(0.2)
        queue = route(parked, "GET", f"/v1/jobs/{job_id}")["queue"]
        assert (queue["open"], queue["leased"]) == (1, 0)
        retry = route(parked, "POST", "/v1/queue/lease", {})["lease"]
        assert (retry["chunk_id"], retry["attempt"]) == (
            first["chunk_id"], 2,
        )

    def test_last_attempt_expiry_fails_the_job_at_the_next_status_read(
        self, parked
    ):
        job_id = park(parked, lease_ttl_s=0.1, max_attempts=1)
        route(parked, "POST", "/v1/queue/lease", {})
        time.sleep(0.2)
        assert job_id in parked._running, "expiry waits for a read"
        status = route(parked, "GET", f"/v1/jobs/{job_id}")
        assert status["state"] == "failed"
        assert "lease attempt" in status["error"]
        assert journal_events(parked, job_id) == QUEUE_FAILED
        assert job_id not in parked._running
