"""``repro serve``: the sweep service tying orchestrator to HTTP.

One :class:`SweepService` owns a :class:`~repro.service.jobs.JobStore`,
runs each in-process or pool job on a thread of its own, parks each
work-queue job without one, and exposes the control API:

==========  =================================  =============================
method      path                               purpose
==========  =================================  =============================
GET         /healthz                           liveness + running-job count
POST        /v1/jobs                           submit a JobSpec, returns id
GET         /v1/jobs                           list all jobs' statuses
GET         /v1/jobs/{id}                      status + live progress
POST        /v1/jobs/{id}/cancel               cooperative cancellation
GET         /v1/jobs/{id}/results              canonical results JSON
POST        /v1/queue/lease                    worker: lease next chunk
POST        /v1/queue/heartbeat                worker: extend a lease
POST        /v1/queue/complete                 worker: deliver chunk results
POST        /v1/queue/fail                     worker: report a chunk failure
==========  =================================  =============================

Live progress comes from ``Orchestrator.status()`` — done/total, cache
hit-rate and the streaming p50/p99 stretch the heartbeat accumulates
from each result's online-metrics payload — plus the chunk queue's
lease state for work-queue jobs.

The queue routes touch only a job's in-memory :class:`ChunkQueue`;
every orchestrator-side step of every work-queue job runs on one
shared step thread.  Expired leases are requeued lazily, by the next
lease, status or list request.

At startup the service re-launches every job left ``pending`` or
``running`` by a previous process: the rebuilt orchestrator resolves
all completed work from the shared disk cache, so a killed server (or
worker) resumes by re-running only incomplete chunks.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Optional, Union

from ..core.executors import ChunkQueue, InProcessExecutor, PoolExecutor, settle
from ..core.orchestrator import Orchestrator, SweepCancelled, TaskError
from ..core.results import ExperimentResult
from ..obs.manifest import RunJournal, build_manifest
from .http import (
    BackgroundServer,
    HttpError,
    HttpRequest,
    HttpResponse,
    Router,
    run_server_in_thread,
)
from .jobs import (
    JobSpec,
    JobStore,
    canonical_grid_payload,
    decode_chunk_results,
)

_log = logging.getLogger("repro.service.server")

Grids = list[list[ExperimentResult]]


class _JobRuntime:
    """In-memory handle on one live job."""

    def __init__(self, job_id: str, spec: JobSpec) -> None:
        self.job_id = job_id
        self.spec = spec
        self.journal: Optional[RunJournal] = None
        self.orchestrator: Optional[Orchestrator] = None
        #: a cancel that arrived before ``orchestrator`` was published;
        #: guarded, like ``orchestrator``, by the service lock
        self.cancel_requested = False
        self.queue: Optional[ChunkQueue] = None
        #: when the start step handed the grid over (manifest wall time)
        self.t0 = 0.0
        self.done = threading.Event()


class SweepService:
    """The HTTP sweep service: job lifecycle + work-queue routing."""

    def __init__(
        self,
        state_dir: Union[str, Path],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.store = JobStore(state_dir)
        self.host = host
        self.port = port
        self._running: dict[str, _JobRuntime] = {}
        self._lock = threading.Lock()
        self._http: Optional[BackgroundServer] = None
        #: the one thread every work-queue job's steps run on, in order
        self._steps = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-steps",
        )
        self.router = Router()
        self.router.add("GET", "/healthz", self._route_health)
        self.router.add("POST", "/v1/jobs", self._route_submit)
        self.router.add("GET", "/v1/jobs", self._route_list)
        self.router.add("GET", "/v1/jobs/{job_id}", self._route_status)
        self.router.add(
            "POST", "/v1/jobs/{job_id}/cancel", self._route_cancel
        )
        self.router.add(
            "GET", "/v1/jobs/{job_id}/results", self._route_results
        )
        self.router.add("POST", "/v1/queue/lease", self._route_lease)
        self.router.add(
            "POST", "/v1/queue/heartbeat", self._route_heartbeat
        )
        self.router.add("POST", "/v1/queue/complete", self._route_complete)
        self.router.add("POST", "/v1/queue/fail", self._route_fail)

    # -- lifecycle -------------------------------------------------------

    def handle(self, request: HttpRequest) -> HttpResponse:
        return self.router.dispatch(request)

    def start(self) -> int:
        """Resume incomplete jobs, bind the socket; returns the port."""
        resumed = self.resume_incomplete()
        if resumed:
            _log.info("resumed %d incomplete job(s): %s",
                      len(resumed), ", ".join(resumed))
        self._http = run_server_in_thread(self.handle, self.host, self.port)
        self.port = self._http.port
        return self.port

    def stop(self) -> None:
        """Stop serving, then end the step thread once its queue drains."""
        if self._http is not None:
            self._http.stop()
            self._http = None
        self._steps.shutdown()

    def wait_idle(self, timeout: float = 60.0) -> bool:
        """Block until no job is executing (tests/shutdown helper)."""
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                running = [
                    rt for rt in self._running.values()
                    if not rt.done.is_set()
                ]
            if not running:
                return True
            for rt in running:
                if not rt.done.wait(max(0.0, deadline - time.monotonic())):
                    return False

    def resume_incomplete(self) -> list[str]:
        """Re-launch every job a previous process left unfinished."""
        resumed = []
        for job_id in self.store.job_ids():
            try:
                state = self.store.read_status(job_id).get("state")
            except (KeyError, ValueError):
                state = "pending"  # spec exists but status is torn
            if state not in ("pending", "running"):
                continue
            try:
                spec = self.store.spec(job_id)
            except (FileNotFoundError, ValueError) as exc:
                # A crash between create_job's mkdir and its spec write
                # leaves no spec, and one an older build accepted may no
                # longer validate: either way there is nothing to run.
                _log.warning("skipping %s: %s", job_id, exc)
                continue
            self._launch(job_id, spec)
            resumed.append(job_id)
        return resumed

    def submit(self, spec: JobSpec) -> str:
        job_id = self.store.create_job(spec)
        self._launch(job_id, spec)
        return job_id

    # -- job execution ---------------------------------------------------

    def _launch(self, job_id: str, spec: JobSpec) -> None:
        runtime = _JobRuntime(job_id, spec)
        with self._lock:
            self._running[job_id] = runtime
        if spec.executor == "workqueue":
            self._steps.submit(self._step, runtime, self._start_queue)
        else:
            threading.Thread(
                target=self._step, args=(runtime, self._compute),
                name=f"repro-{job_id}", daemon=True,
            ).start()

    def _step(
        self, runtime: _JobRuntime,
        body: Callable[[_JobRuntime], Optional[Grids]],
    ) -> None:
        """Run one step of a job; finish the job if it returns the grid.

        A step that returns None leaves the job parked.  This is the one
        place a job's failure is turned into its persisted state.
        """
        if runtime.done.is_set():
            return  # queued behind the step that ended the job
        job_id = runtime.job_id
        try:
            grids = body(runtime)
            if grids is not None:
                self._finish(runtime, grids)
        except SweepCancelled:
            _log.info("job %s cancelled", job_id)
            self._end(runtime, "cancelled", {})
        except TaskError as err:
            _log.error("job %s failed: %s", job_id, err)
            self._end(runtime, "failed", {"error": str(err)}, error=str(err))
        except Exception as exc:  # repro-lint: disable=EXC001 -- job
            # thread boundary: an escaping exception must land in the
            # persisted status (clients poll it), not die silently on a
            # job or step thread
            _log.exception("job %s crashed", job_id)
            self._end(runtime, "failed", {"error": repr(exc)},
                      error=repr(exc))

    def _start(self, runtime: _JobRuntime) -> Orchestrator:
        """Mark the job running and publish its orchestrator."""
        job_id, spec = runtime.job_id, runtime.spec
        self.store.write_status(job_id, "running", executor=spec.executor)
        runtime.journal = RunJournal(
            self.store.job_dir(job_id) / "journal.jsonl"
        )
        orchestrator = Orchestrator(
            list(spec.configs),
            spec.n_replications,
            first_replication=spec.first_replication,
            cache=self.store.cache(),
            chunksize=spec.chunksize,
            n_workers=spec.n_workers,
            journal=runtime.journal,
        )
        with self._lock:
            runtime.orchestrator = orchestrator
            cancel_requested = runtime.cancel_requested
        if cancel_requested:
            orchestrator.cancel()
        runtime.t0 = time.perf_counter()
        return orchestrator

    def _compute(self, runtime: _JobRuntime) -> Grids:
        """An in-process or pool job, start to grid, on its own thread."""
        orchestrator = self._start(runtime)
        if runtime.spec.executor == "pool":
            return orchestrator.execute(
                PoolExecutor(n_workers=runtime.spec.n_workers)
            )
        return orchestrator.execute(InProcessExecutor())

    def _start_queue(self, runtime: _JobRuntime) -> Optional[Grids]:
        """A work-queue job's start step: open its chunks to workers."""
        orchestrator = self._start(runtime)
        if orchestrator.begin("work-queue"):
            queue = ChunkQueue(
                orchestrator.pending_chunks(),
                lease_ttl_s=runtime.spec.lease_ttl_s,
                max_attempts=runtime.spec.max_attempts,
            )
            with self._lock:
                runtime.queue = queue
        return self._settle(runtime)

    def _settle(self, runtime: _JobRuntime) -> Optional[Grids]:
        """A work-queue job's step after its queue changed or a cancel."""
        orchestrator = runtime.orchestrator
        assert orchestrator is not None, "the start step runs first"
        if runtime.queue is None or settle(runtime.queue, orchestrator):
            return orchestrator.assemble()
        orchestrator.check_cancelled()
        return None

    def _finish(self, runtime: _JobRuntime, grids: Grids) -> None:
        """Write results, manifest, the ``done`` record and the status."""
        job_id, spec = runtime.job_id, runtime.spec
        assert runtime.orchestrator is not None
        total = runtime.orchestrator.total
        t1 = time.perf_counter()
        self.store.write_results(job_id, canonical_grid_payload(grids))
        # building + writing results.json, after wall_time_s stops
        results_s = time.perf_counter() - t1
        build_manifest(
            list(spec.configs),
            spec.n_replications,
            first_replication=spec.first_replication,
            n_workers=spec.n_workers,
            wall_time_s=t1 - runtime.t0,
            extra={
                "job_id": job_id,
                "executor": spec.executor,
                "service": True,
                "results_s": results_s,
            },
        ).write(self.store.job_dir(job_id) / "manifest.json")
        self._end(runtime, "done", {"total": total, "results_s": results_s},
                  executor=spec.executor, total=total)

    def _end(
        self, runtime: _JobRuntime, state: str, record: dict,
        **status: object,
    ) -> None:
        """Journal and persist a terminal ``state``; retire the job."""
        try:
            if runtime.journal is not None:
                runtime.journal.append({"event": state, **record})
            self.store.write_status(runtime.job_id, state, **status)
        finally:
            runtime.done.set()
            with self._lock:
                self._running.pop(runtime.job_id, None)

    def _expire(self, job_id: str) -> None:
        """Lazy lease expiry, applied before a status read reports.

        A chunk whose last lease expired fails its job here, on the
        step thread, before the read goes on.
        """
        with self._lock:
            runtime = self._running.get(job_id)
        if runtime is None or runtime.queue is None:
            return
        runtime.queue.expire()
        if runtime.queue.first_failed() is not None:
            self._steps.submit(self._step, runtime, self._settle).result()

    # -- routes: jobs ----------------------------------------------------

    def _route_health(self, request: HttpRequest) -> HttpResponse:
        with self._lock:
            running = len(self._running)
        return HttpResponse.json({"ok": True, "jobs_running": running})

    def _route_submit(self, request: HttpRequest) -> HttpResponse:
        payload = request.json()
        try:
            spec = JobSpec.from_dict(payload)
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"bad job spec: {exc}") from exc
        job_id = self.submit(spec)
        return HttpResponse.json({"job_id": job_id}, status=201)

    def _route_list(self, request: HttpRequest) -> HttpResponse:
        jobs = []
        for job_id in self.store.job_ids():
            self._expire(job_id)
            try:
                jobs.append(self.store.read_status(job_id))
            except (KeyError, ValueError):
                jobs.append({"job_id": job_id, "state": "unknown"})
        return HttpResponse.json({"jobs": jobs})

    def _status_payload(self, job_id: str) -> dict:
        self._expire(job_id)
        try:
            payload = self.store.read_status(job_id)
        except KeyError:
            raise HttpError(404, f"no such job {job_id!r}") from None
        with self._lock:
            runtime = self._running.get(job_id)
        if runtime is not None and runtime.orchestrator is not None:
            payload["progress"] = runtime.orchestrator.status()
            if runtime.queue is not None:
                payload["queue"] = runtime.queue.snapshot()
        return payload

    def _route_status(
        self, request: HttpRequest, job_id: str
    ) -> HttpResponse:
        return HttpResponse.json(self._status_payload(job_id))

    def _route_cancel(
        self, request: HttpRequest, job_id: str
    ) -> HttpResponse:
        try:
            status = self.store.read_status(job_id)
        except KeyError:
            raise HttpError(404, f"no such job {job_id!r}") from None
        with self._lock:
            runtime = self._running.get(job_id)
            if runtime is not None:
                # A job that has not published its orchestrator yet
                # picks the request up when it does (_start).
                runtime.cancel_requested = True
                orchestrator = runtime.orchestrator
        if runtime is not None:
            if orchestrator is not None:
                orchestrator.cancel()
            if runtime.spec.executor == "workqueue":
                # A parked job's thread-free way to see the flag (the
                # start step, if still queued, sees cancel_requested).
                self._steps.submit(self._step, runtime, self._settle)
            return HttpResponse.json({"job_id": job_id, "cancelling": True})
        if status.get("state") in ("pending", "running"):
            # Not executing in this process (e.g. pre-resume window).
            self.store.write_status(job_id, "cancelled")
            return HttpResponse.json({"job_id": job_id, "cancelling": True})
        raise HttpError(
            409, f"job {job_id} is {status.get('state')}; nothing to cancel"
        )

    def _route_results(
        self, request: HttpRequest, job_id: str
    ) -> HttpResponse:
        try:
            status = self.store.read_status(job_id)
        except KeyError:
            raise HttpError(404, f"no such job {job_id!r}") from None
        body = self.store.read_results(job_id)
        if body is None:
            raise HttpError(
                404,
                f"job {job_id} has no results yet "
                f"(state: {status.get('state')})",
            )
        return HttpResponse(200, body, "application/json")

    # -- routes: work queue ----------------------------------------------

    def _live_queues(self) -> list[tuple[str, _JobRuntime, ChunkQueue]]:
        with self._lock:
            runtimes = sorted(self._running.items())
        return [
            (job_id, rt, rt.queue)
            for job_id, rt in runtimes
            if rt.queue is not None
        ]

    def _route_lease(self, request: HttpRequest) -> HttpResponse:
        worker_id = str(request.json().get("worker_id", "anonymous"))
        for job_id, runtime, queue in self._live_queues():
            lease = queue.lease(worker_id)
            if lease is None:
                continue
            assert runtime.orchestrator is not None
            configs = [
                cfg.to_dict() for cfg in runtime.orchestrator.unique
            ]
            return HttpResponse.json({
                "job_id": job_id,
                "lease": lease.to_dict(),
                "configs": configs,
            })
        return HttpResponse.json({"job_id": None, "lease": None})

    def _queue_for(self, payload: dict) -> tuple[_JobRuntime, ChunkQueue]:
        job_id = str(payload.get("job_id", ""))
        with self._lock:
            runtime = self._running.get(job_id)
        if runtime is None or runtime.queue is None:
            raise HttpError(
                404, f"job {job_id!r} has no active work queue"
            )
        return runtime, runtime.queue

    @staticmethod
    def _lease_ref(payload: dict) -> tuple[int, int]:
        try:
            return int(payload["chunk_id"]), int(payload["token"])
        except (KeyError, TypeError, ValueError):
            raise HttpError(
                400, "payload needs integer chunk_id and token"
            ) from None

    def _route_heartbeat(self, request: HttpRequest) -> HttpResponse:
        payload = request.json()
        _, queue = self._queue_for(payload)
        chunk_id, token = self._lease_ref(payload)
        alive = queue.heartbeat(chunk_id, token)
        return HttpResponse.json({"alive": alive})

    def _route_complete(self, request: HttpRequest) -> HttpResponse:
        payload = request.json()
        runtime, queue = self._queue_for(payload)
        chunk_id, token = self._lease_ref(payload)
        try:
            results = decode_chunk_results(str(payload.get("results", "")))
        except ValueError as exc:
            raise HttpError(400, str(exc)) from exc
        fresh = queue.complete(chunk_id, token, results)
        self._steps.submit(self._step, runtime, self._settle)
        return HttpResponse.json({"accepted": True, "fresh_lease": fresh})

    def _route_fail(self, request: HttpRequest) -> HttpResponse:
        payload = request.json()
        runtime, queue = self._queue_for(payload)
        chunk_id, token = self._lease_ref(payload)
        ok = queue.fail(
            chunk_id, token, str(payload.get("cause", "unspecified"))
        )
        if ok:  # the chunk may have used its last attempt
            self._steps.submit(self._step, runtime, self._settle)
        return HttpResponse.json({"accepted": ok})
