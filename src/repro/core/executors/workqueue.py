"""Work-queue executor: lease chunks to remote workers over HTTP.

The queue is the rendezvous between an orchestrator (running inside
``repro serve``) and any number of ``repro worker`` processes:

* a worker **leases** the next open chunk — it receives the task list,
  the config payloads and a lease token, and the chunk stops being
  offered to other workers;
* while computing, the worker **heartbeats** the lease to push its
  deadline back; a worker that dies (or stalls past the TTL) simply
  stops heartbeating and the chunk is **requeued** on expiry;
* on success the worker **completes** the lease with the chunk's
  results.  A completion carrying a stale token is still accepted:
  ``run_single`` is a pure function, so a chunk computed twice (the
  original worker was slow, not dead) yields identical results and the
  orchestrator's idempotent ``record`` drops the duplicate.

A chunk that expires :data:`DEFAULT_MAX_ATTEMPTS` times is declared
failed and the executor raises
:class:`~repro.core.orchestrator.TaskError` naming its first task —
mirroring the process-pool executor's give-up semantics.

The executor's thread does not poll: it sleeps on the queue's
condition until a lease, completion, failure, expiry or cancel changes
something, or until the earliest lease deadline falls due.

Time is injected (``clock``) so tests drive lease expiry
deterministically; the default is ``time.monotonic``, which never
influences results — only *which worker* computes a chunk, and the
results are worker-invariant by construction.  A fake clock's expiries
surface on the next queue call: ``lease`` expires due leases first and
wakes the executor.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:
    from ..orchestrator import Orchestrator, Task
    from ..results import ExperimentResult

from ..orchestrator import TaskError

_log = logging.getLogger("repro.core.executors.workqueue")

DEFAULT_LEASE_TTL_S = 30.0
DEFAULT_MAX_ATTEMPTS = 3


class ChunkLease:
    """One granted lease: what a worker needs to compute a chunk."""

    def __init__(
        self, chunk_id: int, token: int, tasks: list["Task"],
        ttl_s: float, attempt: int,
    ) -> None:
        self.chunk_id = chunk_id
        self.token = token
        self.tasks = tasks
        self.ttl_s = ttl_s
        self.attempt = attempt

    def to_dict(self) -> dict:
        return {
            "chunk_id": self.chunk_id,
            "token": self.token,
            "tasks": [[ci, rep] for ci, rep in self.tasks],
            "ttl_s": self.ttl_s,
            "attempt": self.attempt,
        }


class ChunkQueue:
    """Thread-safe lease queue over a fixed set of chunks.

    The queue tracks chunk state only (open / leased / done / failed);
    completed results are buffered for the executor to drain and feed
    the orchestrator.  All methods are safe to call from HTTP handler
    threads concurrently with the executor's thread, which sleeps in
    :meth:`wait` until a lease, completion, failure, expiry or
    :meth:`wake` changes the queue.
    """

    def __init__(
        self,
        chunks: dict[int, list["Task"]],
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_ttl_s <= 0:
            raise ValueError(f"lease_ttl_s must be > 0, got {lease_ttl_s}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.lease_ttl_s = lease_ttl_s
        self.max_attempts = max_attempts
        self._clock = clock
        self._lock = threading.Lock()
        #: notified, with ``_version`` bumped, on every state change the
        #: executor must react to; shares ``_lock``
        self._changed = threading.Condition(self._lock)
        self._version = 0
        self._chunks = {cid: list(tasks) for cid, tasks in chunks.items()}
        self._open = sorted(self._chunks)
        #: chunk_id -> (token, deadline, worker_id, attempt)
        self._leased: dict[int, tuple[int, float, str, int]] = {}
        self._attempts: dict[int, int] = {}
        self._done: set[int] = set()
        self._failed: dict[int, int] = {}
        self._completed_buffer: list[
            tuple[int, list[tuple[int, int, "ExperimentResult"]]]
        ] = []
        self._next_token = 1

    # -- worker-facing surface ------------------------------------------

    def lease(self, worker_id: str) -> Optional[ChunkLease]:
        """Grant the next open chunk to ``worker_id``, or None if empty."""
        with self._lock:
            self._expire_locked()
            if not self._open:
                return None
            cid = self._open.pop(0)
            token = self._next_token
            self._next_token += 1
            attempt = self._attempts.get(cid, 0) + 1
            self._attempts[cid] = attempt
            deadline = self._clock() + self.lease_ttl_s
            self._leased[cid] = (token, deadline, worker_id, attempt)
            self._changed_locked()
            _log.debug(
                "leased chunk %d to %s (token %d, attempt %d)",
                cid, worker_id, token, attempt,
            )
            return ChunkLease(
                cid, token, list(self._chunks[cid]),
                self.lease_ttl_s, attempt,
            )

    def heartbeat(self, chunk_id: int, token: int) -> bool:
        """Extend a live lease's deadline; False if the lease is stale."""
        with self._lock:
            held = self._leased.get(chunk_id)
            if held is None or held[0] != token:
                return False
            _, _, worker_id, attempt = held
            self._leased[chunk_id] = (
                token, self._clock() + self.lease_ttl_s, worker_id, attempt,
            )
            return True

    def complete(
        self,
        chunk_id: int,
        token: int,
        results: list[tuple[int, int, "ExperimentResult"]],
    ) -> bool:
        """Accept a chunk's results; returns False for a stale token.

        Stale completions are *still buffered* — the computation is
        valid regardless of who holds the lease now — so a slow worker
        racing its own expiry never wastes its work.
        """
        with self._lock:
            held = self._leased.get(chunk_id)
            fresh = held is not None and held[0] == token
            if chunk_id in self._done:
                return fresh
            if fresh:
                del self._leased[chunk_id]
            else:
                # The chunk may be re-open or re-leased; retract both.
                self._leased.pop(chunk_id, None)
                if chunk_id in self._open:
                    self._open.remove(chunk_id)
            self._failed.pop(chunk_id, None)
            self._done.add(chunk_id)
            self._completed_buffer.append((chunk_id, list(results)))
            self._changed_locked()
            return fresh

    def fail(self, chunk_id: int, token: int, cause: str) -> bool:
        """A worker reports a chunk as failed (task raised remotely).

        Counts against the chunk's attempt budget like an expiry; the
        chunk is requeued until the budget runs out.
        """
        with self._lock:
            held = self._leased.get(chunk_id)
            if held is None or held[0] != token:
                return False
            del self._leased[chunk_id]
            _log.warning("chunk %d failed remotely: %s", chunk_id, cause)
            if self._attempts.get(chunk_id, 0) >= self.max_attempts:
                self._failed[chunk_id] = self._attempts[chunk_id]
            else:
                self._open.append(chunk_id)
                self._open.sort()
            self._changed_locked()
            return True

    # -- executor-facing surface ----------------------------------------

    def expire(self) -> list[int]:
        """Requeue every lease past its deadline; return their ids."""
        with self._lock:
            return self._expire_locked()

    def _expire_locked(self) -> list[int]:
        now = self._clock()
        expired = [
            cid for cid, (_, deadline, _, _) in self._leased.items()
            if deadline <= now
        ]
        for cid in expired:
            token, _, worker_id, attempt = self._leased.pop(cid)
            _log.warning(
                "lease on chunk %d (worker %s, attempt %d) expired; "
                "requeueing", cid, worker_id, attempt,
            )
            if attempt >= self.max_attempts:
                self._failed[cid] = attempt
            else:
                self._open.append(cid)
                self._open.sort()
        if expired:
            self._changed_locked()
        return expired

    def _changed_locked(self) -> None:
        self._version += 1
        self._changed.notify_all()

    def wake(self) -> None:
        """Wake :meth:`wait` from outside the queue (e.g. a cancel)."""
        with self._lock:
            self._changed_locked()

    def version(self) -> int:
        """Change counter to hand to :meth:`wait`."""
        with self._lock:
            return self._version

    def wait(self, seen: int) -> int:
        """Sleep until the queue changes after ``seen``; return the new
        counter.

        Returns at once if a change already landed since ``seen`` was
        read, and otherwise no later than the earliest lease deadline,
        so an expiry is never slept through.  With nothing leased the
        wait has no timeout.
        """
        with self._lock:
            while self._version == seen:
                if self._leased:
                    timeout = min(
                        deadline for _, deadline, _, _
                        in self._leased.values()
                    ) - self._clock()
                    if timeout <= 0:
                        break
                else:
                    timeout = None
                self._changed.wait(timeout)
            return self._version

    def drain_completed(
        self,
    ) -> list[tuple[int, list[tuple[int, int, "ExperimentResult"]]]]:
        """Hand over buffered chunk results (clears the buffer)."""
        with self._lock:
            out = self._completed_buffer
            self._completed_buffer = []
            return out

    def first_failed(self) -> Optional[tuple[int, "Task", int]]:
        """(chunk_id, first task, attempts) of a failed chunk, if any."""
        with self._lock:
            if not self._failed:
                return None
            cid = min(self._failed)
            return cid, self._chunks[cid][0], self._failed[cid]

    def outstanding(self) -> int:
        """Chunks not yet done (open + leased + failed)."""
        with self._lock:
            return len(self._chunks) - len(self._done)

    def snapshot(self) -> dict:
        """JSON-able queue state for the service status endpoint."""
        with self._lock:
            return {
                "chunks": len(self._chunks),
                "open": len(self._open),
                "leased": len(self._leased),
                "done": len(self._done),
                "failed": len(self._failed),
            }


class WorkQueueExecutor:
    """Serve pending chunks through a :class:`ChunkQueue` until drained.

    The executor itself computes nothing: its thread sleeps until the
    queue changes (or the earliest lease falls due, or the sweep is
    cancelled), then feeds completed results into the orchestrator,
    requeues expired leases, and gives up (raising :class:`TaskError`)
    once a chunk exhausts its attempt budget.  Workers reach the queue
    through whatever transport wraps it — the HTTP routes of ``repro
    serve``, or direct method calls in tests.
    """

    name = "work-queue"

    def __init__(
        self,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        clock: Callable[[], float] = time.monotonic,
        on_queue_ready: Optional[Callable[[ChunkQueue], None]] = None,
    ) -> None:
        self.lease_ttl_s = lease_ttl_s
        self.max_attempts = max_attempts
        self._clock = clock
        self._on_queue_ready = on_queue_ready
        self.queue: Optional[ChunkQueue] = None

    def execute(self, orchestrator: "Orchestrator") -> None:
        queue = ChunkQueue(
            orchestrator.pending_chunks(),
            lease_ttl_s=self.lease_ttl_s,
            max_attempts=self.max_attempts,
            clock=self._clock,
        )
        self.queue = queue
        if self._on_queue_ready is not None:
            # Publish the queue (e.g. into the service's routing table)
            # only once it is fully constructed.
            self._on_queue_ready(queue)
        try:
            with orchestrator.cancel_waker(queue.wake):
                seen = queue.version()
                while True:
                    queue.expire()
                    for cid, results in queue.drain_completed():
                        orchestrator.complete_chunk(cid, results)
                    failed = queue.first_failed()
                    if failed is not None:
                        cid, (ci, rep), attempts = failed
                        raise TaskError(
                            orchestrator.unique[ci].describe(), rep,
                            f"chunk {cid} exhausted {attempts} lease "
                            f"attempt(s) on the work queue",
                        )
                    if queue.outstanding() == 0:
                        break
                    orchestrator.check_cancelled()
                    seen = queue.wait(seen)
            # One final drain: a completion can land between the last
            # drain and the outstanding()==0 check.
            for cid, results in queue.drain_completed():
                orchestrator.complete_chunk(cid, results)
        finally:
            self.queue = None
