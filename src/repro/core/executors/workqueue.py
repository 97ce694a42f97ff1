"""The work queue: chunks leased to remote workers over HTTP.

The queue is the rendezvous between an orchestrator (held by ``repro
serve``) and any number of ``repro worker`` processes:

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

A work-queue sweep holds no thread.  :func:`settle` is its whole
orchestrator-side step: whoever changes the queue calls it afterwards,
and it records the delivered results, raises
:class:`~repro.core.orchestrator.TaskError` for a chunk that has used
up :data:`DEFAULT_MAX_ATTEMPTS` leases (naming its first task, like the
process-pool executor's give-up), and says when the sweep is drained.

Expiry is lazy: a lease past its deadline is requeued by the next
:meth:`ChunkQueue.lease` or :meth:`ChunkQueue.expire` call, not at the
deadline.  Time is injected (``clock``) so tests drive it
deterministically; the default is ``time.monotonic``, which never
influences results — only *which worker* computes a chunk, and the
results are worker-invariant by construction.
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
    completed results are buffered for :func:`settle` to drain and feed
    the orchestrator.  All methods are safe to call from HTTP handler
    threads concurrently with the thread that settles the queue.
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
            return True

    # -- settling surface -----------------------------------------------

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
        return expired

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


def settle(queue: ChunkQueue, orchestrator: "Orchestrator") -> bool:
    """Feed ``queue``'s news to ``orchestrator``; True once it is drained.

    Requeues expired leases, records every buffered completion, and
    raises :class:`TaskError` once a chunk has used up its attempts.
    Never blocks: call it again after anything changes the queue.
    """
    queue.expire()
    # Read before the drain: a chunk turns done and buffers its results
    # in one locked step, so when none is outstanding here the drain
    # below collects every result.
    drained = queue.outstanding() == 0
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
    return drained
