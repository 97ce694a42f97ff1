"""Pluggable sweep executors behind one protocol, plus the work queue.

An executor owns *how* grid tasks run; the
:class:`~repro.core.orchestrator.Orchestrator` owns *what* runs and
what happens to the results.  Executors pull incomplete chunks via
``orchestrator.pending_chunks()`` and report every finished task
through ``orchestrator.record`` / ``orchestrator.complete_chunk`` —
which is why progress, caching, journaling and deterministic
reassembly are identical across all of them:

* :class:`InProcessExecutor` — the serial path: tasks run in the
  calling process with per-task retry-once semantics;
* :class:`PoolExecutor` — one persistent ``ProcessPoolExecutor`` for
  the whole grid, chunk-retry on task failure and a fresh-pool retry
  on a worker crash.

The work queue is not an executor: it computes nothing and holds no
thread.  A :class:`ChunkQueue` leases chunks to remote workers
(``repro worker`` over HTTP via ``repro serve``) with heartbeat
renewal and lease-expiry requeue, and :func:`settle` feeds what they
deliver to the same orchestrator surface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:
    from ..orchestrator import Orchestrator

from .inprocess import InProcessExecutor
from .pool import PoolExecutor
from .workqueue import ChunkLease, ChunkQueue, settle

__all__ = [
    "Executor",
    "InProcessExecutor",
    "PoolExecutor",
    "ChunkLease",
    "ChunkQueue",
    "settle",
]


class Executor(Protocol):
    """Strategy protocol: run every pending chunk of an orchestrator."""

    #: short identifier recorded in the run journal
    name: str

    def execute(self, orchestrator: "Orchestrator") -> None:
        """Drive ``orchestrator``'s pending chunks to completion.

        Must call ``orchestrator.record`` (or ``complete_chunk``) for
        every task it finishes and raise
        :class:`~repro.core.orchestrator.TaskError` when a task cannot
        be completed.
        """
        ...
