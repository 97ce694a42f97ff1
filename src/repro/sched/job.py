"""Job and request state machines.

Terminology follows the paper: a *job* is the user's unit of work (it
needs ``nodes`` compute nodes for ``runtime`` seconds); a *request* is
one copy of that job submitted to one batch queue.  Without redundancy a
job has exactly one request; with redundancy it has several, and all but
the first to start are cancelled.

The scheduler layer deals exclusively with :class:`Request` objects; the
grouping of requests into jobs lives in :mod:`repro.core.coordinator`
(the ``group`` attribute is an opaque back-reference for that layer).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional


class RequestState(enum.Enum):
    """Lifecycle of a request inside one batch queue."""

    CREATED = "created"      # built, not yet submitted
    PENDING = "pending"      # waiting in a batch queue
    RUNNING = "running"      # holds compute nodes
    COMPLETED = "completed"  # ran to completion
    CANCELLED = "cancelled"  # removed from the queue before starting


_request_ids = itertools.count()


def reset_request_ids() -> None:
    """Reset the global request-id counter (test isolation helper)."""
    global _request_ids
    # repro-lint: disable=PAR001 -- deliberate per-process reset: the
    # trace layer calls this at the start of every task precisely so
    # request ids are identical no matter which worker runs the task
    _request_ids = itertools.count()


@dataclass(slots=True, eq=False)
class Request:
    """One copy of a job in one batch queue.

    Hundreds of thousands of these flow through an overloaded sweep and
    the scheduler hot paths are attribute-bound, so the layout matters:
    ``slots=True`` removes the per-instance dict, shrinking requests and
    speeding up every attribute access in submit/cancel/pass loops.
    ``eq=False`` keeps identity equality (and the identity hash): every
    request is a distinct copy, and ``running.remove`` would otherwise
    compare field by field against each request it passes over.

    Parameters
    ----------
    nodes:
        Number of compute nodes requested (fixed; jobs are rigid).
    runtime:
        Actual execution time in seconds, unknown to the scheduler.
    requested_time:
        User-supplied estimate; the scheduler plans with this.  Must be
        >= ``runtime`` (jobs are killed at the estimate in real systems,
        and the workload generator never produces under-estimates).
    submit_time:
        Intended submission instant (set when the request is built;
        the scheduler stamps the actual submission in ``submitted_at``).
    group:
        Opaque back-reference to the owning redundant-job group.
    """

    nodes: int
    runtime: float
    requested_time: float
    submit_time: float = 0.0
    group: Any = None
    name: str = ""
    request_id: int = field(default_factory=lambda: next(_request_ids))

    # Mutable scheduling state -------------------------------------------------
    state: RequestState = RequestState.CREATED
    cluster: Any = None                    # Scheduler that owns the request
    #: index of this request in its scheduler's queue-state arrays (see
    #: the struct-of-arrays bookkeeping in :mod:`repro.sched.base`);
    #: maintained by the owning scheduler, -1 while unqueued
    slot: int = -1
    submitted_at: Optional[float] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    cancelled_at: Optional[float] = None
    #: earliest start promised by CBF at submission (None for EASY/FCFS)
    predicted_start_at_submit: Optional[float] = None
    #: most recent CBF reservation (moves earlier as the queue compresses)
    reserved_start: Optional[float] = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"request needs >=1 node, got {self.nodes}")
        if self.runtime <= 0:
            raise ValueError(f"runtime must be positive, got {self.runtime}")
        if self.requested_time < self.runtime:
            raise ValueError(
                f"requested_time {self.requested_time} < runtime {self.runtime}"
            )

    # -- derived quantities ----------------------------------------------------

    @property
    def wait_time(self) -> float:
        """Queue waiting time; only valid once the request has started."""
        if self.start_time is None or self.submitted_at is None:
            raise ValueError(f"request {self.request_id} has not started")
        return self.start_time - self.submitted_at

    @property
    def turnaround(self) -> float:
        """Submission-to-completion time; valid once completed."""
        if self.end_time is None or self.submitted_at is None:
            raise ValueError(f"request {self.request_id} has not completed")
        return self.end_time - self.submitted_at

    @property
    def stretch(self) -> float:
        """Turnaround divided by execution time (the paper's slowdown)."""
        return self.turnaround / self.runtime

    @property
    def expected_end(self) -> float:
        """Scheduler's view of the completion time of a running request."""
        if self.start_time is None:
            raise ValueError(f"request {self.request_id} is not running")
        return self.start_time + self.requested_time

    @property
    def is_pending(self) -> bool:
        return self.state is RequestState.PENDING

    @property
    def is_active(self) -> bool:
        """Pending or running — i.e. still occupying scheduler state."""
        return self.state in (RequestState.PENDING, RequestState.RUNNING)

    def copy_spec(self, **overrides: Any) -> "Request":
        """Build a fresh request with the same workload characteristics.

        Used by the coordinator to fan one job out into several
        requests; each copy gets its own identity and scheduling state.
        """
        spec = dict(
            nodes=self.nodes,
            runtime=self.runtime,
            requested_time=self.requested_time,
            submit_time=self.submit_time,
            group=self.group,
            name=self.name,
        )
        spec.update(overrides)
        return Request(**spec)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Request(id={self.request_id}, n={self.nodes}, rt={self.runtime:.1f}, "
            f"req={self.requested_time:.1f}, state={self.state.value})"
        )
