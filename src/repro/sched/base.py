"""Common machinery for batch schedulers.

Each scheduler manages a single queue with no request priorities
(Section 3.1.1).  The base class owns:

* queue and running-set bookkeeping;
* the submit / cancel / finish event plumbing (finish events fire at
  ``start + actual runtime``, which is <= the requested time — this is
  what creates backfilling opportunities on early completion);
* coalesced scheduling passes: every state change requests a pass, and
  all changes at one simulated instant are served by a single pass that
  runs at :data:`~repro.sim.events.EventPriority.SCHEDULE` priority,
  i.e. after all cancellations/finishes/submissions at that instant;
* start notification callbacks (used by the redundancy coordinator to
  cancel sibling requests) and per-queue statistics;
* optional lifecycle tracing: when a
  :class:`~repro.obs.trace.TraceRecorder` is attached (``tracer``
  attribute), every queue/start/cancel/complete/outage transition is
  emitted as a typed event.  With no recorder attached (the default)
  each hook site costs one attribute check and nothing else;
* optional runtime auditing: an attached
  :class:`~repro.sanitize.auditor.InvariantAuditor` (``auditor``
  attribute) re-derives and checks capacity, ordering and reservation
  invariants after every transition, under the same
  zero-overhead-when-off discipline.

Performance note: a scheduling pass runs after most events, so its
fixed cost matters more than its per-slot cost (on the benchmark a pass
sees 54 queue slots at the median, 21 pending, 213 at most; undrained
overload reaches thousands).  Three pieces of pass state are kept in
O(1) per transition:

* ``_q_need``, an int64 array aligned with ``queue`` (index
  ``Request.slot``): a pending request's node count, else the sentinel
  :data:`_GONE`, so "pending and fits" is ``need <= free``;
  ``_q_reqtime`` holds requested times alongside, and compaction
  rebuilds both (:meth:`_sync_queue_arrays`);
* ``_head``, a position with no pending request before it
  (:meth:`_head_index`);
* ``_min_need``, the exact smallest pending node count, kept through a
  per-node-count tally: the O(1) guard :meth:`_start_possible`.

``queue`` is never reordered: it stays in submission order, and
started or cancelled entries stay in it until lazy compaction.

Subclasses implement :meth:`_schedule_pass` only.
"""

from __future__ import annotations

import abc
from functools import partial
from typing import Callable, Iterable

import numpy as np

from ..cluster.cluster import Cluster
from ..sim.engine import Simulator
from ..sim.events import EventPriority
from .job import Request, RequestState

StartCallback = Callable[[Request, float], None]

# Module-level aliases: enum member lookup through the class is a
# touch slower than a global load, and these appear on every
# submit/cancel/start/finish.
_PENDING = RequestState.PENDING
_CREATED = RequestState.CREATED
_CANCELLED = RequestState.CANCELLED
_RUNNING = RequestState.RUNNING
_COMPLETED = RequestState.COMPLETED

#: compact the queue list once more than this many stale (started or
#: cancelled) entries accumulate *and* they outnumber the pending ones
_COMPACT_SLACK = 64

#: initial capacity of the struct-of-arrays queue state
_SOA_CAPACITY = 64

#: ``_q_need`` of a slot whose request is not pending: no cluster is
#: this large, so ``need <= free`` never selects it
_GONE = 1 << 62


class SchedulerError(RuntimeError):
    """Raised on invalid scheduler API usage."""


class SchedulerDownError(SchedulerError):
    """Raised when a submit/cancel reaches a scheduler that is down.

    Models the daemon-level failures of the paper's Section 4: a downed
    batch scheduler rejects new submissions and silently loses
    cancellation messages, while already-running jobs keep their nodes
    (the daemon crashed, not the compute nodes).
    """


class QueueStats:
    """Running statistics about one batch queue."""

    def __init__(self) -> None:
        self.submitted = 0
        self.cancelled = 0
        self.started = 0
        self.completed = 0
        #: starts that jumped the queue order (EASY backfill slots, CBF
        #: early starts) — the "backfill decisions" observability counter
        self.backfilled = 0
        #: pending requests lost when the scheduler crashed with
        #: ``drop_queue`` (distinct from user-issued cancellations)
        self.dropped = 0
        #: the pending count only grows on submit, so that is the one
        #: place this high-water mark is updated
        self.max_queue_length = 0


class Scheduler(abc.ABC):
    """Abstract batch scheduler bound to one cluster.

    Parameters
    ----------
    sim:
        The shared simulator.
    cluster:
        The cluster whose nodes this scheduler allocates.
    """

    #: short algorithm name, e.g. ``"easy"``; set by subclasses
    algorithm: str = "abstract"

    def __init__(self, sim: Simulator, cluster: Cluster) -> None:
        self.sim = sim
        self.cluster = cluster
        self.queue: list[Request] = []   # pending requests, submit order
        self.running: list[Request] = []
        self.stats = QueueStats()
        #: scheduler daemon availability (see :meth:`go_down`)
        self.down = False
        #: optional lifecycle-event recorder (``None`` = tracing off;
        #: see :mod:`repro.obs.trace`)
        self.tracer = None
        #: optional invariant auditor (``None`` = auditing off; see
        #: :mod:`repro.sanitize.auditor`) — same zero-overhead hook
        #: discipline as ``tracer``
        self.auditor = None
        self._start_callbacks: list[StartCallback] = []
        self._pass_pending = False
        self._pending_count = 0
        # Hook elision: the base hooks are empty, so when a subclass
        # does not override one the call site can skip the call (and
        # its frame) entirely.  Resolved once per instance.
        cls = type(self)
        self._has_on_submit = cls._on_submit is not Scheduler._on_submit
        self._has_on_cancel = cls._on_cancel is not Scheduler._on_cancel
        self._has_on_finish = cls._on_finish is not Scheduler._on_finish
        # True while _schedule_pass is on the stack: passes hold local
        # references to ``queue`` and array slices, so compaction (which
        # rebuilds the list and remaps every slot) must not run under
        # them — a reentrant sibling cancellation would otherwise leave
        # the pass scanning a stale snapshot with live indices.
        self._in_pass = False
        # Struct-of-arrays queue state, aligned with ``self.queue``
        # (including stale entries awaiting compaction); slots past
        # ``len(queue)`` are never read.  See the module docstring.
        self._q_need = np.zeros(_SOA_CAPACITY, dtype=np.int64)
        self._q_reqtime = np.zeros(_SOA_CAPACITY, dtype=np.float64)
        self._head = 0
        # Exact smallest pending node count (``total_nodes + 1`` if none)
        # via ``_need_tally[k]`` = pending requests of ``k`` nodes; the
        # last entry is a permanent 1 that stops :meth:`_dequeue`'s walk.
        self._reset_need_tally()
        # Blocked-state memo ``(free, shadow, extra, head)`` recorded by
        # EASY/FCFS passes that started nothing (``None`` = unknown, be
        # conservative).  While set, it proves no pending request can
        # start, so submit/cancel can decide *locally* whether a pass is
        # worth scheduling: a new request starts only if it fits now and
        # clears the cached backfill bound, and removing a non-head
        # request never enables anything.  The memo is invalidated by
        # every transition that moves its inputs — finish and start
        # change ``free`` and the release schedule, cancelling the head
        # changes the reservation, outages rewrite the queue.  The local
        # decision rests on one rule that holds for every scheduler: the
        # queue stays in submission order, so a new submission can never
        # become the head.  CBF never records a memo (its submits can
        # reshape the plan), so it keeps the conservative path.
        self._block: "tuple[int, float, int, Request | None] | None" = None
        # Sorted ``(expected_end, nodes)`` release schedule of the
        # running set, cached between passes.  Only :meth:`_start` and
        # :meth:`_finish` mutate ``running``, so both drop the cache;
        # EASY rebuilds it lazily per head reservation (the sort was a
        # visible profile line under overload, where many same-instant
        # reservations share one unchanged running set).
        self._releases_sorted: "list[tuple[float, int]] | None" = None

    # -- callbacks -------------------------------------------------------

    def add_start_callback(self, cb: StartCallback) -> None:
        """Register ``cb(request, time)`` invoked whenever a request starts."""
        self._start_callbacks.append(cb)

    # -- tracing ---------------------------------------------------------

    def _emit(self, etype: str, request: "Request | None" = None) -> None:
        """Record one lifecycle event (callers have checked ``tracer``)."""
        if request is None:
            self.tracer.emit(self.sim.now, etype, self.cluster.index)
        else:
            self.tracer.emit(
                self.sim.now,
                etype,
                self.cluster.index,
                request.request_id,
                getattr(request.group, "job_id", -1),
            )

    # -- public API ------------------------------------------------------

    @property
    def name(self) -> str:
        return f"{self.algorithm}@{self.cluster.name}"

    @property
    def queue_length(self) -> int:
        """Number of pending requests."""
        return self._pending_count

    def pending_requests(self) -> list[Request]:
        """Pending requests in submission order."""
        return [r for r in self.queue if r.is_pending]

    def submit(self, request: Request) -> None:
        """Enqueue ``request`` at the current simulated time."""
        if self.down:
            raise SchedulerDownError(
                f"{self.name}: scheduler is down, submission rejected"
            )
        if request.state is not _CREATED:
            raise SchedulerError(
                f"request {request.request_id} resubmitted (state={request.state})"
            )
        if not self.cluster.can_ever_fit(request.nodes):
            raise SchedulerError(
                f"{self.name}: request for {request.nodes} nodes can never run "
                f"on {self.cluster.total_nodes} nodes"
            )
        now = self.sim.now
        request.state = _PENDING
        request.cluster = self
        request.submitted_at = now
        slot = len(self.queue)
        self.queue.append(request)
        if slot == len(self._q_need):
            self._grow_arrays()
        request.slot = slot
        nodes = request.nodes
        self._q_need[slot] = nodes
        self._q_reqtime[slot] = request.requested_time
        self._pending_count += 1
        self._need_tally[nodes] += 1
        if nodes < self._min_need:
            self._min_need = nodes
        self.stats.submitted += 1
        if self._pending_count > self.stats.max_queue_length:
            self.stats.max_queue_length = self._pending_count
        if self.tracer is not None:
            self._emit("queue", request)
        if self._has_on_submit:
            self._on_submit(request)
        if self.auditor is not None:
            self.auditor.after_submit(self, request)
        blk = self._block
        if blk is None:
            self._request_pass()
        else:
            free, shadow, extra, _head = blk
            # The queue is provably blocked and a submission changes
            # neither the head nor the release schedule, so only the new
            # request itself could start — and only by the cached
            # backfill test (fits now, and finishes before the shadow
            # time or stays within the extra nodes).
            if request.nodes <= free and (
                now + request.requested_time <= shadow
                or request.nodes <= extra
            ):
                self._block = None
                self._request_pass()

    def cancel(self, request: Request, force: bool = False) -> None:
        """Remove a pending request from the queue.

        Only pending requests may be cancelled: the redundancy protocol
        cancels siblings the instant one copy starts, so a running copy
        is never a cancellation target.

        ``force`` bypasses the downed-daemon rejection — used for
        end-of-run bookkeeping (an operator purge outside the measured
        window), never for in-simulation cancellations.
        """
        if self.down and not force:
            raise SchedulerDownError(
                f"{self.name}: scheduler is down, cancellation lost"
            )
        if request.cluster is not self:
            raise SchedulerError(
                f"request {request.request_id} does not belong to {self.name}"
            )
        if request.state is not _PENDING:
            raise SchedulerError(
                f"cannot cancel request {request.request_id} in state "
                f"{request.state.value}"
            )
        request.state = _CANCELLED
        request.cancelled_at = self.sim.now
        self._dequeue(request)
        self.stats.cancelled += 1
        self._maybe_compact()
        if self.tracer is not None:
            self._emit("cancel_applied", request)
        if self._has_on_cancel:
            self._on_cancel(request)
        if self.auditor is not None:
            self.auditor.after_cancel(self, request)
        blk = self._block
        if blk is None:
            self._request_pass()
        elif request is blk[3]:
            # The blocked head is gone: the next pending request defines
            # a new reservation, so the memo is void and a pass is due.
            self._block = None
            self._request_pass()
        # else: the queue stays blocked — removing a non-head pending
        # request changes neither the head reservation nor free nodes,
        # so it cannot make any other request startable.

    # -- outages -----------------------------------------------------------

    def go_down(self, drop_queue: bool = False) -> list[Request]:
        """Take the scheduler daemon down.

        While down, :meth:`submit` and :meth:`cancel` raise
        :class:`SchedulerDownError` and scheduling passes are suspended;
        running requests keep executing and finish normally.  With
        ``drop_queue`` every pending request is lost (the crashed-server
        scenario) and returned so the coordinator can resubmit or
        abandon the affected copies.
        """
        if self.down:
            raise SchedulerError(f"{self.name}: scheduler is already down")
        self.down = True
        self._block = None
        if self.tracer is not None:
            self._emit("outage_down")
        if self.auditor is not None:
            self.auditor.note_outage(self)
        dropped: list[Request] = []
        if drop_queue:
            for request in self.queue:
                if request.is_pending:
                    request.state = RequestState.CANCELLED
                    request.cancelled_at = self.sim.now
                    dropped.append(request)
                    if self.tracer is not None:
                        self._emit("cancel_applied", request)
                    # Route through the cancel hook so subclasses release
                    # per-request state (CBF reservations/profile windows).
                    self._on_cancel(request)
                    if self.auditor is not None:
                        self.auditor.after_cancel(self, request)
            self.queue = []
            self._head = 0
            self._pending_count = 0
            self._reset_need_tally()
            self.stats.dropped += len(dropped)
        return dropped

    def come_up(self) -> None:
        """Bring the scheduler daemon back; resume scheduling."""
        if not self.down:
            raise SchedulerError(f"{self.name}: scheduler is not down")
        self.down = False
        self._block = None
        if self.tracer is not None:
            self._emit("outage_up")
        self._request_pass()

    # -- subclass hooks ----------------------------------------------------

    def _on_submit(self, request: Request) -> None:
        """Called after a request joins the queue (before the pass)."""

    def _on_cancel(self, request: Request) -> None:
        """Called after a request leaves the queue (before the pass)."""

    def _on_finish(self, request: Request) -> None:
        """Called after a request completes (before the pass)."""

    @abc.abstractmethod
    def _schedule_pass(self) -> None:
        """Start requests according to the algorithm."""

    # -- internal machinery ------------------------------------------------

    def _maybe_compact(self) -> None:
        if self._in_pass:
            # Deferred: see ``_in_pass`` — the next pass entry compacts.
            return
        # Proportional trigger: an O(queue) rebuild at most once per
        # ``pending`` cancels keeps cancelling amortised O(1) on queues
        # of thousands; the slack floor keeps short queues as they were.
        pending = self._pending_count
        if len(self.queue) - pending > max(_COMPACT_SLACK, pending):
            self._compact_queue()

    def _compact_queue(self) -> None:
        self.queue = [r for r in self.queue if r.state is _PENDING]
        self._head = 0
        self._sync_queue_arrays()

    def _grow_arrays(self) -> None:
        """Double the struct-of-arrays capacity (amortised O(1) append)."""
        cap = max(len(self._q_need) * 2, _SOA_CAPACITY)
        for name in ("_q_need", "_q_reqtime"):
            old = getattr(self, name)
            fresh = np.zeros(cap, dtype=old.dtype)
            fresh[: len(old)] = old
            setattr(self, name, fresh)

    def _sync_queue_arrays(self) -> None:
        """Rebuild the arrays and slots from the compacted ``queue`` list.

        O(queue); called only by :meth:`_compact_queue`.
        """
        queue = self.queue
        while len(queue) > len(self._q_need):
            self._grow_arrays()
        need = self._q_need
        reqtime = self._q_reqtime
        for i, r in enumerate(queue):  # every entry is pending
            r.slot = i
            need[i] = r.nodes
            reqtime[i] = r.requested_time

    def _reset_need_tally(self) -> None:
        """Empty the smallest-request guard (nothing pending)."""
        total = self.cluster.total_nodes
        self._need_tally = [0] * (total + 1) + [1]
        self._min_need = total + 1

    def _dequeue(self, request: Request) -> None:
        """Account for ``request`` leaving the pending set (start/cancel)."""
        self._q_need[request.slot] = _GONE
        self._pending_count -= 1
        nodes = request.nodes
        tally = self._need_tally
        tally[nodes] -= 1
        if nodes == self._min_need:
            while not tally[nodes]:
                nodes += 1
            self._min_need = nodes

    def _head_index(self) -> int:
        """Advance ``_head`` past started/cancelled slots and return it.

        Equals ``len(queue)`` when nothing is pending.  Amortised O(1):
        each slot is passed once between compactions.
        """
        queue = self.queue
        n = len(queue)
        h = self._head
        while h < n and queue[h].state is not _PENDING:
            h += 1
        self._head = h
        return h

    def _start_possible(self) -> bool:
        """O(1) guard: could the algorithm possibly start anything now?

        All three algorithms only start requests that fit in the free
        nodes right now, so ``free < min pending nodes`` rules a start
        out.  The minimum is exact and ``total_nodes + 1`` when nothing
        is pending, so this prunes every pass where no request fits.
        """
        return self.cluster.free_nodes >= self._min_need

    def _request_pass(self) -> None:
        """Coalesce all same-instant state changes into one pass.

        The :meth:`_start_possible` guard is evaluated *here*, before an
        event is ever allocated: under the paper's overload most state
        changes (submissions into a full cluster, sibling cancellations)
        cannot enable a start, and in the seed kernel the resulting
        guaranteed-no-op pass events were the single largest event
        population.  The guard is exact (false means no pending request
        fits), every enabling transition (finish, submit, come_up,
        reservation timer) re-requests a pass with the guard re-checked,
        and dropping events never reorders the survivors.  An idle pass
        only affects which later passes are idle (the blocked memo, CBF's
        reservation timer), except that CBF's timer also moves periodic
        compression, so CBF with compression on keeps a looser guard.
        """
        if self._pass_pending:
            return
        if self.down or not self._start_possible():
            # A downed daemon starts nothing (come_up() re-requests, so
            # suppressed passes are never lost), and a guard-false pass
            # would return immediately: don't pay for the event.
            return
        self._pass_pending = True
        self.sim.at(self.sim.now, self._run_pass, EventPriority.SCHEDULE)

    def _run_pass(self) -> None:
        self._pass_pending = False
        if self.down:
            # Re-checked: the daemon may have gone down between the
            # request and the pass instant.
            return
        if not self._start_possible():
            return
        # Compact *before* entering the pass (the flag suppresses any
        # reentrant compaction while pass-local snapshots are live).
        self._maybe_compact()
        self._in_pass = True
        try:
            self._schedule_pass()
        finally:
            self._in_pass = False
        if self.auditor is not None:
            self.auditor.after_pass(self)

    def _start(self, request: Request) -> None:
        """Allocate nodes and begin executing ``request`` now.

        The caller must already have removed ``request`` from
        ``self.queue`` (or be iterating with state checks).
        """
        if request.state is not _PENDING:
            raise SchedulerError(
                f"starting request {request.request_id} in state {request.state}"
            )
        now = self.sim.now
        self.cluster.allocate(request.nodes)
        request.state = _RUNNING
        request.start_time = now
        self._dequeue(request)
        self.running.append(request)
        self._releases_sorted = None
        self.stats.started += 1
        if self.tracer is not None:
            self._emit("start", request)
        if self.auditor is not None:
            self.auditor.after_start(self, request)
        self.sim.at(
            now + request.runtime,
            partial(self._finish, request),
            EventPriority.FINISH,
        )
        # Notify listeners last: the coordinator's sibling-cancellation
        # may reentrantly mutate *other* schedulers and mark requests in
        # our own queue cancelled (handled by state checks in passes).
        for cb in self._start_callbacks:
            cb(request, now)

    def _finish(self, request: Request) -> None:
        if request.state is not _RUNNING:  # pragma: no cover
            raise SchedulerError(
                f"finishing request {request.request_id} in state {request.state}"
            )
        request.state = _COMPLETED
        request.end_time = self.sim.now
        self.running.remove(request)
        self.cluster.release(request.nodes)
        self._block = None  # free nodes and the release schedule moved
        self._releases_sorted = None
        self.stats.completed += 1
        if self.tracer is not None:
            self._emit("complete", request)
        if self._has_on_finish:
            self._on_finish(request)
        if self.auditor is not None:
            self.auditor.after_finish(self, request)
        self._request_pass()

    # -- invariants (exercised heavily by tests) -----------------------------

    def check_invariants(self) -> None:
        """Assert node accounting and state consistency."""
        busy = sum(r.nodes for r in self.running)
        assert busy == self.cluster.busy_nodes, (
            f"{self.name}: running jobs hold {busy} nodes but cluster says "
            f"{self.cluster.busy_nodes}"
        )
        assert all(r.state is RequestState.RUNNING for r in self.running)
        # The queue list may hold stale (started/cancelled) entries
        # awaiting lazy compaction, but never CREATED ones.
        assert all(r.state is not RequestState.CREATED for r in self.queue)
        assert self._pending_count == sum(1 for r in self.queue if r.is_pending)
        # Pass state: slots aligned, ``need`` exact, nothing pending
        # before the head, and the guard equal to the true minimum.
        for i, r in enumerate(self.queue):
            assert r.slot == i, f"{self.name}: slot {r.slot} != index {i}"
            assert self._q_need[i] == (r.nodes if r.is_pending else _GONE), (
                f"{self.name}: need[{i}] stale for {r.state.value} request"
            )
        assert not any(r.is_pending for r in self.queue[: self._head]), (
            f"{self.name}: pending request before head {self._head}"
        )
        pending_nodes = [r.nodes for r in self.queue if r.is_pending]
        assert self._min_need == min(
            pending_nodes, default=self.cluster.total_nodes + 1
        ), f"{self.name}: guard {self._min_need} is not the smallest request"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.cluster.name}, "
            f"queue={self.queue_length}, running={len(self.running)})"
        )


def expected_releases(running: Iterable[Request]) -> list[tuple[float, int]]:
    """``(expected_end, nodes)`` pairs for profile construction.

    Computed inline rather than through :attr:`Request.expected_end`:
    this runs once per head reservation, i.e. tens of thousands of
    times per simulation, and the property call was visible in
    profiles.  ``start_time`` is always set for running requests.
    """
    return [
        (r.start_time + r.requested_time, r.nodes)  # type: ignore[operator]
        for r in running
    ]
