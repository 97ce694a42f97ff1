"""The redundant-request protocol: fan out, first-start wins, cancel the rest.

This is the user-side mechanism the paper studies (Section 2): a job's
request is submitted to several batch queues simultaneously; the
application sends a callback when it starts executing, at which point
the user (here, the coordinator) cancels the sibling requests.

The coordinator is scheduler-agnostic — it only uses the public
``submit``/``cancel`` API plus the start-notification callback, exactly
the interface a real user script has via ``qsub``/``qdel`` and a
placeholder callback.  Cancellation is instantaneous by default (the
paper's Section 3 assumption of zero network/middleware overhead); a
``cancellation_latency`` can be injected for the ablation study of that
assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Optional, Sequence

from ..cluster.platform import Platform
from ..faults import FaultInjector
from ..policies.cancellation import (
    DEFAULT_CANCELLATION_POLICY,
    CancellationPolicy,
    get_cancellation_policy,
)
from ..sched.base import SchedulerDownError
from ..sched.job import Request, RequestState
from ..sim.engine import Simulator
from ..sim.events import EventPriority
from ..workload.stream import StreamJob


class InvariantError(AssertionError):
    """A first-start-wins protocol invariant was violated.

    Subclasses ``AssertionError`` for drop-in compatibility with callers
    that treated invariant checks as assertions, but is raised
    explicitly so ``python -O`` cannot strip the checks.
    """


@dataclass
class RedundantJob:
    """One user job together with all of its requests.

    The *winner* is the first request to start; its timings define the
    job's wait, turnaround and stretch.
    """

    job_id: int
    spec: StreamJob
    requests: list[Request] = field(default_factory=list)
    target_clusters: list[int] = field(default_factory=list)
    winner: Optional[Request] = None

    @property
    def started(self) -> bool:
        return self.winner is not None

    @property
    def completed(self) -> bool:
        return self.winner is not None and self.winner.state is RequestState.COMPLETED

    @property
    def n_copies(self) -> int:
        return len(self.requests)

    @property
    def uses_redundancy(self) -> bool:
        return self.spec.uses_redundancy and self.n_copies > 1


class Coordinator:
    """Submits redundant requests and cancels losers on first start.

    Parameters
    ----------
    sim, platform:
        The shared simulator and the multi-cluster platform.
    cancellation_latency:
        Delay between a copy starting and the sibling cancellations
        taking effect (default 0, the paper's assumption).  During the
        latency window a sibling may start too; the late copy is then
        detected and killed immediately at start (its node-seconds are
        wasted — the cost the ablation measures).
    remote_inflation:
        Extra requested time on remote copies, as a fraction.  Models
        the Section 3.1.2 late-data-binding padding (users request 10 %
        or 50 % more time on remote clusters to upload input data after
        the allocation is granted).
    fault_injector:
        Optional :class:`~repro.faults.FaultInjector`.  When present,
        sibling cancellations may be lost or delayed per its config,
        and submissions rejected by a downed scheduler are retried or
        abandoned per its policy.  ``None`` (the default) keeps the
        perfect-world protocol bit-identical to the fault-free code.
    observer:
        Optional lifecycle observer (a
        :class:`~repro.obs.trace.TraceRecorder` or an
        :class:`~repro.sanitize.auditor.InvariantAuditor`).  The
        coordinator reports the protocol-side events (``submit``,
        ``cancel_sent``, ``cancel_lost``, ``winner_complete`` and the
        check-only ``duplicate_start``) through ``observer.on``, passing
        the scheduler the event concerns; the schedulers report the
        queue-side ones.  ``None`` (the default) costs one ``is not
        None`` check per site.
    policy:
        The :class:`~repro.policies.cancellation.CancellationPolicy`
        deciding *when* sibling cancellations are dispatched (a policy
        name is also accepted).  The default, ``cancel-on-start``, is
        the paper's protocol and is byte-identical to the pre-policy
        coordinator; ``cancel-on-complete`` defers the sweep until the
        winner finishes, so losers may legally run beside it as waste.
    """

    def __init__(
        self,
        sim: Simulator,
        platform: Platform,
        cancellation_latency: float = 0.0,
        remote_inflation: float = 0.0,
        fault_injector: Optional[FaultInjector] = None,
        observer: Optional[Any] = None,
        policy: CancellationPolicy | str = DEFAULT_CANCELLATION_POLICY,
    ) -> None:
        if cancellation_latency < 0:
            raise ValueError(
                f"cancellation latency must be >= 0, got {cancellation_latency}"
            )
        if remote_inflation < 0:
            raise ValueError(
                f"remote inflation must be >= 0, got {remote_inflation}"
            )
        self.sim = sim
        self.platform = platform
        self.cancellation_latency = cancellation_latency
        self.remote_inflation = remote_inflation
        self.fault_injector = fault_injector
        self.observer = observer
        if isinstance(policy, str):
            policy = get_cancellation_policy(policy)
        self.policy = policy
        self.jobs: list[RedundantJob] = []
        #: requests that started despite a sibling winning first (late
        #: or lost cancellations); their node-seconds are pure waste
        self.duplicate_starts: list[Request] = []
        #: cancellation messages dropped (probability draw) or rejected
        #: by a downed scheduler — each leaves an orphaned copy queued
        self.lost_cancellations = 0
        #: submissions rejected because the target scheduler was down
        self.failed_submissions = 0
        #: copies successfully submitted again after an outage
        self.resubmissions = 0
        self._total_requests = 0
        self._total_cancellations = 0
        self._finalized = False
        for sched in platform.schedulers:
            sched.add_start_callback(self._on_request_start)

    # -- submission ------------------------------------------------------

    def submit_job(self, spec: StreamJob, targets: Sequence[int]) -> RedundantJob:
        """Create one request per target cluster, all at ``spec.arrival``.

        Must be called at simulation time ``spec.arrival`` (use
        :meth:`schedule_job` to arrange that from time 0).
        """
        if not targets:
            raise ValueError("job needs at least one target cluster")
        if targets[0] != spec.origin:
            raise ValueError(
                f"first target must be the origin cluster {spec.origin}, "
                f"got {targets[0]}"
            )
        job = RedundantJob(
            job_id=len(self.jobs), spec=spec, target_clusters=list(targets)
        )
        self.jobs.append(job)
        for target in targets:
            requested = spec.requested_time
            if target != spec.origin and self.remote_inflation > 0:
                requested *= 1.0 + self.remote_inflation
            req = Request(
                nodes=spec.nodes,
                runtime=spec.runtime,
                requested_time=requested,
                submit_time=spec.arrival,
                group=job,
                name=f"job{job.job_id}@{target}",
            )
            sched = self.platform.scheduler_at(target)
            if self.observer is not None:
                self.observer.on("submit", sched, req)
            try:
                sched.submit(req)
            except SchedulerDownError:
                # A subset of targets being down must not sink the whole
                # job: the remaining copies proceed, and this one is
                # retried at recovery or abandoned per policy.
                self.failed_submissions += 1
                self._handle_unsubmittable(job, req, target)
                continue
            job.requests.append(req)
            self._total_requests += 1
        return job

    def schedule_job(self, spec: StreamJob, targets: Sequence[int]) -> None:
        """Arrange for :meth:`submit_job` to run at the job's arrival time."""
        self.sim.at(
            spec.arrival,
            partial(self.submit_job, spec, targets),
            EventPriority.SUBMIT,
        )

    # -- the first-start-wins protocol ------------------------------------

    def _on_request_start(self, request: Request, now: float) -> None:
        job = request.group
        if not isinstance(job, RedundantJob):
            return  # request not managed by this coordinator
        if job.winner is not None:
            # A sibling started despite the winner: its cancellation was
            # in flight (positive latency), lost, or swallowed by a
            # downed scheduler.  Count the waste; the duplicate run
            # completes (we cannot cancel running jobs), but it
            # contributes nothing to the job's metrics.
            self.duplicate_starts.append(request)
            if self.observer is not None:
                self.observer.on("duplicate_start", request.cluster, request, self)
            return
        job.winner = request
        self.policy.on_winner_start(self, job)

    def dispatch_cancellations(self, job: RedundantJob) -> None:
        """Dispatch the sibling-cancellation sweep for ``job`` now.

        The one entry point policies use: applies the configured scalar
        latency or per-loser fault-injected delays, draws them in
        request order (determinism), and skips requests that are no
        longer PENDING.  Under ``cancel-on-start`` this runs at the
        winner's start instant — structurally the pre-policy code.
        """
        injector = self.fault_injector
        if injector is not None and injector.has_cancel_delay:
            # Per-loser delays from the configured distribution replace
            # the scalar latency.  Draw in request order (determinism).
            for req in job.requests:
                if req is job.winner or req.state is not RequestState.PENDING:
                    continue
                self.sim.after(
                    injector.draw_cancel_delay(),
                    partial(self._cancel_one, req),
                    EventPriority.CANCEL,
                )
        elif self.cancellation_latency == 0.0:
            self._cancel_losers(job)
        else:
            self.sim.after(
                self.cancellation_latency,
                partial(self._cancel_losers, job),
                EventPriority.CANCEL,
            )

    def on_winner_complete(self, job: RedundantJob) -> None:
        """Cancel-on-complete's deferred sweep, at the winner's finish.

        Scheduled by
        :class:`~repro.policies.cancellation.CancelOnComplete` at
        ``start + runtime`` with CANCEL priority, so it fires before the
        winner's FINISH event releases its nodes: still-pending losers
        are withdrawn before they could start on the freed capacity.
        Losers that already started are skipped by the PENDING check in
        the dispatch path and run to completion as tracked waste.
        """
        winner = job.winner
        if winner is None:  # pragma: no cover - defensive
            return
        if self.observer is not None:
            self.observer.on("winner_complete", winner.cluster, winner)
        self.dispatch_cancellations(job)

    def _cancel_losers(self, job: RedundantJob) -> None:
        for req in job.requests:
            if req is not job.winner:
                self._cancel_one(req)

    def _cancel_one(self, request: Request, force: bool = False) -> None:
        """Issue one sibling cancellation, subject to fault draws.

        ``force`` bypasses loss draws and downed daemons — reserved for
        :meth:`finalize`'s end-of-run bookkeeping.
        """
        if request.state is not RequestState.PENDING:
            return  # already started (duplicate), dropped, or cancelled
        observer = self.observer
        if observer is not None:
            observer.on("cancel_sent", request.cluster, request)
        injector = self.fault_injector
        if not force and injector is not None and injector.cancel_lost():
            # The qdel never arrives; the orphan stays queued and will
            # run to completion as pure waste if it ever starts.
            self.lost_cancellations += 1
            if observer is not None:
                observer.on("cancel_lost", request.cluster, request)
            return
        try:
            request.cluster.cancel(request, force=force)
        except SchedulerDownError:
            self.lost_cancellations += 1
            if observer is not None:
                observer.on("cancel_lost", request.cluster, request)
            return
        self._total_cancellations += 1

    # -- outage recovery ---------------------------------------------------

    def _handle_unsubmittable(
        self, job: RedundantJob, request: Request, target: int
    ) -> None:
        """Decide what to do with a copy rejected by a downed scheduler."""
        injector = self.fault_injector
        if injector is None or injector.config.resubmit_policy != "resubmit":
            return  # abandon this copy; any sibling copies carry the job
        recovery = injector.earliest_recovery([target], self.sim.now)
        if recovery is None:
            return  # downed out-of-band (no known window): nothing to await
        self.sim.at(
            recovery,
            partial(self._try_resubmit, job, request, target),
            EventPriority.SUBMIT,
        )

    def _try_resubmit(
        self, job: RedundantJob, request: Request, target: int
    ) -> None:
        if self._finalized:
            # A recovery scheduled past the horizon can fire while the
            # queue drains after finalize(); injecting a fresh copy into
            # a finalized run would corrupt the accounting.
            return
        if job.winner is not None:
            return  # a sibling already started; don't add churn
        sched = self.platform.scheduler_at(target)
        if self.observer is not None:
            self.observer.on("submit", sched, request)
        try:
            sched.submit(request)
        except SchedulerDownError:
            # Back-to-back outage: route through the policy again.
            self.failed_submissions += 1
            self._handle_unsubmittable(job, request, target)
            return
        job.requests.append(request)
        self._total_requests += 1
        self.resubmissions += 1

    def on_requests_dropped(
        self, dropped: Sequence[Request], resume_time: float
    ) -> None:
        """React to an outage that lost a scheduler's pending queue.

        Dropped copies of already-started jobs need nothing — the drop
        did the cancellation's work for free.  For jobs still waiting,
        the policy either resubmits a fresh copy once the scheduler
        recovers (at ``resume_time``) or abandons it.
        """
        injector = self.fault_injector
        resubmit = (
            injector is not None
            and injector.config.resubmit_policy == "resubmit"
        )
        for request in dropped:
            job = request.group
            if not isinstance(job, RedundantJob):
                continue
            if job.winner is not None or not resubmit:
                continue
            self.sim.at(
                resume_time,
                partial(self._resubmit_copy, job, request),
                EventPriority.SUBMIT,
            )

    def _resubmit_copy(self, job: RedundantJob, lost: Request) -> None:
        """Submit a fresh copy replacing one lost in a queue drop."""
        if self._finalized or job.winner is not None:
            return
        scheduler = lost.cluster
        fresh = lost.copy_spec()
        if self.observer is not None:
            self.observer.on("submit", scheduler, fresh)
        try:
            scheduler.submit(fresh)
        except SchedulerDownError:
            self.failed_submissions += 1
            self._handle_unsubmittable(job, fresh, scheduler.cluster.index)
            return
        job.requests.append(fresh)
        self._total_requests += 1
        self.resubmissions += 1

    def finalize(self) -> None:
        """End-of-run bookkeeping; call once the simulation has stopped.

        A job whose winner starts inside the final cancellation-latency
        window has its sibling-cancellation event scheduled past the
        horizon, so without this pass those losers would be left PENDING
        forever.  Forced cancellation bypasses fault draws and downed
        daemons: this models the operator purge after the measurement
        window, not simulated middleware traffic.  Also latches the
        finalized flag so stray recovery callbacks draining after the
        horizon cannot resubmit copies into the closed run.
        """
        self._finalized = True
        for job in self.jobs:
            if job.winner is None:
                continue
            for req in job.requests:
                if req is not job.winner and req.state is RequestState.PENDING:
                    self._cancel_one(req, force=True)

    # -- accounting --------------------------------------------------------

    @property
    def total_requests(self) -> int:
        """Requests submitted across all queues."""
        return self._total_requests

    @property
    def total_cancellations(self) -> int:
        """Sibling cancellations issued (the churn the paper studies)."""
        return self._total_cancellations

    def unfinished_jobs(self) -> list[RedundantJob]:
        """Jobs that have not completed (diagnostics; empty after a full run)."""
        return [j for j in self.jobs if not j.completed]

    def abandoned_jobs(self) -> int:
        """Jobs that lost every copy to faults before any could start.

        Zero in a fault-free run: a job without a winner always keeps at
        least one pending copy, because losers are only cancelled after
        a sibling wins.
        """
        return sum(
            1
            for job in self.jobs
            if job.winner is None
            and not any(r.is_active for r in job.requests)
        )

    def wasted_node_seconds(self, now: float) -> float:
        """Node-seconds burned by non-winning copies that ran anyway.

        Covers both late starts (cancellation in flight) and orphans
        from lost cancellations.  A duplicate still running at ``now``
        is charged up to ``now``.
        """
        total = 0.0
        for req in self.duplicate_starts:
            if req.start_time is None:  # pragma: no cover - defensive
                continue
            end = req.end_time if req.end_time is not None else now
            total += max(0.0, min(end, now) - req.start_time) * req.nodes
        return total

    def check_invariants(self) -> None:
        """Every job has exactly one winner once started; losers never run.

        Raises :class:`InvariantError` explicitly (bare ``assert`` would
        be stripped under ``python -O``), identifying the offending job
        and request.
        """
        duplicate_ids = {id(r) for r in self.duplicate_starts}
        ran = (RequestState.RUNNING, RequestState.COMPLETED)
        ended = (RequestState.PENDING, RequestState.CANCELLED)
        for job in self.jobs:
            if job.winner is None:
                continue
            for req in job.requests:
                if req is job.winner:
                    role, allowed = "winner", ran
                elif id(req) in duplicate_ids:
                    role, allowed = "duplicate start", ran
                else:
                    role, allowed = "loser", ended
                if req.state not in allowed:
                    raise InvariantError(
                        f"job {job.job_id}: {role} request "
                        f"{req.request_id} is {req.state.value}, expected "
                        f"one of ({', '.join(s.value for s in allowed)})"
                    )
