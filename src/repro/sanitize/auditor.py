"""Runtime invariant auditor: prove each run obeyed the rules.

The auditor is a lifecycle observer, like the :mod:`repro.obs.trace`
recorder: every scheduler and the coordinator hold one ``observer``
attribute that defaults to ``None``, and each hook site costs exactly
one ``is not None`` check when nothing is attached — results are
bit-identical to an unaudited run.  The auditor's :meth:`~InvariantAuditor.on`
receives the recorded lifecycle events plus three check-only ones
(``pass``, ``backfill``, ``duplicate_start``).  Monotone, finite event
times are not the auditor's job: the kernel itself refuses any event
earlier than its clock or with a NaN time, in every run.  With an
auditor armed, every state transition is independently re-derived and
checked:

========================  ==================================================
``capacity``              allocated + free == total on every cluster, and
                          the nodes held by the running set equal the
                          cluster's busy count, after every transition
``fcfs-order``            an FCFS start never leaves an earlier-submitted
                          request pending (submission order preserved)
``easy-backfill``         an EASY backfill never moves the head request's
                          shadow (guaranteed start) time later
``cbf-reservation``       a CBF request never starts after its at-submit
                          prediction (waived for clusters whose daemon
                          suffered an outage — guarantees cannot survive
                          a suspended scheduler), and no pending
                          reservation is ever left overdue after a
                          scheduling pass
``profile``               the CBF availability profile satisfies its
                          representation invariants
                          (:meth:`~repro.sched.profile.Profile.check_invariants`,
                          promoted here from test-only use) **and** equals
                          a from-scratch reconstruction out of the running
                          holds and pending reservations (capacity leaks in
                          the incremental bookkeeping cannot hide)
``duplicate-start``       a job never runs on two clusters after its winner
                          starts unless the losing copy's cancellation is
                          explicitly accounted as lost (fault draw or
                          downed daemon) or still legally in flight
                          (positive cancellation latency / delay draws)
``protocol``              end-of-run: winner uniqueness, loser states, and
                          request/queue bookkeeping across the platform
========================  ==================================================

Violations carry the offending simulated time, cluster/request/job ids
and the tail of the lifecycle trace leading up to the violation (the
auditor records every event into its own
:class:`~repro.obs.trace.TraceRecorder`), so a report shows *what the
simulation was doing* when the invariant broke.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..obs.trace import TraceRecorder, format_event
from ..sched.job import Request, RequestState
from ..sched.profile import Profile, ProfileError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.platform import Platform
    from ..core.config import ExperimentConfig
    from ..core.coordinator import Coordinator
    from ..core.results import ExperimentResult
    from ..sched.base import Scheduler

#: absolute slack for floating-point time comparisons (seconds)
TIME_EPS = 1e-6

#: violation kinds the auditor can report, in rough lifecycle order
VIOLATION_KINDS = (
    "capacity",
    "state",
    "fcfs-order",
    "easy-backfill",
    "cbf-reservation",
    "profile",
    "duplicate-start",
    "protocol",
)


class AuditError(AssertionError):
    """Raised (in ``raise`` mode) the instant an invariant is violated.

    Subclasses ``AssertionError`` so callers that treated invariant
    checks as assertions keep working, but is raised explicitly so
    ``python -O`` cannot strip the checks.
    """


@dataclass(frozen=True)
class Violation:
    """One observed invariant violation, with obs-layer context."""

    time: float
    kind: str
    message: str
    cluster: int = -1
    request_id: int = -1
    job_id: int = -1
    #: tail of the lifecycle trace leading up to the violation —
    #: ``(time, type, cluster, request, job)`` tuples, oldest first —
    #: empty when nothing was recorded yet
    trace_context: tuple = ()

    def describe(self) -> str:
        """Multi-line human-readable rendering (used by ``repro check``)."""
        where = []
        if self.cluster >= 0:
            where.append(f"cluster={self.cluster}")
        if self.request_id >= 0:
            where.append(f"request={self.request_id}")
        if self.job_id >= 0:
            where.append(f"job={self.job_id}")
        head = (
            f"[{self.kind}] t={self.time:.3f}"
            + (f" ({', '.join(where)})" if where else "")
            + f": {self.message}"
        )
        if not self.trace_context:
            return head
        lines = [head, "  trace context (most recent last):"]
        for event in self.trace_context:
            lines.append(f"    {format_event(event)}")
        return "\n".join(lines)


class InvariantAuditor:
    """Per-transition invariant checks over one simulated run.

    Attach it as the run's ``observer``.  Every event goes first into
    :attr:`recorder`, whose last ``context_events`` entries ride along
    with each violation, and then to the check registered for its type.

    Parameters
    ----------
    mode:
        ``"raise"`` (default) raises :class:`AuditError` on the first
        violation — the debugging posture.  ``"collect"`` records every
        violation (up to ``max_violations``) and lets the run finish —
        the ``repro check`` reporting posture.
    context_events:
        How many trailing trace events each violation captures.
    cbf_profile_every:
        Run the (relatively expensive) from-scratch CBF profile
        reconstruction on every Nth scheduling pass per scheduler; the
        cheap representation-invariant check still runs on every pass.
    """

    def __init__(
        self,
        mode: str = "raise",
        context_events: int = 8,
        max_violations: int = 100,
        cbf_profile_every: int = 4,
    ) -> None:
        if mode not in ("raise", "collect"):
            raise ValueError(f"mode must be 'raise' or 'collect', got {mode!r}")
        if cbf_profile_every < 1:
            raise ValueError(
                f"cbf_profile_every must be >= 1, got {cbf_profile_every}"
            )
        self.mode = mode
        #: every recorded lifecycle event of the run, for violation context
        self.recorder = TraceRecorder()
        self.context_events = int(context_events)
        self.max_violations = int(max_violations)
        self.cbf_profile_every = int(cbf_profile_every)
        self.violations: list[Violation] = []
        #: violations beyond ``max_violations`` (counted, not stored)
        self.suppressed = 0
        #: individual invariant checks evaluated (observability counter)
        self.checks = 0
        self._pass_counts: dict[int, int] = {}
        #: request ids whose sibling cancellation was recorded as lost —
        #: these copies may legally run beside their winner
        self._lost_cancel_ids: set[int] = set()
        #: per-scheduler key of the last started request, for the O(1)
        #: FCFS monotone-start check
        self._fcfs_last_start: dict[int, tuple[float, int]] = {}
        #: schedulers whose daemon went down at least once — at-submit
        #: start guarantees cannot survive an outage (passes are
        #: suspended and overdue reservations are re-placed on recovery),
        #: so the prediction check is waived for these clusters
        self._outage_scheds: set[int] = set()
        self._checks = {
            "queue": self._after_submit,
            "start": self._after_start,
            "cancel_applied": self._after_cancel,
            "complete": self._after_finish,
            "pass": self._after_pass,
            "backfill": self._check_easy_backfill,
            "outage_down": self._note_outage,
            "cancel_lost": self._note_cancel_lost,
            "duplicate_start": self._check_duplicate_start,
        }

    def on(
        self, etype: str, sched: "Scheduler",
        request: Optional[Request] = None, detail=None,
    ) -> None:
        """The observer hook: record the event, then check it."""
        self.recorder.on(etype, sched, request, detail)
        check = self._checks.get(etype)
        if check is not None:
            check(sched, request, detail)

    # -- reporting ---------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.violations and self.suppressed == 0

    @property
    def total_violations(self) -> int:
        return len(self.violations) + self.suppressed

    def _violate(
        self,
        time: float,
        kind: str,
        message: str,
        cluster: int = -1,
        request: Optional[Request] = None,
    ) -> None:
        context = tuple(self.recorder.events[-self.context_events:])
        violation = Violation(
            time=time,
            kind=kind,
            message=message,
            cluster=cluster,
            request_id=request.request_id if request is not None else -1,
            job_id=(
                getattr(request.group, "job_id", -1)
                if request is not None
                else -1
            ),
            trace_context=context,
        )
        if self.mode == "raise":
            raise AuditError(violation.describe())
        if len(self.violations) < self.max_violations:
            self.violations.append(violation)
        else:
            self.suppressed += 1

    def _check(
        self,
        condition: bool,
        time: float,
        kind: str,
        message: str,
        cluster: int = -1,
        request: Optional[Request] = None,
    ) -> None:
        self.checks += 1
        if not condition:
            self._violate(time, kind, message, cluster, request)

    # -- scheduler hooks ---------------------------------------------------

    def _check_capacity(self, sched: "Scheduler") -> None:
        cluster = sched.cluster
        now = sched.sim.now
        held = sum(r.nodes for r in sched.running)
        self._check(
            0 <= cluster.free_nodes <= cluster.total_nodes,
            now,
            "capacity",
            f"{sched.name}: free_nodes={cluster.free_nodes} outside "
            f"[0, {cluster.total_nodes}]",
            cluster=cluster.index,
        )
        self._check(
            held == cluster.busy_nodes,
            now,
            "capacity",
            f"{sched.name}: running requests hold {held} nodes but the "
            f"cluster accounts {cluster.busy_nodes} busy "
            f"(allocated + free != total)",
            cluster=cluster.index,
        )
        self._check(
            all(r.state is RequestState.RUNNING for r in sched.running),
            now,
            "state",
            f"{sched.name}: non-RUNNING request in the running set",
            cluster=cluster.index,
        )

    def _after_submit(
        self, sched: "Scheduler", request: Request, detail=None
    ) -> None:
        now = sched.sim.now
        idx = sched.cluster.index
        self._check(
            request.state is RequestState.PENDING,
            now,
            "state",
            f"{sched.name}: submitted request {request.request_id} is "
            f"{request.state.value}, not pending",
            cluster=idx,
            request=request,
        )
        if sched.algorithm == "cbf":
            rs = request.reserved_start
            self._check(
                rs is not None and rs >= now - TIME_EPS,
                now,
                "cbf-reservation",
                f"{sched.name}: request {request.request_id} submitted "
                f"without a future reservation (reserved_start={rs})",
                cluster=idx,
                request=request,
            )

    def _after_start(
        self, sched: "Scheduler", request: Request, detail=None
    ) -> None:
        now = sched.sim.now
        idx = sched.cluster.index
        self._check_capacity(sched)
        if sched.algorithm == "fcfs":
            key = (request.submitted_at, request.request_id)
            last = self._fcfs_last_start.get(id(sched))
            self._check(
                last is None or key >= last,
                now,
                "fcfs-order",
                f"{sched.name}: request {request.request_id} "
                f"(submitted t={request.submitted_at}) started after a "
                f"later-submitted request (FCFS order broken)",
                cluster=idx,
                request=request,
            )
            self._fcfs_last_start[id(sched)] = key
            earlier = [
                r
                for r in sched.queue
                if r.is_pending
                and (r.submitted_at, r.request_id) < key
            ]
            self._check(
                not earlier,
                now,
                "fcfs-order",
                f"{sched.name}: request {request.request_id} started while "
                f"{len(earlier)} earlier-submitted request(s) stayed pending "
                f"(first: {earlier[0].request_id if earlier else '-'})",
                cluster=idx,
                request=request,
            )
        elif sched.algorithm == "cbf":
            predicted = request.predicted_start_at_submit
            if predicted is not None and id(sched) not in self._outage_scheds:
                self._check(
                    request.start_time <= predicted + TIME_EPS,
                    now,
                    "cbf-reservation",
                    f"{sched.name}: request {request.request_id} started at "
                    f"t={request.start_time} after its at-submit guarantee "
                    f"t={predicted}",
                    cluster=idx,
                    request=request,
                )

    def _after_cancel(
        self, sched: "Scheduler", request: Request, detail=None
    ) -> None:
        now = sched.sim.now
        idx = sched.cluster.index
        self._check(
            request.state is RequestState.CANCELLED
            and request not in sched.running,
            now,
            "state",
            f"{sched.name}: cancelled request {request.request_id} is "
            f"{request.state.value} or still in the running set",
            cluster=idx,
            request=request,
        )
        if sched.algorithm == "cbf":
            self._check(
                request.reserved_start is None,
                now,
                "cbf-reservation",
                f"{sched.name}: cancelled request {request.request_id} still "
                f"holds a reservation at t={request.reserved_start}",
                cluster=idx,
                request=request,
            )

    def _after_finish(
        self, sched: "Scheduler", request: Request, detail=None
    ) -> None:
        now = sched.sim.now
        self._check_capacity(sched)
        self._check(
            request.end_time is not None
            and request.start_time is not None
            and abs(request.end_time - request.start_time - request.runtime)
            <= TIME_EPS,
            now,
            "state",
            f"{sched.name}: request {request.request_id} finished at "
            f"t={request.end_time} but started t={request.start_time} with "
            f"runtime {request.runtime}",
            cluster=sched.cluster.index,
            request=request,
        )

    def _after_pass(self, sched: "Scheduler", request=None, detail=None) -> None:
        self._check_capacity(sched)
        if sched.algorithm == "cbf":
            self._audit_cbf_pass(sched)

    # -- EASY backfill legality --------------------------------------------

    def _check_easy_backfill(
        self, sched: "Scheduler", request: Request,
        detail: "tuple[Request, float]",
    ) -> None:
        """A backfill must never delay the head's guaranteed start.

        Reported by the EASY pass right after a backfilled start, with
        ``detail = (head, shadow_before)``: the shadow time computed
        *before* the start.  The auditor recomputes the shadow from the
        post-start running set and requires it not to have moved later.
        ``head`` may have been cancelled reentrantly by the start's
        sibling-cancellation callbacks, in which case there is no
        reservation left to protect.
        """
        head, shadow_before = detail
        if not head.is_pending:
            return
        now = sched.sim.now
        shadow_after, _ = sched._head_reservation(head.nodes)
        self._check(
            shadow_after <= shadow_before + TIME_EPS,
            now,
            "easy-backfill",
            f"{sched.name}: backfilling request {request.request_id} moved "
            f"head request {head.request_id}'s shadow time from "
            f"t={shadow_before} to t={shadow_after} (illegal backfill)",
            cluster=sched.cluster.index,
            request=request,
        )

    # -- CBF profile audit -------------------------------------------------

    def _audit_cbf_pass(self, sched: "Scheduler") -> None:
        now = sched.sim.now
        idx = sched.cluster.index
        profile = sched.profile
        self.checks += 1
        try:
            profile.check_invariants()
        except (AssertionError, ProfileError) as exc:
            self._violate(
                now, "profile",
                f"{sched.name}: profile representation invariant broken: {exc}",
                cluster=idx,
            )
            return
        for req in sched.queue:
            if req.is_pending:
                rs = req.reserved_start
                self._check(
                    rs is not None and rs >= now - TIME_EPS,
                    now,
                    "cbf-reservation",
                    f"{sched.name}: request {req.request_id}'s reservation "
                    f"t={rs} is overdue after the pass (a backfill delayed "
                    f"an earlier-arriving job's reserved start?)",
                    cluster=idx,
                    request=req,
                )
        count = self._pass_counts.get(id(sched), 0) + 1
        self._pass_counts[id(sched)] = count
        if count % self.cbf_profile_every == 0:
            self._reconstruct_cbf_profile(sched)

    def _reconstruct_cbf_profile(self, sched: "Scheduler") -> None:
        """Rebuild the availability profile from scratch and diff it.

        The incremental profile must equal ``capacity − running holds −
        pending reservations`` at every breakpoint from ``now`` on; any
        drift means a window was leaked or double-released somewhere in
        the submit/cancel/backfill/early-finish bookkeeping.
        """
        now = sched.sim.now
        idx = sched.cluster.index
        total = sched.cluster.total_nodes
        expected = Profile(now, total, total)
        try:
            for run in sched.running:
                end = run.expected_end
                if end > now:
                    expected.adjust(now, end, -run.nodes)
            for req in sched.queue:
                if not req.is_pending:
                    continue
                rs = req.reserved_start
                if rs is None:
                    continue  # already reported by the overdue check
                start = max(rs, now)
                end = rs + req.requested_time
                if end > start:
                    expected.adjust(start, end, -req.nodes)
        except ProfileError as exc:
            self._violate(
                now, "profile",
                f"{sched.name}: running holds + reservations oversubscribe "
                f"the cluster: {exc}",
                cluster=idx,
            )
            return
        actual = sched.profile
        points = sorted(
            {t for t in actual.times if t >= now} | set(expected.times)
        )
        self.checks += 1
        for t in points:
            want = expected.free_at(t)
            got = actual.free_at(t)
            if got != want:
                self._violate(
                    now, "profile",
                    f"{sched.name}: incremental profile drifted from "
                    f"reconstruction at t={t}: profile says {got} free, "
                    f"running holds + reservations imply {want} "
                    f"(capacity leak in the profile bookkeeping)",
                    cluster=idx,
                )
                return

    def _note_outage(self, sched: "Scheduler", request=None, detail=None) -> None:
        """Record that ``sched``'s daemon went down (its ``outage_down``).

        A downed daemon suspends scheduling passes, so reservations can
        go overdue and at-submit start guarantees become unkeepable; the
        CBF prediction check is waived for this scheduler from here on.
        """
        self._outage_scheds.add(id(sched))

    # -- coordinator hooks -------------------------------------------------

    def _note_cancel_lost(
        self, sched: "Scheduler", request: Request, detail=None
    ) -> None:
        """Record that ``request``'s sibling cancellation was lost.

        Lost copies are the *explicitly accounted* exception to the
        one-winner rule: they may start beside the winner later, and
        :meth:`_check_duplicate_start` treats them as explained.
        """
        self._lost_cancel_ids.add(request.request_id)

    def _check_duplicate_start(
        self, sched: "Scheduler", request: Request, coordinator: "Coordinator"
    ) -> None:
        job = request.group
        now = coordinator.sim.now
        injector = coordinator.fault_injector
        explained = (
            request.request_id in self._lost_cancel_ids
            or coordinator.cancellation_latency > 0
            or (injector is not None and injector.has_cancel_delay)
            # Under cancel-on-complete losers legally start while the
            # winner still runs: the cancellation sweep has not been
            # dispatched yet, so a duplicate start is the protocol
            # working as designed, not an anomaly.
            or coordinator.policy.expects_duplicate_starts
        )
        self._check(
            explained,
            now,
            "duplicate-start",
            f"job {job.job_id}: request {request.request_id} started on "
            f"cluster {request.cluster.cluster.index} although the winner "
            f"(request {job.winner.request_id}) already runs on cluster "
            f"{job.winner.cluster.cluster.index} — and no lost cancellation "
            f"or in-flight latency accounts for it",
            cluster=request.cluster.cluster.index,
            request=request,
        )

    # -- end-of-run audit --------------------------------------------------

    def final_check(
        self, platform: "Platform", coordinator: Optional["Coordinator"] = None
    ) -> None:
        """Audit the quiesced platform and the first-start-wins protocol."""
        now = platform.sim.now
        for sched in platform.schedulers:
            self._check_capacity(sched)
            pending = sum(1 for r in sched.queue if r.is_pending)
            self._check(
                pending == sched.queue_length,
                now,
                "state",
                f"{sched.name}: cached pending count {sched.queue_length} "
                f"!= {pending} actually pending",
                cluster=sched.cluster.index,
            )
            self._check(
                all(r.state is not RequestState.CREATED for r in sched.queue),
                now,
                "state",
                f"{sched.name}: unsubmitted (CREATED) request in the queue",
                cluster=sched.cluster.index,
            )
            if sched.algorithm == "fcfs":
                keys = [
                    (r.submitted_at, r.request_id)
                    for r in sched.queue
                    if r.is_pending
                ]
                self._check(
                    keys == sorted(keys),
                    now,
                    "fcfs-order",
                    f"{sched.name}: pending queue is not in submission order",
                    cluster=sched.cluster.index,
                )
        if coordinator is None:
            return
        duplicate_ids = {r.request_id for r in coordinator.duplicate_starts}
        ran = (RequestState.RUNNING, RequestState.COMPLETED)
        for job in coordinator.jobs:
            if job.winner is None:
                self._check(
                    not any(r.state in ran for r in job.requests),
                    now,
                    "protocol",
                    f"job {job.job_id}: a request ran but the job has no "
                    f"winner",
                )
                continue
            self._check(
                job.winner.state in ran,
                now,
                "protocol",
                f"job {job.job_id}: winner request "
                f"{job.winner.request_id} is {job.winner.state.value}",
                request=job.winner,
            )
            for req in job.requests:
                if req is job.winner or req.state not in ran:
                    continue
                explained = (
                    req.request_id in duplicate_ids
                    and (
                        req.request_id in self._lost_cancel_ids
                        or coordinator.cancellation_latency > 0
                        or (
                            coordinator.fault_injector is not None
                            and coordinator.fault_injector.has_cancel_delay
                        )
                        # cancel-on-complete: running losers are the
                        # policy's design, still counted as waste above
                        or coordinator.policy.expects_duplicate_starts
                    )
                )
                self._check(
                    explained,
                    now,
                    "duplicate-start",
                    f"job {job.job_id}: loser request {req.request_id} ran "
                    f"on cluster {req.cluster.cluster.index} beside winner "
                    f"{job.winner.request_id} without an accounted lost or "
                    f"in-flight cancellation",
                    cluster=req.cluster.cluster.index,
                    request=req,
                )


def run_single_audited(
    config: "ExperimentConfig",
    replication: int = 0,
    mode: str = "collect",
    cbf_profile_every: int = 4,
) -> "tuple[ExperimentResult | None, InvariantAuditor]":
    """Run one replication with the auditor as its observer.

    Returns ``(result, auditor)``; in ``collect`` mode the run always
    finishes and ``auditor.violations`` holds what broke (empty = the
    run provably obeyed every audited invariant).  Request ids are
    reset on entry so violation reports are a pure function of
    ``(config, replication)``.
    """
    from ..core.experiment import run_single
    from ..sched.job import reset_request_ids

    reset_request_ids()
    auditor = InvariantAuditor(mode=mode, cbf_profile_every=cbf_profile_every)
    result = run_single(config, replication, observer=auditor)
    return result, auditor
