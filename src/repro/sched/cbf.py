"""Conservative Backfilling (CBF, Mu'alem & Feitelson).

Every request receives a *reservation* — a guaranteed latest start time —
the moment it is submitted, and backfilling is allowed only when it
delays no existing reservation.  The reservation made at submission is
also the scheduler's queue-waiting-time prediction, which Section 5 of
the paper evaluates (Table 4).

Implementation: a persistent availability :class:`~repro.sched.profile.Profile`
tracks ``capacity − running holds − reservations`` over time.  All
bookkeeping is incremental and local:

* **submit** — earliest feasible slot in the profile becomes the
  reservation (and the at-submit prediction);
* **reservation due** — a timer fires at the earliest reservation; due
  requests start (their start is guaranteed: actual holds never exceed
  the planned holds because real runtimes never exceed requests);
* **cancel** — the reservation window is returned to the profile;
* **early finish** — the unused tail of the running hold is returned;
* **backfill** — after capacity returns (cancel/early finish), pending
  requests are scanned in submit order and started immediately when the
  profile proves no reservation would be delayed.

Unlike textbook CBF, existing reservations are *not* recomputed
("compressed") when capacity frees up early — freed capacity is instead
consumed by the submit-order backfill scan and by new arrivals, which
may legally reserve ahead of older, later reservations.  This matches
deployed conservative schedulers, keeps every operation O(local profile
scan) in the paper's heavily overloaded regime, and can only make
requests start *earlier* than their guaranteed reservation.  An optional
``compress_interval`` restores periodic compression for ablations
(textbook CBF with eager compression at ``compress_interval=0``);
compression re-places each reservation with all others held fixed, so
it too can only move starts earlier.
"""

from __future__ import annotations

import heapq

from typing import Optional

import numpy as np

from ..cluster.cluster import Cluster
from ..sim.engine import Simulator
from ..sim.events import Event, EventPriority
from .base import _PENDING, Scheduler, SchedulerError
from .job import Request
from .profile import Profile

#: trim past profile segments every this many scheduling passes
_TRIM_EVERY = 256


class CBFScheduler(Scheduler):
    """Conservative backfilling with per-request reservations.

    Parameters
    ----------
    sim, cluster:
        As for :class:`~repro.sched.base.Scheduler`.
    compress_interval:
        ``None`` (default): never recompute reservations — freed
        capacity is used by backfill and new arrivals only.
        ``0``: recompute after every cancellation/early finish
        (textbook CBF with eager compression; O(queue) per event, only
        viable for small workloads).
        ``t > 0``: recompute at most every ``t`` simulated seconds.
    """

    algorithm = "cbf"

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        compress_interval: Optional[float] = None,
    ) -> None:
        super().__init__(sim, cluster)
        self._profile = Profile(sim.now, cluster.total_nodes, cluster.total_nodes)
        # Min-heap of (reserved_start, request_id, request); entries go
        # stale when the request starts early or is cancelled and are
        # discarded lazily on pop.
        self._due: list[tuple[float, int, Request]] = []
        self._timer: Optional[Event] = None
        self._pass_count = 0
        self.compress_interval = compress_interval
        self._dirty = False
        self._last_compress = sim.now
        self.compressions = 0
        # Pass guard with compression on (see _start_possible): the
        # smallest request pending at the last idle pass or submitted since.
        self._pass_floor = 1

    @property
    def profile(self) -> Profile:
        """The availability profile (read-only view for audit tooling)."""
        return self._profile

    # -- event hooks -----------------------------------------------------

    def _on_submit(self, request: Request) -> None:
        if request.nodes < self._pass_floor:
            self._pass_floor = request.nodes
        start = self._profile.find_start(
            request.nodes, request.requested_time, self.sim.now
        )
        self._profile.reserve(start, request.requested_time, request.nodes)
        request.reserved_start = start
        if request.predicted_start_at_submit is None:
            request.predicted_start_at_submit = start
        heapq.heappush(self._due, (start, request.request_id, request))
        self._arm_timer()

    def _on_cancel(self, request: Request) -> None:
        start = request.reserved_start
        assert start is not None, "pending CBF request must hold a reservation"
        self._profile.adjust(
            start, start + request.requested_time, +request.nodes
        )
        request.reserved_start = None
        self._dirty = True

    def _on_finish(self, request: Request) -> None:
        expected_end = request.start_time + request.requested_time
        if self.sim.now < expected_end:
            # Early completion: return the unused tail of the hold.
            self._profile.adjust(self.sim.now, expected_end, +request.nodes)
            self._dirty = True

    # -- scheduling ------------------------------------------------------

    def _schedule_pass(self) -> None:
        now = self.sim.now
        started = self.stats.started
        self._pass_count += 1
        if self._pass_count % _TRIM_EVERY == 0:
            self._profile.trim(now)
        if self._should_compress(now):
            self.compress()

        # 1. Start requests whose reservation is due.
        while self._due:
            start, _, req = self._due[0]
            if not req.is_pending or req.reserved_start != start:
                heapq.heappop(self._due)  # stale entry
                continue
            if start > now:
                break
            heapq.heappop(self._due)
            if start == now:
                self._start_at_reservation(req)
            else:
                self._restore_overdue(req)

        # 2. Backfill: submit-order scan over pending requests, starting
        #    any that provably delay no reservation.  The candidate set
        #    is prefiltered in one vectorised expression against the
        #    *initial* free count; since every early start only shrinks
        #    free_now (reservations sit strictly in the future, so
        #    reentrant sibling cancellations cannot grow it), the filter
        #    is a superset of the old per-request scan and the
        #    per-candidate rechecks below keep the semantics identical.
        free_now = self._profile.free_at(now)
        if free_now >= self._min_need:
            n = len(self.queue)
            candidates = np.flatnonzero(self._q_need[:n] <= free_now)
            for i in candidates:
                if free_now <= 0:
                    break
                req = self.queue[i]
                if req.state is not _PENDING or req.nodes > free_now:
                    continue
                rs = req.reserved_start
                assert rs is not None
                bonus = (rs, rs + req.requested_time, req.nodes)
                if self._profile.can_place(
                    now, req.requested_time, req.nodes, bonus=bonus
                ):
                    self._start_early(req)
                    free_now = self._profile.free_at(now)

        self._arm_timer()
        if self.stats.started == started:
            self._pass_floor = self._min_need

    def _start_at_reservation(self, request: Request) -> None:
        """Start a request exactly at its reserved time (hold == reservation)."""
        if not self.cluster.can_fit(request.nodes):  # pragma: no cover
            raise SchedulerError(
                f"{self.name}: reservation for request {request.request_id} due "
                f"but only {self.cluster.free_nodes} nodes free — profile leak"
            )
        # The reservation window becomes the running hold verbatim; the
        # profile does not change.
        self._start(request)

    def _restore_overdue(self, request: Request) -> None:
        """Re-place a reservation that came due while the daemon was down.

        Passes are suspended during an outage, so a reservation can be
        strictly in the past by the time the daemon recovers.  Starting
        it verbatim would create a hold ending at ``now + requested``
        while the profile only accounts for ``reserved_start +
        requested`` — the difference silently oversubscribes the profile
        tail and later surfaces as a "profile leak".  Instead the stale
        window is released and the request re-placed at its earliest
        feasible time (starting immediately when that is ``now``).
        """
        now = self.sim.now
        rs = request.reserved_start
        d = request.requested_time
        if rs + d > now:
            # Only the future part matters: queries never look back and
            # trim() discards the past remainder.
            self._profile.adjust(now, rs + d, +request.nodes)
        start = self._profile.find_start(request.nodes, d, now)
        if start == now:
            self._profile.adjust(now, now + d, -request.nodes)
            request.reserved_start = now
            self._start(request)
        else:
            self._profile.reserve(start, d, request.nodes)
            request.reserved_start = start
            heapq.heappush(self._due, (start, request.request_id, request))

    def _start_early(self, request: Request) -> None:
        """Start a request before its reservation (backfill)."""
        now = self.sim.now
        rs = request.reserved_start
        d = request.requested_time
        # Swap the reservation window for the hold window.
        self._profile.adjust(rs, rs + d, +request.nodes)
        self._profile.adjust(now, now + d, -request.nodes)
        request.reserved_start = now
        self._start(request)
        self.stats.backfilled += 1

    # -- reservation timer -------------------------------------------------

    def _arm_timer(self) -> None:
        """Keep a wake-up pending at the earliest live reservation.

        Needed because a reservation time may not coincide with any
        finish/submit/cancel event once early completions have shifted
        the actual schedule ahead of the planned one.
        """
        while self._due:
            start, _, req = self._due[0]
            if req.is_pending and req.reserved_start == start:
                break
            heapq.heappop(self._due)
        if not self._due:
            return
        t = self._due[0][0]
        if t <= self.sim.now:
            self._request_pass()
            return
        if self._timer is not None and not self._timer.cancelled:
            if self._timer.time <= t:
                return
            # Tracked cancellation: the engine counts the tombstone and
            # compacts the heap when dead timers start to dominate.
            self.sim.cancel(self._timer)
        self._timer = self.sim.at(t, self._timer_fired, EventPriority.CONTROL)

    def _timer_fired(self) -> None:
        # Drop the handle before requesting the pass: a fired event is
        # never marked ``cancelled``, so keeping it would make every
        # later ``_arm_timer`` call see a "pending" wake-up at a time in
        # the past and suppress re-arming — after the first firing, due
        # reservations would then only start when an unrelated
        # finish/submit/cancel happened to trigger a pass (i.e. late).
        self._timer = None
        self._request_pass()

    # -- base-class guard ----------------------------------------------------

    def _start_possible(self) -> bool:
        # In addition to the free-nodes guard, a pass is useful whenever a
        # reservation is due or compression is pending.
        if self._due and self._due[0][0] <= self.sim.now:
            return True
        if self.compress_interval is None:
            return super()._start_possible()
        # Compression runs in the first pass after its interval, and an
        # idle pass still re-arms the reservation timer, whose firing
        # (even for a reservation gone stale) can be that first pass:
        # idle passes move compression, so keep the looser floor here.
        return (
            self._should_compress(self.sim.now)
            or self.cluster.free_nodes >= self._pass_floor
        )

    # -- compression (optional; ablation/textbook mode) ------------------------

    def _should_compress(self, now: float) -> bool:
        return (
            self.compress_interval is not None
            and self._dirty
            and now - self._last_compress >= self.compress_interval
        )

    def compress(self) -> None:
        """Move reservations earlier where freed capacity allows.

        Each pending request is removed from the live profile and
        re-inserted at its earliest feasible time, in submission order,
        while every *other* reservation stays in place.  Because a
        request's own window is freed before the search, its old slot is
        always still feasible, so a reservation can only move earlier —
        the at-submit guarantee survives compression.

        (A from-scratch greedy rebuild does *not* have this property:
        re-placing an earlier-submitted request into a freed gap can
        consume the very window a later request's reservation sat in,
        pushing the later request past its guaranteed start.)
        """
        now = self.sim.now
        origin = self._profile.times[0]
        for req in self.queue:
            if not req.is_pending:
                continue
            rs = req.reserved_start
            d = req.requested_time
            release_from = rs if rs > origin else origin
            if rs + d > release_from:
                self._profile.adjust(release_from, rs + d, +req.nodes)
            # With rs >= now the freed slot guarantees find_start <= rs;
            # rs < now only after an outage, where the request is simply
            # re-placed from now (its guarantee is already void).
            start = self._profile.find_start(req.nodes, d, now)
            self._profile.reserve(start, d, req.nodes)
            if start != rs:
                req.reserved_start = start
                heapq.heappush(self._due, (start, req.request_id, req))
        self._dirty = False
        self._last_compress = now
        self.compressions += 1

    # -- invariants ------------------------------------------------------------

    def check_invariants(self) -> None:
        super().check_invariants()
        self._profile.check_invariants()
        for req in self.queue:
            if req.is_pending:
                assert req.reserved_start is not None
                assert req.predicted_start_at_submit is not None
