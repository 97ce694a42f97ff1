"""EASY aggressive backfilling (Lifka, ANL/IBM SP).

The algorithm the paper treats as "representative of algorithms running
in deployed systems today":

1. start queued requests in order while they fit;
2. give the (non-fitting) head request a *reservation*: the shadow time
   at which enough nodes will be free assuming running requests hold
   their nodes for their full requested times;
3. backfill any later request that either (a) will finish (per its
   requested time) before the shadow time, or (b) uses only nodes that
   are spare even after the head starts (the "extra" nodes).

Backfilling is re-attempted after every submission, cancellation and
completion — cancellations and early completions are exactly the churn
the paper studies.
"""

from __future__ import annotations

import math

import numpy as np

from .base import Scheduler, expected_releases


class EASYScheduler(Scheduler):
    """Aggressive backfilling with a single head reservation."""

    algorithm = "easy"

    def _head_reservation(self, head_nodes: int) -> tuple[float, int]:
        """Shadow time and extra nodes for a head needing ``head_nodes``.

        Returns ``(shadow, extra)`` where ``shadow`` is the earliest time
        the head is guaranteed to start and ``extra`` is the number of
        nodes free at ``shadow`` beyond what the head consumes.  Requests
        backfilled against this bound can never delay the head.
        """
        free = self.cluster.free_nodes
        if free >= head_nodes:
            return self.sim.now, free - head_nodes
        releases = self._releases_sorted
        if releases is None:
            releases = self._releases_sorted = sorted(
                expected_releases(self.running)
            )
        avail = free
        shadow = math.inf
        for end, nodes in releases:
            avail += nodes
            if avail >= head_nodes:
                shadow = end
                # Nodes freed *after* the shadow time do not matter for
                # the extra-node bound; stop accumulating here.
                break
        else:  # pragma: no cover - head always fits eventually
            raise AssertionError("head request can never start")
        extra = avail - head_nodes
        return shadow, extra

    def _schedule_pass(self) -> None:
        # Fixpoint loop: every start changes free nodes (and, through
        # sibling cancellation, possibly other slots), so the head
        # reservation is recomputed until nothing can start.  The head
        # is ``_head`` advanced in Python; backfill is one vectorised
        # comparison against ``need``, whose sentinel keeps dead slots
        # and the (non-fitting) head out.  At the benchmark's queue
        # sizes (54 slots at the median, 21 pending, 213 at most) each
        # array call costs about its fixed numpy overhead, so they are
        # few.  ``queue`` never grows mid-pass: ``n`` and views stay valid.
        queue = self.queue
        cluster = self.cluster
        n = len(queue)
        need = self._q_need[:n]
        rt = self._q_reqtime[:n]
        now = self.sim.now
        while True:
            h = self._head_index()
            free = cluster.free_nodes
            if h == n:
                # Empty queue: only a new submission that fits outright
                # can start (it becomes the head), which the memo's
                # ``extra = free`` bound expresses exactly.
                self._block = (free, -math.inf, free, None)
                return
            head = queue[h]
            if head.nodes <= free:
                self._start(head)
                continue
            shadow, extra = self._head_reservation(head.nodes)
            # Backfill the first request that fits now and ends by the
            # shadow or stays within ``extra``; skipped when the guard
            # shows nothing fits.  Keep ``now + rt <= shadow`` verbatim:
            # ``rt <= shadow - now`` rounds differently.
            if self._min_need <= free:
                ok = need <= np.where(now + rt <= shadow, free, min(free, extra))
                i = ok.argmax()
                if ok[i]:
                    req = queue[i]
                    self._start(req)
                    self.stats.backfilled += 1
                    if self.observer is not None:
                        # Legality: recomputed from the post-start state,
                        # the head's shadow time must not have moved later.
                        self.observer.on("backfill", self, req, (head, shadow))
                    continue
            self._block = (free, shadow, extra, head)
            return
