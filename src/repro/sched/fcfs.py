"""First-Come First-Serve scheduler (no backfilling).

The paper's baseline comparator: requests start strictly in submission
order; if the head of the queue does not fit, nothing behind it may
start, so large head requests blockade the queue.
"""

from __future__ import annotations

import math

from .base import Scheduler


class FCFSScheduler(Scheduler):
    """Start the head of the queue whenever it fits; never skip it."""

    algorithm = "fcfs"

    def _schedule_pass(self) -> None:
        # The head is ``_head`` advanced past dead slots: at the
        # benchmark's queue sizes (54 slots at the median, 21 pending,
        # 213 at most) a state check per slot beats any numpy call.
        queue = self.queue
        while True:
            h = self._head_index()
            free = self.cluster.free_nodes
            if h == len(queue):
                # Empty queue: a new submission starts iff it fits, the
                # ``extra = free`` memo bound (see the base class).
                self._block = (free, -math.inf, free, None)
                return
            head = queue[h]
            if head.nodes > free:
                # Blockaded: with no backfilling, *no* submission can
                # start behind the stuck head (extra = -1 rejects all).
                self._block = (free, -math.inf, -1, head)
                return
            self._start(head)

    def check_invariants(self) -> None:
        super().check_invariants()
        # FCFS never reorders: the pending queue must remain sorted by
        # (submission time, request id).
        keys = [
            (r.submitted_at, r.request_id) for r in self.queue if r.is_pending
        ]
        assert keys == sorted(keys), f"{self.name}: queue out of FCFS order"
