"""Reference binary-heap event queue (the original kernel).

This is the original object-per-event binary heap, preserved verbatim
behind the same queue interface as
:class:`~repro.sim.calendar.CalendarQueue`, which stores tuple keys
instead of event objects.  It is **not** used by
default — it exists as the differential reference:

* ``tests/sim/test_calendar_lockstep.py`` runs the two queues in
  lockstep under hypothesis-driven schedule/cancel/compact
  interleavings and asserts identical execution order;
* ``tests/integration/test_kernel_equivalence.py`` runs full traced
  experiments on both kernels and asserts byte-identical traces.

Ordering uses :meth:`Event.__lt__ <repro.sim.events.Event.__lt__>`
(the Python-level ``(time, priority, seq)`` comparison), exactly as the
old engine did, so any divergence between the structures is a bug in
the tuple keys, not a shared assumption.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Optional

from .calendar import COMPACT_MIN_TOMBSTONES
from .events import Event


class BinaryHeapQueue:
    """Single binary heap of events ordered by ``(time, priority, seq)``."""

    __slots__ = ("_heap", "tombstones", "compactions")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self.tombstones = 0
        self.compactions = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, event: Event) -> None:
        event.owner = self
        heapq.heappush(self._heap, event)

    def pop(self) -> Optional[Event]:
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            event.owner = None
            if event.cancelled:
                if self.tombstones > 0:
                    self.tombstones -= 1
                continue
            return event
        return None

    def peek(self) -> Optional[Event]:
        heap = self._heap
        while heap:
            event = heap[0]
            if not event.cancelled:
                return event
            heapq.heappop(heap)
            event.owner = None
            if self.tombstones > 0:
                self.tombstones -= 1
        return None

    def note_cancelled(self, event: Event) -> None:
        self.tombstones += 1
        if (
            self.tombstones >= COMPACT_MIN_TOMBSTONES
            and self.tombstones * 2 >= len(self._heap)
        ):
            self.compact()

    def compact(self) -> None:
        """Rebuild the heap without tombstones (one filter + heapify)."""
        heap = self._heap
        heap[:] = [ev for ev in heap if not ev.cancelled]
        heapq.heapify(heap)
        self.tombstones = 0
        self.compactions += 1

    def clear(self) -> None:
        for event in self._heap:
            event.owner = None
        self._heap.clear()
        self.tombstones = 0

    def iter_pending(self) -> Iterator[Event]:
        return (ev for ev in self._heap if not ev.cancelled)
