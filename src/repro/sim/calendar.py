"""The kernel's event queue: one stdlib heap of C-comparable tuples.

Events are stored as ``(time, priority, seq, event)`` tuples in a single
:mod:`heapq` list, so every sift is a C tuple comparison (``seq`` is
unique, the tie-break never reaches the event object).  The former
object heap — kept as :class:`~repro.sim.heapref.BinaryHeapQueue` — paid
a Python-level ``Event.__lt__`` call per comparison instead;
``tests/sim/test_calendar_lockstep.py`` proves the two structures
execution-order equivalent under hypothesis-driven interleavings.  (The
module and class names are from an earlier time-bucketed version; the
benchmark tracer binds them by name, so they stay.)

Cancellation is lazy (tombstone flag, dropped at extraction), and
accounting lives on the event side: :meth:`Event.cancel
<repro.sim.events.Event.cancel>` notifies its owning queue, so direct
``Event.cancel()`` calls and :meth:`Simulator.cancel
<repro.sim.engine.Simulator.cancel>` feed the same compaction trigger.
Compaction is one filter + heapify once tombstones dominate.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterator, Optional

from .events import Event

#: compact once at least this many tombstones exist *and* they
#: outnumber live events (amortised O(1) per cancellation)
COMPACT_MIN_TOMBSTONES = 512

_Entry = tuple[float, int, int, Event]


class CalendarQueue:
    """Event queue ordered by ``(time, priority, seq)``."""

    __slots__ = ("_heap", "tombstones", "compactions")

    def __init__(self) -> None:
        #: (time, priority, seq, event) entries, tombstones included
        self._heap: list[_Entry] = []
        #: cancelled events still sitting in the heap
        self.tombstones = 0
        #: purge sweeps performed (observability counter)
        self.compactions = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, event: Event) -> None:
        """Insert ``event`` (also used to restore an unexecuted pop)."""
        event.owner = self
        heappush(self._heap, (event.time, event.priority, event.seq, event))

    def pop(self) -> Optional[Event]:
        """Remove and return the next *live* event, or ``None`` if empty.

        Tombstones encountered on the way out are discarded and
        uncounted.
        """
        heap = self._heap
        while heap:
            event = heappop(heap)[3]
            event.owner = None
            if event.cancelled:
                if self.tombstones > 0:
                    self.tombstones -= 1
                continue
            return event
        return None

    def peek(self) -> Optional[Event]:
        """The next live event without removing it (``None`` if empty).

        Cancelled events at the front are permanently discarded, so a
        subsequent :meth:`pop` is O(1) amortised.
        """
        heap = self._heap
        while heap:
            event = heap[0][3]
            if not event.cancelled:
                return event
            heappop(heap)
            event.owner = None
            if self.tombstones > 0:
                self.tombstones -= 1
        return None

    def note_cancelled(self, event: Event) -> None:
        """Account one tombstone; compact when they dominate.

        Called by :meth:`Event.cancel <repro.sim.events.Event.cancel>`
        for every event cancelled while it still sits in this queue.
        """
        self.tombstones += 1
        if (
            self.tombstones >= COMPACT_MIN_TOMBSTONES
            and self.tombstones * 2 >= len(self._heap)
        ):
            self.compact()

    def compact(self) -> None:
        """Purge tombstones in one filter + re-heapify."""
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapify(heap)
        self.tombstones = 0
        self.compactions += 1

    def clear(self) -> None:
        """Discard every entry (live and tombstoned)."""
        for entry in self._heap:
            entry[3].owner = None
        self._heap.clear()
        self.tombstones = 0

    def iter_pending(self) -> Iterator[Event]:
        """Live events in heap order (not sorted)."""
        return (entry[3] for entry in self._heap if not entry[3].cancelled)
