"""Discrete-event simulation engine over a pluggable event queue.

The paper used SimGrid purely as a discrete-event substrate with zero
network overhead (Section 3.1.2), so any deterministic event loop is an
equivalent foundation.  This one executes
:class:`~repro.sim.events.Event` callbacks one at a time in exact
``(time, priority, seq)`` order; the events themselves live in a
pluggable *event queue*:

* :class:`~repro.sim.calendar.CalendarQueue` (the default) — one
  stdlib :mod:`heapq` of ``(time, priority, seq, event)`` tuples, so
  every comparison is a C-level tuple comparison;
* :class:`~repro.sim.heapref.BinaryHeapQueue` — the original heap of
  event objects, kept as the differential reference for lockstep and
  byte-identical-trace testing.

Cancellation is lazy everywhere: cancelling marks a tombstone flag
(counted by the owning queue — see :meth:`Event.cancel
<repro.sim.events.Event.cancel>`) and the queue drops flagged events at
extraction or in an amortised purge sweep once they dominate, so
churn-heavy runs (the CBF reservation timer cancels constantly) never
drag a mostly-dead queue around.

Typical usage::

    sim = Simulator()
    sim.at(10.0, lambda: print("fires at t=10"), EventPriority.CONTROL)
    sim.run()
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Optional, Protocol

from .calendar import COMPACT_MIN_TOMBSTONES as _COMPACT_MIN_TOMBSTONES
from .calendar import CalendarQueue
from .events import Event, EventPriority

__all__ = ["EventQueue", "SimulationError", "Simulator"]


class EventQueue(Protocol):
    """What the simulator needs from an event store.

    Implementations must preserve the global ``(time, priority, seq)``
    total order across :meth:`pop`/:meth:`peek` and keep tombstone
    accounting consistent with :meth:`Event.cancel
    <repro.sim.events.Event.cancel>` notifications.
    """

    tombstones: int
    compactions: int

    def __len__(self) -> int: ...
    def push(self, event: Event) -> None: ...
    def pop(self) -> Optional[Event]: ...
    def peek(self) -> Optional[Event]: ...
    def note_cancelled(self, event: Event) -> None: ...
    def compact(self) -> None: ...
    def clear(self) -> None: ...
    def iter_pending(self) -> Iterable[Event]: ...


#: queue class used by ``Simulator()`` when none is injected; tests
#: monkeypatch this to run whole experiments on the reference kernel
_DEFAULT_QUEUE_FACTORY: Callable[[], Any] = CalendarQueue


class SimulationError(RuntimeError):
    """Raised on misuse of the simulator (e.g. scheduling in the past)."""


class Simulator:
    """Single-threaded discrete-event simulator.

    The simulator owns the clock.  Components schedule callbacks with
    :meth:`at` (absolute time) or :meth:`after` (relative delay) and the
    loop in :meth:`run` advances the clock to each event's timestamp
    before invoking its callback.  Callbacks may schedule further events,
    including at the current instant (they run after all previously
    scheduled events at that instant with the same priority).

    Parameters
    ----------
    queue:
        Event store to use; defaults to a fresh
        :class:`~repro.sim.calendar.CalendarQueue`.
    """

    def __init__(self, queue: Optional[EventQueue] = None) -> None:
        #: current simulated time in seconds.  A plain attribute, not a
        #: property: ``sim.now`` is read on every submit/cancel/pass in
        #: the scheduler layer and the descriptor call was measurable.
        #: Owned by the event loop — components must never assign it.
        self.now: float = 0.0
        self._queue: EventQueue = (
            queue if queue is not None else _DEFAULT_QUEUE_FACTORY()
        )
        self._seq: int = 0
        self._running: bool = False
        self._executed: int = 0

    # -- clock ----------------------------------------------------------

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._executed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled)."""
        return len(self._queue)

    @property
    def compactions(self) -> int:
        """Tombstone purge sweeps performed by the event queue."""
        return self._queue.compactions

    @property
    def _tombstones(self) -> int:
        """Cancelled events still sitting in the queue (introspection)."""
        return self._queue.tombstones

    # -- scheduling -----------------------------------------------------

    def at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = EventPriority.CONTROL,
        tag: Any = None,
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``.

        Returns the :class:`Event`, which may be cancelled with
        :meth:`cancel` (or :meth:`Event.cancel`) as long as it has not
        fired.
        """
        if math.isnan(time):
            raise SimulationError("event time is NaN")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        ev = Event(time=float(time), priority=int(priority), seq=self._seq,
                   callback=callback, tag=tag)
        self._seq += 1
        self._queue.push(ev)
        return ev

    def after(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = EventPriority.CONTROL,
        tag: Any = None,
    ) -> Event:
        """Schedule ``callback`` after ``delay`` seconds (must be >= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self.now + delay, callback, priority, tag)

    def cancel(self, event: Event) -> None:
        """Cancel ``event`` lazily.

        Idempotent.  Equivalent to :meth:`Event.cancel`: the event stays
        queued (no re-sift), is dropped when popped, or is swept out
        wholesale once tombstones outnumber live events.
        """
        event.cancel()

    # -- execution ------------------------------------------------------

    def step(self) -> bool:
        """Execute the next non-cancelled event.

        Returns ``True`` if an event was executed, ``False`` if the
        queue is exhausted.
        """
        ev = self._queue.pop()
        if ev is None:
            return False
        if not (ev.time >= self.now):
            self._reject(ev)
        self.now = ev.time
        self._executed += 1
        ev.callback()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        When ``until`` is given, all events with ``time <= until`` are
        executed and the clock is left at ``min(until, last event time)``;
        later events stay queued for a subsequent :meth:`run` call.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        queue = self._queue
        pop = queue.pop
        bounded = until is not None or max_events is not None
        try:
            if not bounded:
                # Hot path: no per-event bound checks beyond the pop.
                while True:
                    ev = pop()
                    if ev is None:
                        return
                    if not (ev.time >= self.now):
                        self._reject(ev)
                    self.now = ev.time
                    self._executed += 1
                    ev.callback()
            executed = 0
            while True:
                ev = pop()
                if ev is None:
                    break
                if max_events is not None and executed >= max_events:
                    queue.push(ev)  # unexecuted: restore verbatim
                    return
                if until is not None and ev.time > until:
                    queue.push(ev)
                    self.now = max(self.now, until)
                    return
                if not (ev.time >= self.now):
                    self._reject(ev)
                self.now = ev.time
                self._executed += 1
                ev.callback()
                executed += 1
            if until is not None:
                self.now = max(self.now, until)
        finally:
            self._running = False

    def _reject(self, ev: Event) -> None:
        """Refuse a popped event that would move the clock back.

        :meth:`at` admits no past or NaN time, so only a faulty event
        queue can hand one back; ``not (t >= now)`` catches NaN too.
        """
        raise SimulationError(
            f"event queue returned an event at t={ev.time} before "
            f"now={self.now} (or a NaN time)"
        )

    def drain(self) -> None:
        """Discard all pending events without executing them."""
        self._queue.clear()

    # -- introspection ---------------------------------------------------

    def peek_time(self) -> float:
        """Time of the next pending event, or ``inf`` when empty."""
        ev = self._queue.peek()
        return ev.time if ev is not None else math.inf

    def iter_pending(self) -> Iterable[Event]:
        """Iterate over live (non-cancelled) pending events, unordered."""
        return self._queue.iter_pending()
