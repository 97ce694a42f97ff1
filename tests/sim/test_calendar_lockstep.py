"""Tuple-keyed kernel queue vs reference object heap: execution order.

``CalendarQueue`` replaced the kernel's object heap; its only contract
is that the global ``(time, priority, seq)`` execution order is
*exactly* the reference heap's, including same-time/same-priority ties,
tombstoned (cancelled) entries and compaction sweeps at arbitrary
points.  These tests drive both structures through identical
hypothesis-generated interleavings of push/pop/peek/cancel/compact and
assert they emit the same event sequence.

Events carry an owner backref (one queue at a time), so each logical
event exists as a twin pair — one instance per structure — with
identical ordering keys.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.calendar import CalendarQueue, COMPACT_MIN_TOMBSTONES
from repro.sim.engine import Simulator
from repro.sim.events import Event, EventPriority
from repro.sim.heapref import BinaryHeapQueue


def _twin(time, priority, seq):
    """One logical event as a (calendar, heap) instance pair."""
    return (
        Event(time=time, priority=priority, seq=seq, callback=lambda: None),
        Event(time=time, priority=priority, seq=seq, callback=lambda: None),
    )


def _key(event):
    return (event.time, event.priority, event.seq)


# Operation stream: pushes draw times from a small range (forcing
# near and exact same-time collisions) and priorities from the
# full enum (forcing priority and seq tie-breaks).
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.floats(min_value=0.0, max_value=200.0, allow_nan=False,
                      allow_infinity=False),
            st.sampled_from(list(EventPriority)),
        ),
        st.tuples(st.just("pop")),
        st.tuples(st.just("peek")),
        # Cancel the i-th pushed event (mod the live count at op time).
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
        st.tuples(st.just("compact")),
    ),
    min_size=1,
    max_size=120,
)


class TestLockstep:
    @settings(max_examples=200, deadline=None)
    @given(ops=_ops)
    def test_interleaved_ops_match_heap(self, ops):
        """Arbitrary push/pop/peek/cancel/compact interleavings agree."""
        cal = CalendarQueue()
        heap = BinaryHeapQueue()
        pushed: list[tuple[Event, Event]] = []
        seq = 0
        for op in ops:
            if op[0] == "push":
                _, time, priority = op
                twins = _twin(time, int(priority), seq)
                seq += 1
                pushed.append(twins)
                cal.push(twins[0])
                heap.push(twins[1])
            elif op[0] == "pop":
                a, b = cal.pop(), heap.pop()
                assert (a is None) == (b is None)
                if a is not None:
                    assert _key(a) == _key(b)
                    assert a.owner is None and b.owner is None
            elif op[0] == "peek":
                a, b = cal.peek(), heap.peek()
                assert (a is None) == (b is None)
                if a is not None:
                    assert _key(a) == _key(b)
            elif op[0] == "cancel":
                if pushed:
                    ev_c, ev_h = pushed[op[1] % len(pushed)]
                    # Event.cancel() routes through the owner backref —
                    # the unified accounting path, not Simulator.cancel.
                    ev_c.cancel()
                    ev_h.cancel()
            else:  # compact
                cal.compact()
                heap.compact()
        # Drain whatever is left: the full tail must agree too.
        while True:
            a, b = cal.pop(), heap.pop()
            assert (a is None) == (b is None)
            if a is None:
                break
            assert _key(a) == _key(b)
        assert len(cal) == 0 and len(heap) == 0

    def test_same_time_orders_by_priority_then_seq(self):
        """Explicit tie ladder: one instant, every priority, seq FIFO."""
        cal = CalendarQueue()
        seq = 0
        for priority in reversed(list(EventPriority)):  # worst-case insert order
            for _ in range(3):
                cal.push(Event(time=50.0, priority=int(priority), seq=seq,
                               callback=lambda: None))
                seq += 1
        got = []
        while (ev := cal.pop()) is not None:
            got.append((ev.priority, ev.seq))
        assert got == sorted(got)
        assert len(got) == len(EventPriority) * 3

    def test_bucket_boundary_does_not_reorder(self):
        """Times a hair apart (once a bucket edge) pop in time order."""
        cal = CalendarQueue()
        times = [16.0 - 1e-9, 16.0, 16.0 + 1e-9, 2 * 16.0, 0.0]
        for i, t in enumerate(times):
            cal.push(Event(time=t, priority=0, seq=i, callback=lambda: None))
        got = []
        while (ev := cal.pop()) is not None:
            got.append(ev.time)
        assert got == sorted(times)


class TestTombstoneAccounting:
    """Regression: direct ``Event.cancel()`` feeds compaction accounting.

    The pre-rewrite kernel only counted tombstones inside
    ``Simulator.cancel``; churn through ``Event.cancel()`` (the handle
    the schedulers hold) was invisible, so a queue full of dead events
    never triggered a purge.  Accounting now lives on the event side:
    ``Event.cancel()`` notifies the owning queue, making both paths one.
    """

    @pytest.mark.parametrize("factory", [CalendarQueue, BinaryHeapQueue])
    def test_direct_event_cancel_counts_tombstones(self, factory):
        q = factory()
        events = [
            Event(time=float(i), priority=0, seq=i, callback=lambda: None)
            for i in range(10)
        ]
        for ev in events:
            q.push(ev)
        for ev in events[:4]:
            ev.cancel()  # not Simulator.cancel — the once-untracked path
        assert q.tombstones == 4
        ev = q.pop()
        assert ev is events[4]  # tombstones silently skipped
        assert q.tombstones == 0  # all four discarded on the way out

    @pytest.mark.parametrize("factory", [CalendarQueue, BinaryHeapQueue])
    def test_direct_event_cancel_triggers_compaction(self, factory):
        q = factory()
        n = COMPACT_MIN_TOMBSTONES + 8
        events = [
            Event(time=float(i), priority=0, seq=i, callback=lambda: None)
            for i in range(n)
        ]
        for ev in events:
            q.push(ev)
        for ev in events:
            ev.cancel()
        # Tombstones came to dominate: the queue must have purged itself
        # without any Simulator involvement at all.
        assert q.compactions >= 1
        assert q.tombstones < COMPACT_MIN_TOMBSTONES
        assert len(q) < n

    def test_simulator_cancel_and_event_cancel_are_one_path(self):
        sim = Simulator()
        a = sim.at(5.0, lambda: None)
        b = sim.at(6.0, lambda: None)
        sim.cancel(a)
        b.cancel()
        assert sim._tombstones == 2
        # Idempotent from either side, counted once.
        sim.cancel(a)
        a.cancel()
        assert sim._tombstones == 2

    def test_cancel_after_pop_is_not_counted(self):
        q = CalendarQueue()
        ev = Event(time=1.0, priority=0, seq=0, callback=lambda: None)
        q.push(ev)
        assert q.pop() is ev
        ev.cancel()  # owner already detached: nothing to account
        assert q.tombstones == 0


def _events(n, start=0):
    return [
        Event(time=float(i % 7), priority=0, seq=i, callback=lambda: None)
        for i in range(start, start + n)
    ]


@pytest.mark.parametrize("factory", [CalendarQueue, BinaryHeapQueue])
class TestQueueContract:
    """The queue surface the simulator relies on, for both structures."""

    def test_clear_detaches_every_entry(self, factory):
        q = factory()
        events = _events(5)
        for ev in events:
            q.push(ev)
        events[0].cancel()
        q.clear()
        assert len(q) == 0 and q.tombstones == 0
        assert all(ev.owner is None for ev in events)
        events[1].cancel()  # no owner left to account it
        assert q.tombstones == 0
        assert q.pop() is None and q.peek() is None

    def test_peek_discards_front_tombstones(self, factory):
        q = factory()
        events = _events(4)
        for ev in events:
            q.push(ev)
        events[0].cancel()  # times 0.0 and 1.0: the two earliest
        events[1].cancel()
        assert q.tombstones == 2
        live = q.peek()
        assert live is not None and not live.cancelled
        assert q.tombstones == 0 and len(q) == 2
        assert q.pop() is live

    def test_compaction_waits_for_tombstones_to_be_half(self, factory):
        q = factory()
        n = 4 * COMPACT_MIN_TOMBSTONES
        events = _events(n)
        for ev in events:
            q.push(ev)
        # Enough tombstones, but only a quarter of the entries.
        for ev in events[:COMPACT_MIN_TOMBSTONES]:
            ev.cancel()
        assert q.compactions == 0 and q.tombstones == COMPACT_MIN_TOMBSTONES
        for ev in events[COMPACT_MIN_TOMBSTONES:n // 2 - 1]:
            ev.cancel()
        assert q.compactions == 0
        events[n // 2 - 1].cancel()  # now exactly half
        assert q.compactions == 1
        assert q.tombstones == 0 and len(q) == n // 2
        assert sorted(ev.seq for ev in q.iter_pending()) == list(
            range(n // 2, n)
        )

    def test_iter_pending_lists_live_events_only(self, factory):
        q = factory()
        events = _events(6)
        for ev in events:
            q.push(ev)
        events[2].cancel()
        events[4].cancel()
        assert sorted(ev.seq for ev in q.iter_pending()) == [0, 1, 3, 5]


def test_churn_counters_match_reference():
    """Length, tombstones and compaction count agree op by op under a
    long random churn, so ``heap_compactions`` in results cannot move."""
    rng = random.Random(20060619)
    cal, heap = CalendarQueue(), BinaryHeapQueue()
    live: list[tuple[Event, Event]] = []
    for seq in range(20_000):
        roll = rng.random()
        if roll < 0.5 or not live:
            t = rng.uniform(0.0, 500.0)
            twins = _twin(t, rng.randrange(len(EventPriority)), seq)
            cal.push(twins[0])
            heap.push(twins[1])
            live.append(twins)
        elif roll < 0.9:
            ev_c, ev_h = live.pop(rng.randrange(len(live)))
            ev_c.cancel()
            ev_h.cancel()
        else:
            a, b = cal.pop(), heap.pop()
            assert _key(a) == _key(b)
            live = [tw for tw in live if tw[0] is not a]
        assert (len(cal), cal.tombstones, cal.compactions) == (
            len(heap), heap.tombstones, heap.compactions
        )
    assert cal.compactions > 0
