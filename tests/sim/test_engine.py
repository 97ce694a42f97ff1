"""Unit tests for the discrete-event simulation engine."""

import math

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import EventPriority


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_advances_to_event_time(self, sim):
        sim.at(5.0, lambda: None)
        sim.run()
        assert sim.now == 5.0

    def test_run_until_stops_clock_at_until(self, sim):
        sim.at(10.0, lambda: None)
        sim.run(until=4.0)
        assert sim.now == 4.0
        assert sim.pending_events == 1

    def test_run_until_executes_boundary_events(self, sim):
        fired = []
        sim.at(4.0, lambda: fired.append(1))
        sim.run(until=4.0)
        assert fired == [1]

    def test_restored_event_keeps_its_place(self, sim):
        """An event ``run(until=...)`` popped but did not execute goes
        back with its original seq, ahead of later same-instant peers."""
        order = []
        sim.at(10.0, lambda: order.append("first"))
        sim.run(until=5.0)
        sim.at(10.0, lambda: order.append("later"))
        sim.at(10.0, lambda: order.append("submit"), EventPriority.SUBMIT)
        sim.run()
        assert order == ["submit", "first", "later"]

    def test_clock_monotone_across_runs(self, sim):
        sim.at(3.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0
        sim.at(7.0, lambda: None)
        sim.run()
        assert sim.now == 7.0


class TestOrdering:
    def test_time_order(self, sim):
        order = []
        sim.at(2.0, lambda: order.append("b"))
        sim.at(1.0, lambda: order.append("a"))
        sim.run()
        assert order == ["a", "b"]

    def test_priority_breaks_time_ties(self, sim):
        order = []
        sim.at(1.0, lambda: order.append("submit"), EventPriority.SUBMIT)
        sim.at(1.0, lambda: order.append("cancel"), EventPriority.CANCEL)
        sim.at(1.0, lambda: order.append("finish"), EventPriority.FINISH)
        sim.run()
        assert order == ["cancel", "finish", "submit"]

    def test_seq_breaks_priority_ties_fifo(self, sim):
        order = []
        for i in range(5):
            sim.at(1.0, lambda i=i: order.append(i), EventPriority.CONTROL)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_schedule_priority_runs_after_state_changes(self, sim):
        order = []
        sim.at(1.0, lambda: order.append("sched"), EventPriority.SCHEDULE)
        sim.at(1.0, lambda: order.append("submit"), EventPriority.SUBMIT)
        sim.run()
        assert order == ["submit", "sched"]


class TestScheduling:
    def test_at_rejects_past(self, sim):
        sim.at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(4.0, lambda: None)

    def test_at_rejects_nan(self, sim):
        with pytest.raises(SimulationError):
            sim.at(float("nan"), lambda: None)

    def test_after_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.after(-1.0, lambda: None)

    def test_after_relative_to_now(self, sim):
        times = []
        sim.at(3.0, lambda: sim.after(2.0, lambda: times.append(sim.now)))
        sim.run()
        assert times == [5.0]

    def test_same_time_self_scheduling(self, sim):
        """Events may schedule at the current instant; they run afterwards."""
        order = []

        def first():
            order.append("first")
            sim.at(sim.now, lambda: order.append("second"))

        sim.at(1.0, first)
        sim.run()
        assert order == ["first", "second"]


class TestCancellation:
    def test_cancelled_event_not_executed(self, sim):
        fired = []
        ev = sim.at(1.0, lambda: fired.append(1))
        ev.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        ev = sim.at(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        sim.run()

    def test_peek_time_skips_cancelled(self, sim):
        ev = sim.at(1.0, lambda: None)
        sim.at(2.0, lambda: None)
        ev.cancel()
        assert sim.peek_time() == 2.0

    def test_peek_time_empty_is_inf(self, sim):
        assert sim.peek_time() == math.inf


class TestExecution:
    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_step_executes_one_event(self, sim):
        fired = []
        sim.at(1.0, lambda: fired.append(1))
        sim.at(2.0, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]

    def test_events_executed_counter(self, sim):
        for t in (1.0, 2.0, 3.0):
            sim.at(t, lambda: None)
        sim.run()
        assert sim.events_executed == 3

    def test_max_events_bound(self, sim):
        for t in (1.0, 2.0, 3.0):
            sim.at(t, lambda: None)
        sim.run(max_events=2)
        assert sim.events_executed == 2
        assert sim.pending_events == 1

    def test_drain_discards_pending(self, sim):
        fired = []
        sim.at(1.0, lambda: fired.append(1))
        sim.drain()
        sim.run()
        assert fired == []

    def test_not_reentrant(self, sim):
        def recurse():
            sim.run()

        sim.at(1.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()

    def test_iter_pending_excludes_cancelled(self, sim):
        ev1 = sim.at(1.0, lambda: None, tag="a")
        sim.at(2.0, lambda: None, tag="b")
        ev1.cancel()
        tags = [e.tag for e in sim.iter_pending()]
        assert tags == ["b"]

    def test_cascading_events(self, sim):
        """Each event schedules the next; all run in order."""
        seen = []

        def chain(n):
            seen.append(n)
            if n < 5:
                sim.after(1.0, lambda: chain(n + 1))

        sim.at(0.0, lambda: chain(0))
        sim.run()
        assert seen == [0, 1, 2, 3, 4, 5]
        assert sim.now == 5.0


class TestLazyCancellation:
    """Tracked tombstones and the amortised heap compaction."""

    def test_tracked_cancel_not_executed(self, sim):
        fired = []
        ev = sim.at(1.0, lambda: fired.append(1))
        sim.cancel(ev)
        sim.run()
        assert fired == []

    def test_tracked_cancel_idempotent(self, sim):
        ev = sim.at(1.0, lambda: None)
        sim.cancel(ev)
        sim.cancel(ev)
        assert sim._tombstones == 1

    def test_compaction_sweeps_dominant_tombstones(self, sim):
        from repro.sim.engine import _COMPACT_MIN_TOMBSTONES

        n = _COMPACT_MIN_TOMBSTONES
        live = [sim.at(float(i), lambda: None) for i in range(4)]
        dead = [sim.at(10.0 + i, lambda: None) for i in range(n)]
        for ev in dead:
            sim.cancel(ev)
        # The sweep fired: only the live events remain in the heap.
        assert sim.pending_events == len(live)
        assert sim._tombstones == 0
        fired = []
        for i, ev in enumerate(live):
            ev.callback = lambda i=i: fired.append(i)
        sim.run()
        assert fired == [0, 1, 2, 3]

    def test_no_compaction_below_threshold(self, sim):
        evs = [sim.at(float(i), lambda: None) for i in range(10)]
        for ev in evs[:5]:
            sim.cancel(ev)
        assert sim.pending_events == 10  # lazily retained
        assert sim._tombstones == 5
        sim.run()
        assert sim.events_executed == 5

    def test_popped_tombstone_decrements_counter(self, sim):
        ev = sim.at(1.0, lambda: None)
        sim.at(2.0, lambda: None)
        sim.cancel(ev)
        assert sim.peek_time() == 2.0
        assert sim._tombstones == 0

    def test_compaction_preserves_ordering(self, sim):
        from repro.sim.engine import _COMPACT_MIN_TOMBSTONES

        order = []
        for t in (3.0, 1.0, 2.0):
            sim.at(t, lambda t=t: order.append(t))
        doomed = [sim.at(100.0, lambda: None)
                  for _ in range(_COMPACT_MIN_TOMBSTONES)]
        for ev in doomed:
            sim.cancel(ev)
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_drain_resets_tombstones(self, sim):
        ev = sim.at(1.0, lambda: None)
        sim.cancel(ev)
        sim.drain()
        assert sim._tombstones == 0
        assert sim.pending_events == 0
