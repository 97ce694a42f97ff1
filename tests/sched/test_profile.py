"""Unit and property tests for the availability profile."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.profile import Profile, ProfileError


class TestConstruction:
    def test_initial_segment(self):
        p = Profile(0.0, 5, 8)
        assert p.segments() == [(0.0, 5)]

    def test_free_now_out_of_bounds(self):
        with pytest.raises(ValueError):
            Profile(0.0, 9, 8)
        with pytest.raises(ValueError):
            Profile(0.0, -1, 8)


class TestAdjust:
    def test_reserve_creates_window(self):
        p = Profile(0.0, 8, 8)
        p.reserve(10.0, 5.0, 3)
        assert p.free_at(9.9) == 8
        assert p.free_at(10.0) == 5
        assert p.free_at(14.9) == 5
        assert p.free_at(15.0) == 8

    def test_nested_reservations(self):
        p = Profile(0.0, 8, 8)
        p.reserve(0.0, 10.0, 4)
        p.reserve(2.0, 4.0, 4)
        assert p.free_at(1.0) == 4
        assert p.free_at(3.0) == 0
        assert p.free_at(7.0) == 4

    def test_overcommit_rejected_and_rolled_back(self):
        p = Profile(0.0, 8, 8)
        p.reserve(0.0, 10.0, 6)
        probes = [0.0, 4.9, 5.0, 9.9, 10.0, 14.9, 15.0, 20.0]
        before = [p.free_at(t) for t in probes]
        with pytest.raises(ProfileError):
            p.reserve(5.0, 10.0, 4)
        assert [p.free_at(t) for t in probes] == before
        p.check_invariants()

    def test_release_above_capacity_rejected(self):
        p = Profile(0.0, 8, 8)
        with pytest.raises(ProfileError):
            p.adjust(0.0, 5.0, 1)

    def test_adjust_before_origin_rejected(self):
        p = Profile(10.0, 8, 8)
        with pytest.raises(ProfileError):
            p.reserve(5.0, 2.0, 1)

    def test_empty_window_rejected(self):
        p = Profile(0.0, 8, 8)
        with pytest.raises(ValueError):
            p.adjust(5.0, 5.0, -1)

    def test_infinite_end(self):
        p = Profile(0.0, 8, 8)
        p.adjust(5.0, math.inf, -3)
        assert p.free_at(1e12) == 5


class TestAdjustBatching:
    """The in-place fast path and the single-splice slow path must agree."""

    def test_existing_breakpoints_add_no_segments(self):
        """Releasing over the exact window that created a reservation is
        the dominant churn pattern and must not grow the arrays."""
        p = Profile(0.0, 8, 8)
        p.reserve(10.0, 5.0, 3)
        n_segments = len(p)
        p.reserve(10.0, 5.0, 2)  # same window: both edges exist already
        assert len(p) == n_segments
        assert p.free_at(12.0) == 3
        p.adjust(10.0, 15.0, 5)
        assert len(p) == n_segments
        assert all(f == 8 for _, f in p.segments())
        p.check_invariants()

    def test_splice_spanning_many_segments(self):
        p = Profile(0.0, 8, 8)
        for k in range(4):
            p.reserve(10.0 * k + 5.0, 2.0, 1)
        before = p.segments()
        p.adjust(2.0, 33.0, -1)  # spans all four windows, splits both edges
        p.check_invariants()
        # Every pre-existing breakpoint inside [2, 33) dropped by one.
        for t, f in before:
            if 2.0 <= t < 33.0:
                assert p.free_at(t) == f - 1
            elif t >= 33.0:
                assert p.free_at(t) == f
        # Edges split exactly once each.
        assert p.free_at(1.9) == 8 and p.free_at(2.0) == 7
        assert p.free_at(32.9) == 7 and p.free_at(33.0) == 8

    def test_failure_leaves_no_trace_in_split_path(self):
        """Validation happens before the splice, so a rejected window
        that would have split both edges changes nothing."""
        p = Profile(0.0, 8, 8)
        p.reserve(10.0, 10.0, 7)  # free=1 over [10, 20)
        before = p.segments()
        with pytest.raises(ProfileError):
            p.adjust(5.0, 25.0, -2)  # would go negative inside [10, 20)
        assert p.segments() == before
        p.check_invariants()

    def test_fast_and_slow_paths_agree(self):
        """Applying the same logical window via pre-split breakpoints or
        via fresh splits yields identical step functions."""
        fast = Profile(0.0, 16, 16)
        fast.adjust(5.0, 9.0, -0)  # no-op
        fast.reserve(5.0, 4.0, 1)   # creates breakpoints 5 and 9
        fast.reserve(5.0, 4.0, 2)   # fast path
        slow = Profile(0.0, 16, 16)
        slow.reserve(5.0, 4.0, 3)   # single splice creating both edges
        assert fast.segments() == slow.segments()


class TestFindStart:
    def test_immediate_when_free(self):
        p = Profile(0.0, 8, 8)
        assert p.find_start(4, 10.0, 0.0) == 0.0

    def test_waits_for_release(self):
        p = Profile(0.0, 0, 8)
        p.adjust(10.0, math.inf, 8)
        assert p.find_start(4, 5.0, 0.0) == 10.0

    def test_hole_too_short_is_skipped(self):
        p = Profile(0.0, 8, 8)
        # Free [0,5), busy [5,15), free after.
        p.reserve(5.0, 10.0, 8)
        assert p.find_start(1, 4.0, 0.0) == 0.0   # fits in the hole
        assert p.find_start(1, 6.0, 0.0) == 15.0  # does not fit

    def test_respects_earliest(self):
        p = Profile(0.0, 8, 8)
        assert p.find_start(2, 5.0, 7.5) == 7.5

    def test_earliest_inside_busy_segment(self):
        p = Profile(0.0, 8, 8)
        p.reserve(0.0, 10.0, 8)
        assert p.find_start(3, 2.0, 4.0) == 10.0

    def test_too_many_nodes_rejected(self):
        p = Profile(0.0, 8, 8)
        with pytest.raises(ProfileError):
            p.find_start(9, 1.0, 0.0)

    def test_nonpositive_args_rejected(self):
        p = Profile(0.0, 8, 8)
        with pytest.raises(ValueError):
            p.find_start(0, 1.0, 0.0)
        with pytest.raises(ValueError):
            p.find_start(1, 0.0, 0.0)


class TestCanPlace:
    def test_simple_feasible(self):
        p = Profile(0.0, 8, 8)
        assert p.can_place(0.0, 10.0, 8)

    def test_blocked_by_future_reservation(self):
        p = Profile(0.0, 8, 8)
        p.reserve(5.0, 5.0, 6)
        assert p.can_place(0.0, 4.0, 4)
        assert not p.can_place(0.0, 6.0, 4)

    def test_bonus_ignores_own_reservation(self):
        p = Profile(0.0, 8, 8)
        p.reserve(5.0, 5.0, 6)  # this is "my own" reservation
        # Without the bonus a 6-node 10s placement at 0 fails...
        assert not p.can_place(0.0, 10.0, 6)
        # ...with the bonus, the overlap region [5,10) gets my 6 back.
        assert p.can_place(0.0, 10.0, 6, bonus=(5.0, 10.0, 6))

    def test_partial_bonus_overlap_is_conservative(self):
        p = Profile(0.0, 8, 8)
        p.reserve(5.0, 5.0, 6)
        # Bonus window only covers part of the blocking segment: the
        # implementation must not grant it (conservative), so placement
        # still fails.
        assert not p.can_place(0.0, 10.0, 6, bonus=(6.0, 8.0, 6))


class TestTrim:
    def test_trim_drops_past_segments(self):
        p = Profile(0.0, 8, 8)
        p.reserve(1.0, 1.0, 2)
        p.reserve(5.0, 5.0, 3)
        p.trim(4.0)
        assert p.times[0] == 4.0
        assert p.free_at(4.0) == 8
        assert p.free_at(5.0) == 5

    def test_trim_before_first_segment_noop(self):
        p = Profile(5.0, 8, 8)
        p.trim(1.0)
        assert p.times[0] == 5.0

    def test_trim_preserves_invariants(self):
        p = Profile(0.0, 8, 8)
        for i in range(10):
            p.reserve(float(i), 2.0, 1)
        p.trim(5.5)
        p.check_invariants()


@settings(max_examples=200, deadline=None)
@given(
    reservations=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),   # start
            st.floats(min_value=0.1, max_value=50.0),    # duration
            st.integers(min_value=1, max_value=8),       # nodes
        ),
        max_size=12,
    ),
    query=st.tuples(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.1, max_value=60.0),
        st.floats(min_value=0.0, max_value=120.0),
    ),
)
def test_find_start_result_is_always_placeable(reservations, query):
    """Property: find_start's answer always passes can_place, is >= earliest,
    and no earlier breakpoint candidate would also fit."""
    p = Profile(0.0, 8, 8)
    for start, duration, nodes in reservations:
        try:
            p.reserve(start, duration, nodes)
        except ProfileError:
            pass  # overcommitted sample; skip that reservation
    p.check_invariants()
    nodes, duration, earliest = query
    t = p.find_start(nodes, duration, earliest)
    assert t >= earliest
    assert p.can_place(t, duration, nodes)
    # Minimality at breakpoints: no candidate start in [earliest, t) at a
    # breakpoint (or earliest itself) is feasible.
    candidates = [earliest] + [bt for bt in p.times if earliest < bt < t]
    for c in candidates:
        if c < t:
            assert not p.can_place(c, duration, nodes)
