"""Property tests pinning the profile against naive reference models.

``test_profile.py`` covers the operations individually; these
properties check whole random interleavings against an O(segments x
probes) reference model that recomputes availability from the raw
adjustment list — so any representation-level shortcut (the batched
splice in ``adjust``, the segment walk in ``can_place``, the skip-ahead
in ``find_start``) is compared against first principles, not against
itself.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.profile import Profile, ProfileError

TOTAL = 8

windows = st.tuples(
    st.floats(min_value=0.0, max_value=100.0),   # start
    st.floats(min_value=0.1, max_value=50.0),    # duration
    st.integers(min_value=-TOTAL, max_value=TOTAL).filter(lambda d: d != 0),
)


def reference_free(applied, t):
    """Availability at ``t`` implied by the raw adjustment list."""
    free = TOTAL
    for start, end, delta in applied:
        if start <= t < end:
            free += delta
    return free


def reference_feasible(applied, start, end, delta):
    """Whether the window keeps availability within [0, TOTAL] throughout."""
    points = {start} | {
        t for s, e, _ in applied for t in (s, e) if start < t < end
    }
    return all(
        0 <= reference_free(applied, t) + delta <= TOTAL for t in points
    )


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(windows, max_size=15))
def test_adjust_interleavings_match_reference(ops):
    """Any interleaving of accepted/rejected adjustments leaves the profile
    equal to the reference model, with invariants intact."""
    p = Profile(0.0, TOTAL, TOTAL)
    applied = []
    for start, duration, delta in ops:
        end = start + duration
        feasible = reference_feasible(applied, start, end, delta)
        try:
            p.adjust(start, end, delta)
            assert feasible, f"profile accepted an infeasible {delta:+d}"
            applied.append((start, end, delta))
        except ProfileError:
            assert not feasible, f"profile rejected a feasible {delta:+d}"
        p.check_invariants()
    probes = {0.0, 1e9} | {t for s, e, _ in applied for t in (s, e)}
    for t in probes:
        assert p.free_at(t) == reference_free(applied, t)


def naive_can_place(applied, start, duration, nodes, bonus):
    """Pointwise reference for can_place: split at every edge of the
    applied windows *and* of the bonus window, then check each constant
    piece against the model's availability."""
    end = start + duration
    points = {start} | {
        t for s, e, _ in applied for t in (s, e) if start < t < end
    }
    if bonus is not None:
        points |= {b for b in bonus[:2] if start < b < end}
    for t in points:
        avail = reference_free(applied, t)
        if bonus is not None and bonus[0] <= t < bonus[1]:
            avail += bonus[2]
        if avail < nodes:
            return False
    return True


def naive_find_start(applied, breakpoints, nodes, duration, earliest):
    """Brute-force find_start: the earliest model-feasible candidate among
    ``earliest`` (clamped to the origin) and every later breakpoint.

    A feasible start strictly between candidates can slide left to the
    previous one (same segment, shorter reach), so the minimum is
    always a candidate.
    """
    earliest = max(earliest, min(breakpoints))
    for t in [earliest] + sorted(b for b in breakpoints if b > earliest):
        if naive_can_place(applied, t, duration, nodes, None):
            return t
    return None


@settings(max_examples=200, deadline=None)
@given(
    reservations=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=60.0),
            st.floats(min_value=0.1, max_value=30.0),
            st.integers(min_value=1, max_value=TOTAL),
        ),
        max_size=8,
    ),
    query=st.tuples(
        st.floats(min_value=0.0, max_value=80.0),   # start
        st.floats(min_value=0.1, max_value=40.0),   # duration
        st.integers(min_value=1, max_value=TOTAL),  # nodes
    ),
    bonus_window=st.one_of(
        st.none(),
        st.tuples(
            st.floats(min_value=0.0, max_value=90.0),
            st.floats(min_value=0.1, max_value=40.0),
            st.integers(min_value=1, max_value=TOTAL),
        ),
    ),
)
def test_can_place_with_bonus_matches_reference(reservations, query, bonus_window):
    """can_place is exact, not merely conservative: it agrees with the
    pointwise reference for every bonus window, including ones that only
    partially overlap a blocked segment."""
    p = Profile(0.0, TOTAL, TOTAL)
    applied = []
    for start, duration, nodes in reservations:
        try:
            p.reserve(start, duration, nodes)
            applied.append((start, start + duration, -nodes))
        except ProfileError:
            pass  # overcommitted sample; skip
    start, duration, nodes = query
    bonus = None
    if bonus_window is not None:
        b_start, b_len, b_nodes = bonus_window
        bonus = (b_start, b_start + b_len, b_nodes)
    assert p.can_place(start, duration, nodes, bonus=bonus) == naive_can_place(
        applied, start, duration, nodes, bonus
    )


@settings(max_examples=150, deadline=None)
@given(
    reservations=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=60.0),
            st.floats(min_value=0.1, max_value=30.0),
            st.integers(min_value=1, max_value=TOTAL),
        ),
        max_size=8,
    ),
    own=st.tuples(
        st.floats(min_value=0.0, max_value=60.0),
        st.floats(min_value=0.1, max_value=30.0),
        st.integers(min_value=1, max_value=TOTAL),
    ),
)
def test_bonus_equals_releasing_own_reservation(reservations, own):
    """The backfill idiom: passing one's own reservation window as the
    bonus must answer exactly like a profile with that window released."""
    p = Profile(0.0, TOTAL, TOTAL)
    for start, duration, nodes in reservations:
        try:
            p.reserve(start, duration, nodes)
        except ProfileError:
            pass
    o_start, o_dur, o_nodes = own
    try:
        p.reserve(o_start, o_dur, o_nodes)
    except ProfileError:
        return  # own reservation did not fit; nothing to compare
    released = p.copy()
    released.adjust(o_start, o_start + o_dur, +o_nodes)
    bonus = (o_start, o_start + o_dur, o_nodes)
    for t in [0.0, o_start, o_start + o_dur, *p.times[:6]]:
        for duration in (0.5, 5.0, 25.0):
            for nodes in (1, o_nodes, TOTAL):
                assert p.can_place(t, duration, nodes, bonus=bonus) == \
                    released.can_place(t, duration, nodes)


@settings(max_examples=150, deadline=None)
@given(
    reservations=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=60.0),
            st.floats(min_value=0.1, max_value=30.0),
            st.integers(min_value=1, max_value=TOTAL),
        ),
        max_size=10,
    ),
    cut=st.floats(min_value=0.0, max_value=80.0),
)
def test_trim_preserves_future(reservations, cut):
    """trim() must not change availability at or after the cut point."""
    p = Profile(0.0, TOTAL, TOTAL)
    applied = []
    for start, duration, nodes in reservations:
        try:
            p.reserve(start, duration, nodes)
            applied.append((start, start + duration, -nodes))
        except ProfileError:
            pass
    probes = [cut, cut + 0.1, cut + 20.0, 1e9] + [
        t for t in p.times if t >= cut
    ]
    before = [p.free_at(t) for t in probes]
    p.trim(cut)
    p.check_invariants()
    assert [p.free_at(t) for t in probes] == before
    assert math.isfinite(p.times[0])


# -- whole interleavings against the pointwise model ------------------------
#
# These interleavings drive the profile through random operation
# sequences — mutations, trims and every query — and check each one
# against a model that keeps only the raw adjustment list and the set
# of breakpoints: exact agreement on results, raised error types and
# the resulting step function after every single operation.

profile_ops = st.lists(
    st.one_of(
        st.tuples(st.just("adjust"), windows),
        st.tuples(
            st.just("trim"), st.floats(min_value=0.0, max_value=120.0)
        ),
        st.tuples(
            st.just("find_start"),
            st.tuples(
                st.integers(min_value=1, max_value=TOTAL),
                st.floats(min_value=0.1, max_value=60.0),
                st.floats(min_value=0.0, max_value=150.0),
            ),
        ),
        st.tuples(
            st.just("can_place"),
            st.tuples(
                st.floats(min_value=0.0, max_value=120.0),
                st.floats(min_value=0.1, max_value=60.0),
                st.integers(min_value=1, max_value=TOTAL),
                st.one_of(
                    st.none(),
                    st.tuples(
                        st.floats(min_value=0.0, max_value=120.0),
                        st.floats(min_value=0.1, max_value=60.0),
                        st.integers(min_value=1, max_value=TOTAL),
                    ),
                ),
            ),
        ),
        st.tuples(
            st.just("free_at"), st.floats(min_value=0.0, max_value=200.0)
        ),
    ),
    max_size=25,
)


def _bonus(bonus_w):
    if bonus_w is None:
        return None
    b_start, b_len, b_nodes = bonus_w
    return (b_start, b_start + b_len, b_nodes)


def _apply(profile, op, arg):
    """Run one op; return ("ok", result) or ("err", exception type)."""
    try:
        if op == "adjust":
            start, duration, delta = arg
            return "ok", profile.adjust(start, start + duration, delta)
        if op == "trim":
            return "ok", profile.trim(arg)
        if op == "find_start":
            nodes, duration, earliest = arg
            return "ok", profile.find_start(nodes, duration, earliest)
        if op == "can_place":
            start, duration, nodes, bonus_w = arg
            return "ok", profile.can_place(
                start, duration, nodes, bonus=_bonus(bonus_w)
            )
        assert op == "free_at"
        return "ok", profile.free_at(arg)
    except (ProfileError, ValueError) as exc:
        return "err", type(exc)


class ProfileModel:
    """First-principles model: the accepted adjustments plus the
    breakpoint set (the origin, every accepted window edge, minus
    whatever a trim dropped)."""

    def __init__(self):
        self.applied = []
        self.breakpoints = {0.0}

    @property
    def origin(self):
        return min(self.breakpoints)

    def apply(self, op, arg):
        """The model's answer, in ``_apply``'s ("ok"/"err", ...) form."""
        if op == "adjust":
            start, duration, delta = arg
            end = start + duration
            if start < self.origin or not reference_feasible(
                self.applied, start, end, delta
            ):
                return "err", ProfileError
            self.applied.append((start, end, delta))
            self.breakpoints |= {start, end}
            return "ok", None
        if op == "trim":
            # Only a cut past the second breakpoint moves the origin.
            if sum(b <= arg for b in self.breakpoints) > 1:
                self.breakpoints = {arg} | {
                    b for b in self.breakpoints if b > arg
                }
            return "ok", None
        if op == "find_start":
            nodes, duration, earliest = arg
            t = naive_find_start(
                self.applied, self.breakpoints, nodes, duration, earliest
            )
            return ("err", ProfileError) if t is None else ("ok", t)
        if op == "can_place":
            start, duration, nodes, bonus_w = arg
            if start < self.origin:
                return "err", ProfileError
            return "ok", naive_can_place(
                self.applied, start, duration, nodes, _bonus(bonus_w)
            )
        assert op == "free_at"
        if arg < self.origin:
            return "err", ProfileError
        return "ok", reference_free(self.applied, arg)

    def segments(self):
        return [(b, reference_free(self.applied, b))
                for b in sorted(self.breakpoints)]


@settings(max_examples=200, deadline=None)
@given(ops=profile_ops)
def test_profile_matches_model_lockstep(ops):
    """Exact behavioural agreement of the profile with the pointwise model."""
    p = Profile(0.0, TOTAL, TOTAL)
    model = ProfileModel()
    horizon = 0.0
    for op, arg in ops:
        if op == "trim":
            # Keep the interleaving legal: never trim past a point the
            # next query could look behind (mirrors CBF's trim(now)).
            arg = min(arg, horizon)
        elif op == "free_at":
            horizon = max(horizon, arg)
        elif op == "find_start":
            horizon = max(horizon, arg[2])
        elif op == "can_place":
            horizon = max(horizon, arg[0])
        got = _apply(p, op, arg)
        want = model.apply(op, arg)
        assert got == want, f"{op}{arg}: profile {got} != model {want}"
        p.check_invariants()
        assert p.segments() == model.segments(), f"state diverged after {op}"
        assert len(p) == len(model.breakpoints)
