"""Node-availability profile: free nodes as a step function of time.

Backfilling schedulers plan against the *future* availability implied by
the requested (not actual) runtimes of running and reserved requests.
This module provides that plan as an explicit step function supporting
the operations conservative backfilling needs:

* :meth:`Profile.reserve` / :meth:`Profile.adjust` — commit or undo a
  reservation or a running hold over a finite window;
* :meth:`Profile.find_start` — earliest instant at which ``nodes`` nodes
  are continuously free for ``duration`` seconds;
* :meth:`Profile.can_place` — feasibility check for a specific start,
  optionally ignoring the request's own stale reservation;
* :meth:`Profile.trim` — garbage-collect segments that fell into the
  past (the profile is long-lived in the incremental CBF).

The representation is two parallel Python lists ``times``/``free``
where ``free[i]`` holds over ``[times[i], times[i+1])`` and the last
value extends to infinity.  Breakpoint lookup is :func:`bisect.bisect_right`
and every operation walks only the segments its window covers.

Lists, not numpy arrays: the profile is short on the CBF sweeps (116–268
segments between the quartiles at ``can_place`` calls, 536 at most, for
NONE/R2/R4/ALL on 5x32 nodes at load 2.0), where each numpy call's
fixed cost dominates.  Replaying the 58,251 ``Profile`` calls of one
such replication (2-vCPU Xeon, Python 3.11, numpy 2.4) cost 1.3 µs per
``can_place``, 1.5 µs per ``find_start`` and 1.7 µs per ``adjust``
here against 18.6, 19.2 and 9.4 µs for an earlier vectorised version,
with identical results; lists still win at ~1,600 segments.
"""

from __future__ import annotations

import bisect
import math
from typing import Optional, Tuple

__all__ = ["Profile", "ProfileError"]


class ProfileError(RuntimeError):
    """Raised when an adjustment would violate 0 <= free <= capacity."""


class Profile:
    """Step function of free nodes over ``[origin, inf)``.

    Parameters
    ----------
    origin:
        Left edge of the horizon (usually the current simulated time).
    free_now:
        Free nodes at the origin.
    total_nodes:
        Capacity bound; availability must stay within ``[0, total]``.
    """

    __slots__ = ("times", "free", "total_nodes")

    def __init__(self, origin: float, free_now: int, total_nodes: int) -> None:
        if not 0 <= free_now <= total_nodes:
            raise ValueError(f"free_now={free_now} outside [0, {total_nodes}]")
        #: breakpoint times (strictly increasing)
        self.times: list[float] = [float(origin)]
        #: free nodes per segment (aligned with ``times``)
        self.free: list[int] = [int(free_now)]
        self.total_nodes = int(total_nodes)

    # -- construction ----------------------------------------------------

    def copy(self) -> "Profile":
        """Independent deep copy (used by tests and what-if probing)."""
        dup = Profile.__new__(Profile)
        dup.times = self.times.copy()
        dup.free = self.free.copy()
        dup.total_nodes = self.total_nodes
        return dup

    # -- mutation --------------------------------------------------------

    def adjust(self, start: float, end: float, delta: int) -> None:
        """Add ``delta`` free nodes over ``[start, end)`` (``end`` may be inf).

        Raises :exc:`ProfileError` (leaving the profile unchanged) if the
        result would leave ``[0, total_nodes]`` anywhere in the window.

        The window is validated *before* any mutation, then applied in
        one step: when both window edges already coincide with
        breakpoints (the dominant case under backfill churn, where
        reservations are released over the exact windows that created
        them) the segments are updated in place; otherwise one slice
        assignment splices in the (at most two) new breakpoints.
        """
        if end <= start:
            raise ValueError(f"empty window [{start}, {end})")
        if delta == 0:
            return
        times, free = self.times, self.free
        n = len(times)
        i = bisect.bisect_right(times, start) - 1
        if i < 0:
            raise ProfileError(
                f"time {start} precedes profile origin {times[0]}"
            )
        if math.isfinite(end):
            # Segment containing ``end``; j >= i because end > start.
            j = bisect.bisect_right(times, end, lo=i) - 1
            split_end = times[j] != end
            hi = j if split_end else j - 1
        else:
            j = n - 1
            split_end = False
            hi = n - 1
        split_start = times[i] != start

        # Validate the whole window first — failure leaves no trace.
        total = self.total_nodes
        for k in range(i, hi + 1):
            nf = free[k] + delta
            if not 0 <= nf <= total:
                raise ProfileError(
                    f"adjust({start}, {end}, {delta:+d}) drives availability "
                    f"to {nf} at t={max(times[k], start)} (capacity {total})"
                )

        if not split_start and not split_end:
            # Fast path: boundaries already exist, adjust in place.
            for k in range(i, hi + 1):
                free[k] += delta
            return

        # One splice covering segments i..hi, inserting the new
        # breakpoints along the way.
        new_times: list[float] = [times[i]]
        new_free: list[int] = []
        if split_start:
            new_free.append(free[i])
            new_times.append(start)
        new_free.append(free[i] + delta)
        for k in range(i + 1, hi + 1):
            new_times.append(times[k])
            new_free.append(free[k] + delta)
        if split_end:
            new_times.append(end)
            new_free.append(free[j])
        times[i:hi + 1] = new_times
        free[i:hi + 1] = new_free

    def reserve(self, start: float, duration: float, nodes: int) -> None:
        """Subtract ``nodes`` over ``[start, start + duration)``."""
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if nodes <= 0:
            raise ValueError(f"nodes must be positive, got {nodes}")
        self.adjust(start, start + duration, -nodes)

    def trim(self, t: float) -> None:
        """Drop breakpoints strictly before ``t``; new origin becomes ``t``.

        Availability in the discarded past is forgotten — only call with
        ``t <= now`` once no queries before ``t`` will ever be issued.
        """
        i = bisect.bisect_right(self.times, t) - 1
        if i <= 0:
            return
        self.times = [t] + self.times[i + 1:]
        self.free = self.free[i:]

    # -- queries ---------------------------------------------------------

    def free_at(self, t: float) -> int:
        """Free nodes at time ``t`` (t >= origin)."""
        i = bisect.bisect_right(self.times, t) - 1
        if i < 0:
            raise ProfileError(
                f"time {t} precedes profile origin {self.times[0]}"
            )
        return self.free[i]

    def can_place(
        self,
        start: float,
        duration: float,
        nodes: int,
        bonus: Optional[Tuple[float, float, int]] = None,
    ) -> bool:
        """Whether ``nodes`` nodes are free throughout ``[start, start+duration)``.

        ``bonus`` is an optional ``(b_start, b_end, b_nodes)`` window of
        *extra* availability, used to ignore the candidate's own stale
        reservation without mutating the profile.  A short segment
        passes only if it lies wholly inside the bonus window and the
        extra nodes bridge it; a partially covered segment keeps the
        base availability on the uncovered piece.
        """
        end = start + duration
        times, free = self.times, self.free
        i = bisect.bisect_right(times, start) - 1
        if i < 0:
            raise ProfileError(f"time {start} precedes profile origin")
        n = len(times)
        j = i
        while j < n and (j == i or times[j] < end):
            if free[j] < nodes:
                if bonus is None:
                    return False
                b_start, b_end, b_nodes = bonus
                seg_start = start if j == i else times[j]
                seg_end = times[j + 1] if j + 1 < n else math.inf
                win_end = seg_end if seg_end < end else end
                if b_start > seg_start or b_end < win_end:
                    return False
                if free[j] + b_nodes < nodes:
                    return False
            j += 1
        return True

    def find_start(self, nodes: int, duration: float, earliest: float) -> float:
        """Earliest ``t >= earliest`` with ``nodes`` free throughout
        ``[t, t + duration)``.

        Always succeeds for ``nodes <= total_nodes`` because reservations
        and holds are finite, so the final step has full availability.

        Candidates are ``earliest`` and every later breakpoint; a
        candidate blocked at segment ``b`` forces every later candidate
        before ``b`` to be blocked at ``b`` too, so the walk resumes
        after the blocking segment.
        """
        if nodes > self.total_nodes:
            raise ProfileError(
                f"request for {nodes} nodes can never fit in {self.total_nodes}"
            )
        if nodes <= 0:
            raise ValueError(f"nodes must be positive, got {nodes}")
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        times, free = self.times, self.free
        earliest = max(earliest, times[0])
        n = len(times)
        start_idx = bisect.bisect_right(times, earliest) - 1
        i = start_idx
        while i < n:
            if free[i] >= nodes:
                t = earliest if i == start_idx else times[i]
                end = t + duration
                j = i + 1
                while j < n and times[j] < end:
                    if free[j] < nodes:
                        break
                    j += 1
                else:
                    return t
                # Restart the search after the blocking segment.
                i = j
            else:
                i += 1
        raise ProfileError(
            f"no feasible start for {nodes} nodes x {duration}s; the profile "
            "tail should always be feasible (capacity leak?)"
        )

    def segments(self) -> list[Tuple[float, int]]:
        """Return ``(time, free)`` breakpoints (a copy, for inspection)."""
        return list(zip(self.times, self.free))

    def check_invariants(self) -> None:
        """Verify representation invariants; raise on any breakage.

        Explicit raises rather than ``assert`` so the runtime auditor
        (which calls this on every CBF pass) keeps its teeth under
        ``python -O``.
        """
        if len(self.times) != len(self.free):
            raise ProfileError(
                f"times/free length mismatch: {len(self.times)} != "
                f"{len(self.free)}"
            )
        for a, b in zip(self.times, self.times[1:]):
            if not a < b:
                raise ProfileError(
                    f"breakpoints not strictly increasing: {a} >= {b}"
                )
        for t, f in zip(self.times, self.free):
            if not 0 <= f <= self.total_nodes:
                raise ProfileError(
                    f"availability {f} at t={t} outside "
                    f"[0, {self.total_nodes}]"
                )

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        segs = ", ".join(f"{t:.1f}:{f}" for t, f in self.segments()[:8])
        return f"Profile[{segs}{'...' if len(self.times) > 8 else ''}]"
