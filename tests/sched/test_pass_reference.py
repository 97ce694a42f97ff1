"""Lockstep of the EASY and FCFS passes against a pure-Python reference.

The reference pass is the textbook algorithm over plain lists: a
fixpoint loop that restarts from the head of the pending list after
every start, with no ``need`` array, head index, blocked-state memo or
smallest-request guard.  Random workloads run through the real
schedulers, and two things are checked:

* every pass starts exactly the requests the reference starts from the
  same pre-pass state, in the same order;
* whenever an instant has settled (no more events at the current time),
  the reference starts nothing from the current state — so no pass the
  real scheduler pruned, through the guard or the memo, was needed.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.sched import EASYScheduler, FCFSScheduler
from repro.sched.job import Request, RequestState
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority

NODES = 8


def reference_pass(algorithm, now, free, running, pending):
    """Requests the pass starts, in order, from one scheduler state.

    ``running`` holds ``(expected_end, nodes)`` pairs; ``pending`` the
    pending requests in submission order.
    """
    running = list(running)
    pending = list(pending)
    started = []

    def start(req):
        nonlocal free
        free -= req.nodes
        running.append((now + req.requested_time, req.nodes))
        pending.remove(req)
        started.append(req)

    while pending:
        head = pending[0]
        if head.nodes <= free:
            start(head)
            continue
        if algorithm == "fcfs":
            break
        avail = free
        for end, nodes in sorted(running):
            avail += nodes
            if avail >= head.nodes:
                shadow = end
                break
        extra = avail - head.nodes
        for req in pending[1:]:
            if req.nodes <= free and (
                now + req.requested_time <= shadow or req.nodes <= extra
            ):
                start(req)
                break
        else:
            break
    return started


def state_of(sched):
    return (
        sched.sim.now,
        sched.cluster.free_nodes,
        [(r.start_time + r.requested_time, r.nodes) for r in sched.running],
        sched.pending_requests(),
    )


def whole_or_float(lo: float, hi: float):
    """Floats, half of them whole numbers: with whole submit times and
    runtimes a backfill candidate often ends exactly at the shadow time,
    the boundary case of ``now + requested <= shadow``."""
    return st.one_of(
        st.integers(int(lo) + 1, int(hi)).map(float),
        st.floats(min_value=lo, max_value=hi),
    )


job_strategy = st.tuples(
    whole_or_float(0.0, 50.0),                   # submit time
    st.integers(min_value=1, max_value=NODES),   # nodes
    whole_or_float(0.1, 30.0),                   # runtime
    st.sampled_from((1.0, 1.5, 2.0, 3.0)),       # requested = runtime * pad
    st.one_of(st.none(), whole_or_float(0.0, 20.0)),  # cancel this long after
)


def run_lockstep(algorithm, workload):
    sim = Simulator()
    cls = {"easy": EASYScheduler, "fcfs": FCFSScheduler}[algorithm]
    sched = cls(sim, Cluster(0, NODES))
    started: list[Request] = []
    sched.add_start_callback(lambda r, t: started.append(r))
    real_pass = sched._schedule_pass
    passes = 0

    def checked_pass():
        nonlocal passes
        passes += 1
        expected = reference_pass(algorithm, *state_of(sched))
        started.clear()
        real_pass()
        assert [r.request_id for r in started] == [
            r.request_id for r in expected
        ], f"{algorithm} pass at t={sim.now} diverged from the reference"

    sched._schedule_pass = checked_pass

    for submit, nodes, runtime, pad, cancel_after in workload:
        req = Request(nodes=nodes, runtime=runtime,
                      requested_time=runtime * pad, submit_time=submit)
        sim.at(submit, lambda r=req: sched.submit(r), EventPriority.SUBMIT)
        if cancel_after is not None:
            def try_cancel(r=req):
                if r.state is RequestState.PENDING:
                    sched.cancel(r)
            sim.at(submit + cancel_after, try_cancel, EventPriority.CANCEL)
    while sim.step():
        if sim.peek_time() > sim.now:
            assert reference_pass(algorithm, *state_of(sched)) == [], (
                f"{algorithm} settled at t={sim.now} with a start pending"
            )
    return passes


@settings(max_examples=150, deadline=None)
@given(workload=st.lists(job_strategy, min_size=1, max_size=40))
# A 2-node candidate that ends exactly at the shadow time (t=100) of
# the 8-node head it backfills past.
@example(workload=[(0.0, 6, 100.0, 1.0, None), (1.0, 8, 10.0, 1.0, None),
                   (1.0, 2, 99.0, 1.0, None)])
def test_easy_pass_matches_reference(workload):
    run_lockstep("easy", workload)


@settings(max_examples=100, deadline=None)
@given(workload=st.lists(job_strategy, min_size=1, max_size=40))
def test_fcfs_pass_matches_reference(workload):
    run_lockstep("fcfs", workload)


def test_reference_backfills_on_the_shadow_and_extra_bounds():
    """The reference itself: 6 of 8 nodes busy until t=100, a head of 8
    waits for them, so a 2-node request backfills only if it ends by the
    shadow time (there are no extra nodes)."""

    def req(nodes, requested):
        return Request(nodes=nodes, runtime=requested,
                       requested_time=requested, submit_time=0.0)

    head, short, long_ = req(8, 10.0), req(2, 50.0), req(2, 500.0)
    running = [(100.0, 6)]
    assert reference_pass("easy", 0.0, 2, running, [head, long_, short]) == [
        short
    ]
    assert reference_pass("easy", 0.0, 2, running, [head, long_]) == []
    assert reference_pass("fcfs", 0.0, 2, running, [head, short]) == []
