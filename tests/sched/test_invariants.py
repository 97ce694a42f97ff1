"""Property-based invariants shared by all three schedulers.

Random workloads (submissions, runtimes, node counts, estimate padding,
cancellations) are generated by hypothesis and run to completion while
auditing, at every event:

* node accounting never oversubscribes the cluster;
* request state machines only move forward;
* and at the end: every non-cancelled request completed, no idle-forever
  deadlock, FCFS preserved start order, CBF honoured its reservations.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.sched import ALGORITHMS
from repro.sched import base as sched_base
from repro.sched.base import SchedulerDownError
from repro.sched.job import Request, RequestState
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority

NODES = 8

job_strategy = st.tuples(
    st.floats(min_value=0.0, max_value=50.0),    # submit time
    st.integers(min_value=1, max_value=NODES),   # nodes
    st.floats(min_value=0.1, max_value=30.0),    # runtime
    st.floats(min_value=1.0, max_value=3.0),     # requested = runtime * pad
    st.booleans(),                               # cancel this one later?
)

workload_strategy = st.lists(job_strategy, min_size=1, max_size=30)


def run_workload(algorithm: str, workload) -> tuple[list[Request], list[Request]]:
    """Run one random workload; returns (kept, cancelled) requests."""
    sim = Simulator()
    cluster = Cluster(0, NODES)
    sched = ALGORITHMS[algorithm](sim, cluster)
    kept, to_cancel = [], []
    for submit, nodes, runtime, pad, cancel in workload:
        req = Request(
            nodes=nodes, runtime=runtime, requested_time=runtime * pad,
            submit_time=submit,
        )
        sim.at(submit, lambda r=req: sched.submit(r), EventPriority.SUBMIT)
        if cancel:
            to_cancel.append(req)
            # Cancel shortly after submission if still pending.
            def try_cancel(r=req):
                if r.state is RequestState.PENDING:
                    sched.cancel(r)
            sim.at(submit + 0.05, try_cancel, EventPriority.CANCEL)
        else:
            kept.append(req)
    while sim.step():
        sched.check_invariants()
        assert cluster.busy_nodes <= NODES
    sched.check_invariants()
    return kept, to_cancel


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@settings(max_examples=60, deadline=None)
@given(workload=workload_strategy)
def test_no_job_left_behind(algorithm, workload):
    """Every non-cancelled request eventually completes (no deadlock)."""
    kept, _ = run_workload(algorithm, workload)
    for r in kept:
        assert r.state is RequestState.COMPLETED, (
            f"{algorithm}: request {r.request_id} ended {r.state}"
        )
        assert r.start_time is not None and r.start_time >= r.submitted_at
        assert r.end_time == pytest.approx(r.start_time + r.runtime)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@settings(max_examples=40, deadline=None)
@given(workload=workload_strategy)
def test_cancelled_jobs_never_run(algorithm, workload):
    _, cancelled = run_workload(algorithm, workload)
    for r in cancelled:
        # Either it started before the cancel arrived (allowed: the cancel
        # attempt checks state) or it was cancelled and never ran.
        if r.state is RequestState.CANCELLED:
            assert r.start_time is None


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@settings(max_examples=20, deadline=None)
@given(workload=st.lists(job_strategy, min_size=80, max_size=120))
def test_queue_stays_in_submission_order(algorithm, workload):
    """No scheduler reorders ``queue``: a new submission is never the
    head, which EASY's pass memo relies on.  The workloads are long
    enough to leave more stale entries than ``_COMPACT_SLACK``, so
    compaction runs too."""
    sim = Simulator()
    sched = ALGORITHMS[algorithm](sim, Cluster(0, NODES))
    order: dict[int, int] = {}

    def submit(r: Request) -> None:
        order[r.request_id] = len(order)
        sched.submit(r)

    for submit_time, nodes, runtime, pad, cancel in workload:
        req = Request(nodes=nodes, runtime=runtime,
                      requested_time=runtime * pad, submit_time=submit_time)
        sim.at(submit_time, lambda r=req: submit(r), EventPriority.SUBMIT)
        if cancel:
            def try_cancel(r=req):
                if r.state is RequestState.PENDING:
                    sched.cancel(r)
            sim.at(submit_time + 0.05, try_cancel, EventPriority.CANCEL)
    while sim.step():
        ranks = [order[r.request_id] for r in sched.queue]
        assert ranks == sorted(ranks), f"{algorithm} reordered its queue"
        pending = sched.pending_requests()
        if pending:
            assert order[pending[0].request_id] == min(
                order[r.request_id] for r in pending
            )


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@settings(max_examples=40, deadline=None)
@given(workload=workload_strategy)
def test_max_queue_length_is_the_pending_high_water_mark(algorithm, workload):
    """``stats.max_queue_length`` is updated on submit only; cancels,
    starts and passes never raise the pending count, so it must still
    equal the largest pending count seen after any event."""
    sim = Simulator()
    sched = ALGORITHMS[algorithm](sim, Cluster(0, NODES))
    for submit_time, nodes, runtime, pad, cancel in workload:
        req = Request(nodes=nodes, runtime=runtime,
                      requested_time=runtime * pad, submit_time=submit_time)
        sim.at(submit_time, lambda r=req: sched.submit(r), EventPriority.SUBMIT)
        if cancel:
            def try_cancel(r=req):
                if r.state is RequestState.PENDING:
                    sched.cancel(r)
            sim.at(submit_time + 0.05, try_cancel, EventPriority.CANCEL)
    high = 0
    while sim.step():
        high = max(high, sched.queue_length)
        assert sched.stats.max_queue_length == high


@settings(max_examples=40, deadline=None)
@given(workload=workload_strategy)
def test_fcfs_starts_in_submission_order(workload):
    kept, _ = run_workload("fcfs", workload)
    done = sorted(kept, key=lambda r: (r.submitted_at, r.request_id))
    starts = [r.start_time for r in done]
    assert starts == sorted(starts), "FCFS must start in submission order"


@settings(max_examples=40, deadline=None)
@given(workload=workload_strategy)
def test_cbf_reservation_guarantee(workload):
    """No request ever starts later than its at-submit reservation."""
    kept, _ = run_workload("cbf", workload)
    for r in kept:
        assert r.predicted_start_at_submit is not None
        assert r.start_time <= r.predicted_start_at_submit + 1e-6


@settings(max_examples=30, deadline=None)
@given(workload=workload_strategy)
def test_easy_never_beats_exact_work_lower_bound(workload):
    """Sanity: total node-seconds executed equals the sum of request areas
    (work conservation), and the makespan is at least area / capacity."""
    kept, _ = run_workload("easy", workload)
    if not kept:
        return
    area = sum(r.nodes * r.runtime for r in kept)
    end = max(r.end_time for r in kept)
    first = min(r.submitted_at for r in kept)
    assert end - first >= area / NODES - 1e-9


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@settings(max_examples=25, deadline=None)
@given(workload=workload_strategy, until=st.floats(min_value=0.0, max_value=60.0))
def test_truncated_runs_keep_accounting_consistent(algorithm, workload, until):
    """Stopping mid-flight (the paper's windowed protocol) leaves a
    consistent scheduler state."""
    sim = Simulator()
    cluster = Cluster(0, NODES)
    sched = ALGORITHMS[algorithm](sim, cluster)
    for submit, nodes, runtime, pad, _ in workload:
        req = Request(nodes=nodes, runtime=runtime,
                      requested_time=runtime * pad, submit_time=submit)
        sim.at(submit, lambda r=req: sched.submit(r), EventPriority.SUBMIT)
    sim.run(until=until)
    sched.check_invariants()
    assert (
        sched.stats.started
        == sched.stats.completed + len(sched.running)
    )
    assert (
        sched.stats.submitted
        == sched.stats.started + sched.stats.cancelled + sched.queue_length
    )


op_strategy = st.one_of(
    st.tuples(st.just("submit"), st.integers(1, NODES),
              st.floats(0.5, 30.0), st.floats(1.0, 3.0)),
    st.tuples(st.just("submit"), st.integers(1, 3),
              st.floats(0.5, 5.0), st.floats(1.0, 3.0)),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("finish")),
    st.tuples(st.just("wait"), st.floats(0.0, 10.0)),
    st.tuples(st.just("down"), st.booleans()),
    st.tuples(st.just("up")),
)


def replay_ops(algorithm: str, ops: list[tuple]) -> None:
    """Apply ``ops`` to a fresh scheduler, checking its invariants after
    every op and every simulator event, then drain it.  The compaction
    slack is shrunk so that compaction, which rebuilds the pass state,
    runs on short sequences too."""
    sim = Simulator()
    sched = ALGORITHMS[algorithm](sim, Cluster(0, NODES))

    def settle(until: float) -> None:
        while sim.peek_time() <= until:
            sim.step()
            sched.check_invariants()
        sim.run(until=until)  # no events left by then: moves the clock

    with mock.patch.object(sched_base, "_COMPACT_SLACK", 2):
        for op in ops:
            kind = op[0]
            if kind == "submit":
                _, nodes, runtime, pad = op
                req = Request(nodes=nodes, runtime=runtime,
                              requested_time=runtime * pad,
                              submit_time=sim.now)
                if sched.down:
                    with pytest.raises(SchedulerDownError):
                        sched.submit(req)
                else:
                    sched.submit(req)
            elif kind == "cancel":
                pending = sched.pending_requests()
                if pending:
                    victim = pending[op[1] % len(pending)]
                    if sched.down:
                        with pytest.raises(SchedulerDownError):
                            sched.cancel(victim)
                    else:
                        sched.cancel(victim)
            elif kind == "finish":
                if sched.running:
                    settle(min(r.start_time + r.runtime for r in sched.running))
            elif kind == "wait":
                settle(sim.now + op[1])
            elif kind == "down":
                if not sched.down:
                    sched.go_down(drop_queue=op[1])
            elif sched.down:  # "up"
                sched.come_up()
            sched.check_invariants()
            settle(sim.now)
        if sched.down:
            sched.come_up()
        while sim.step():
            sched.check_invariants()
    assert sched.queue_length == 0 and not sched.running


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(op_strategy, max_size=80))
def test_pass_state_survives_every_transition(algorithm, ops):
    """``check_invariants`` — the ``need`` array, the head index and the
    exact smallest-request guard — holds after every submit, cancel,
    finish, outage (with and without a dropped queue) and recovery, and
    after every simulator event in between."""
    replay_ops(algorithm, ops)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_pass_state_survives_compaction(algorithm):
    """Compaction fires only once stale entries outnumber pending ones,
    which random op sequences reach only now and then; this one
    reaches it on every run: one request starts, five wait, and the
    third cancel leaves four stale entries against two pending."""
    ops = [("submit", NODES, 10.0, 1.0)] * 6 + [("cancel", 0)] * 3
    with mock.patch.object(
        sched_base.Scheduler, "_compact_queue",
        autospec=True, side_effect=sched_base.Scheduler._compact_queue,
    ) as spy:
        replay_ops(algorithm, ops)
    assert spy.call_count >= 1
