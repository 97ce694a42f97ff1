"""Tests for the first-start-wins redundancy protocol."""

import pytest

from repro.cluster.platform import Platform
from repro.core.coordinator import Coordinator, InvariantError
from repro.sched.job import RequestState
from repro.sim.engine import Simulator
from repro.workload.stream import StreamJob


def job(origin=0, arrival=0.0, nodes=4, runtime=10.0, requested=None,
        redundant=True):
    return StreamJob(
        origin=origin,
        arrival=arrival,
        nodes=nodes,
        runtime=runtime,
        requested_time=requested if requested is not None else runtime,
        uses_redundancy=redundant,
    )


@pytest.fixture
def setup():
    sim = Simulator()
    platform = Platform(sim, [8, 8, 8], algorithm="easy")
    coord = Coordinator(sim, platform)
    return sim, platform, coord


class TestProtocol:
    def test_winner_and_losers(self, setup):
        sim, platform, coord = setup
        # Block cluster 0 so the copy on cluster 1 wins.
        blocker = job(origin=0, nodes=8, runtime=100.0, redundant=False)
        coord.schedule_job(blocker, [0])
        j = job(origin=0, arrival=1.0, nodes=8)
        coord.schedule_job(j, [0, 1])
        sim.run()
        rj = coord.jobs[1]
        assert rj.winner is not None
        assert rj.winner.cluster.cluster.index == 1
        loser = rj.requests[0]
        assert loser.state is RequestState.CANCELLED
        assert loser.cancelled_at == 1.0  # cancelled the instant the win happened

    def test_no_duplicate_starts_with_zero_latency(self, setup):
        sim, platform, coord = setup
        # Both clusters idle: both copies could start at the same instant;
        # deterministic ordering must let exactly one win.
        j = job(origin=0, nodes=4)
        coord.schedule_job(j, [0, 1, 2])
        sim.run()
        assert coord.duplicate_starts == []
        rj = coord.jobs[0]
        states = sorted(r.state.value for r in rj.requests)
        assert states == ["cancelled", "cancelled", "completed"]

    def test_metrics_from_winner(self, setup):
        sim, platform, coord = setup
        j = job(origin=0, nodes=4, runtime=10.0)
        coord.schedule_job(j, [0, 1])
        sim.run()
        rj = coord.jobs[0]
        assert rj.completed
        assert rj.winner.start_time == 0.0
        assert rj.winner.end_time == 10.0

    def test_single_target_non_redundant(self, setup):
        sim, platform, coord = setup
        j = job(redundant=False)
        coord.schedule_job(j, [0])
        sim.run()
        rj = coord.jobs[0]
        assert not rj.uses_redundancy
        assert rj.n_copies == 1
        assert coord.total_cancellations == 0

    def test_counters(self, setup):
        sim, platform, coord = setup
        for i in range(5):
            coord.schedule_job(job(arrival=float(i)), [0, 1, 2])
        sim.run()
        assert coord.total_requests == 15
        assert coord.total_cancellations == 10
        assert coord.unfinished_jobs() == []
        coord.check_invariants()

    def test_targets_must_start_with_origin(self, setup):
        sim, platform, coord = setup
        with pytest.raises(ValueError, match="origin"):
            coord.submit_job(job(origin=0), [1, 0])

    def test_empty_targets_rejected(self, setup):
        sim, platform, coord = setup
        with pytest.raises(ValueError):
            coord.submit_job(job(), [])


class TestRemoteInflation:
    def test_remote_copies_padded(self):
        sim = Simulator()
        platform = Platform(sim, [8, 8], algorithm="easy")
        coord = Coordinator(sim, platform, remote_inflation=0.5)
        j = job(origin=0, nodes=4, runtime=10.0, requested=20.0)
        coord.schedule_job(j, [0, 1])
        sim.run()
        rj = coord.jobs[0]
        local, remote = rj.requests
        assert local.requested_time == 20.0
        assert remote.requested_time == pytest.approx(30.0)

    def test_negative_inflation_rejected(self):
        sim = Simulator()
        platform = Platform(sim, [8])
        with pytest.raises(ValueError):
            Coordinator(sim, platform, remote_inflation=-0.1)


class TestCancellationLatency:
    def test_duplicate_start_possible_with_latency(self):
        """With a cancellation delay, a sibling can start in the window;
        the protocol must count it as waste, not crash."""
        sim = Simulator()
        platform = Platform(sim, [8, 8], algorithm="easy")
        coord = Coordinator(sim, platform, cancellation_latency=5.0)
        # Cluster 1 is busy until t=2; the local copy starts at t=0, the
        # remote one at t=2 < 0 + 5s latency.
        blocker = job(origin=1, nodes=8, runtime=2.0, redundant=False)
        coord.schedule_job(blocker, [1])
        j = job(origin=0, nodes=8, runtime=10.0)
        coord.schedule_job(j, [0, 1])
        sim.run()
        rj = coord.jobs[1]
        assert rj.winner.cluster.cluster.index == 0
        assert len(coord.duplicate_starts) == 1
        dup = coord.duplicate_starts[0]
        assert dup.state is RequestState.COMPLETED  # ran to waste

    def test_latency_cancel_still_removes_pending(self):
        sim = Simulator()
        platform = Platform(sim, [8, 8], algorithm="easy")
        coord = Coordinator(sim, platform, cancellation_latency=1.0)
        blocker = job(origin=1, nodes=8, runtime=50.0, redundant=False)
        coord.schedule_job(blocker, [1])
        j = job(origin=0, nodes=8, runtime=10.0)
        coord.schedule_job(j, [0, 1])
        sim.run()
        rj = coord.jobs[1]
        remote = rj.requests[1]
        assert remote.state is RequestState.CANCELLED
        assert remote.cancelled_at == pytest.approx(1.0)  # start 0 + latency

    def test_negative_latency_rejected(self):
        sim = Simulator()
        platform = Platform(sim, [8])
        with pytest.raises(ValueError):
            Coordinator(sim, platform, cancellation_latency=-1.0)

    def test_finalize_purges_losers_cancelled_past_horizon(self):
        """Regression: a job winning inside the final latency window left
        its losers PENDING forever (the cancel event lay past the horizon
        of a non-drained run)."""
        sim = Simulator()
        platform = Platform(sim, [8, 8], algorithm="easy")
        coord = Coordinator(sim, platform, cancellation_latency=2.0)
        # Cluster 1 stays busy past the horizon so its copy is a real
        # pending loser (not a same-instant duplicate start).
        blocker = job(origin=1, nodes=8, runtime=50.0, redundant=False)
        coord.schedule_job(blocker, [1])
        j = job(origin=0, nodes=8, runtime=10.0)
        coord.schedule_job(j, [0, 1])
        sim.run(until=1.0)  # winner starts at t=0; cancel due at t=2
        rj = coord.jobs[1]
        loser = next(r for r in rj.requests if r is not rj.winner)
        assert loser.state is RequestState.PENDING  # the bug's symptom
        coord.finalize()
        assert loser.state is RequestState.CANCELLED
        coord.check_invariants()

    def test_finalize_noop_at_zero_latency(self):
        sim = Simulator()
        platform = Platform(sim, [8, 8], algorithm="easy")
        coord = Coordinator(sim, platform)
        coord.schedule_job(job(origin=0, nodes=8), [0, 1])
        sim.run()
        cancellations = coord.total_cancellations
        coord.finalize()
        assert coord.total_cancellations == cancellations


class TestInvariants:
    def test_violation_raises_explicit_error(self, setup):
        sim, platform, coord = setup
        coord.schedule_job(job(origin=0, nodes=4), [0, 1])
        sim.run()
        rj = coord.jobs[0]
        # Corrupt the protocol state: crown a cancelled loser.
        rj.winner = next(
            r for r in rj.requests if r.state is RequestState.CANCELLED
        )
        with pytest.raises(InvariantError, match="expected one of"):
            coord.check_invariants()

    def test_error_identifies_job_and_request(self, setup):
        sim, platform, coord = setup
        coord.schedule_job(job(origin=0, nodes=4), [0, 1])
        sim.run()
        rj = coord.jobs[0]
        loser = next(r for r in rj.requests if r is not rj.winner)
        rj.winner = loser
        with pytest.raises(InvariantError, match=f"job {rj.job_id}"):
            coord.check_invariants()

    def test_invariant_error_is_an_assertion(self):
        # Callers that caught AssertionError keep working.
        assert issubclass(InvariantError, AssertionError)


class TestWasteAccounting:
    """Regression pin for duplicate-start waste attribution.

    With every cancellation lost (``p_cancel_loss=1.0``) under ALL on k
    clusters, all k copies of every started job run to completion: the
    k-1 losers are pure waste.  The ledger must therefore show wasted
    node-seconds of exactly (k-1)x the useful node-seconds, i.e. a
    wasted-work fraction of (k-1)/k — any drift means duplicates are
    double-counted or under-charged.
    """

    def test_all_copies_lost_cancel_waste_identity(self):
        from repro.core.config import ExperimentConfig
        from repro.core.experiment import run_single
        from repro.faults import FaultConfig

        k = 3
        cfg = ExperimentConfig(
            n_clusters=k,
            nodes_per_cluster=16,
            duration=300.0,
            offered_load=2.0,
            drain=True,
            seed=20060619,
            scheme="ALL",
            faults=FaultConfig(p_cancel_loss=1.0),
        )
        r = run_single(cfg, 0, check_invariants=True)
        assert r.lost_cancellations > 0
        assert r.useful_node_seconds > 0
        assert r.wasted_node_seconds == pytest.approx(
            (k - 1) * r.useful_node_seconds
        )
        assert r.wasted_work_fraction == pytest.approx((k - 1) / k)


class TestResubmitAfterFinalize:
    """An outage recovery straddling the horizon must not resubmit."""

    def _dropped_copy(self):
        sim = Simulator()
        platform = Platform(sim, [8, 8], algorithm="easy")
        coord = Coordinator(sim, platform)
        # Block both clusters far past the horizon so the redundant
        # job's copies stay PENDING (winner never crowned).
        for origin in (0, 1):
            coord.schedule_job(
                job(origin=origin, nodes=8, runtime=1000.0, redundant=False),
                [origin],
            )
        j = job(origin=0, arrival=1.0, nodes=8)
        coord.schedule_job(j, [0, 1])
        # Outage at t=5 loses cluster 1's queue (the pending copy).
        sim.at(5.0, lambda: platform.schedulers[1].go_down(drop_queue=True))
        sim.at(10.0, lambda: platform.schedulers[1].come_up())
        sim.run(until=300.0)
        rj = coord.jobs[2]
        lost = next(
            r for r in rj.requests if r.cluster is platform.schedulers[1]
        )
        assert rj.winner is None
        return sim, coord, rj, lost

    def test_pre_finalize_resubmission_works(self):
        sim, coord, rj, lost = self._dropped_copy()
        before = coord.total_requests
        coord._try_resubmit(rj, lost.copy_spec(), 1)
        assert coord.resubmissions == 1
        assert coord.total_requests == before + 1

    def test_post_finalize_resubmission_refused(self):
        sim, coord, rj, lost = self._dropped_copy()
        before = coord.total_requests
        coord.finalize()
        # A recovery callback scheduled past the horizon fires while the
        # event queue drains after finalize(): it must be a no-op.
        coord._try_resubmit(rj, lost.copy_spec(), 1)
        assert coord.resubmissions == 0
        assert coord.total_requests == before
        assert len(rj.requests) == 2


class TestQueueGrowth:
    def test_overloaded_queue_grows(self):
        """§4.1's queue growth under overload, read off the scheduler."""
        sim = Simulator()
        platform = Platform(sim, [4], algorithm="easy")
        coord = Coordinator(sim, platform)
        for i in range(100):
            coord.schedule_job(
                job(arrival=float(i), nodes=4, runtime=50.0, redundant=False),
                [0],
            )
        sched = platform.schedulers[0]
        sim.run(until=50.0)
        at_50 = sched.queue_length
        sim.run(until=100.0)
        # ~1 arrival/s, ~0.02 starts/s: the queue grows at almost 1/s.
        assert (sched.queue_length - at_50) / 50.0 > 0.8
