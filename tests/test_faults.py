"""Tests for the fault-injection layer (repro.faults) and its wiring.

Covers the three failure modes (lost cancellations, delayed
cancellations, scheduler outages), the coordinator's recovery policies,
the scheduler down/up state machine, and the strict no-op guarantee:
with faults disabled the simulator is bit-identical to the fault-free
code path, serial or parallel.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster.platform import Platform
from repro.core.config import ExperimentConfig
from repro.core.coordinator import Coordinator
from repro.core.experiment import run_single
from repro.core.parallel import run_grid
from repro.faults import FaultConfig, FaultInjector
from repro.sched.base import SchedulerDownError, SchedulerError
from repro.sched.job import Request, RequestState
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


def request(nodes=4, runtime=10.0):
    return Request(nodes=nodes, runtime=runtime, requested_time=runtime)


def injector(**fault_kw):
    return FaultInjector(FaultConfig(**fault_kw), np.random.default_rng(7))


def tiny(**kw):
    defaults = dict(
        n_clusters=4, nodes_per_cluster=16, duration=300.0,
        offered_load=2.0, drain=True, seed=8,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def strip_wall(result):
    d = dataclasses.asdict(result)
    d.pop("wall_time_s")
    d.pop("phase_timings")
    return d


class TestFaultConfig:
    def test_defaults_disabled(self):
        cfg = FaultConfig()
        assert not cfg.enabled

    @pytest.mark.parametrize("kw", [
        dict(p_cancel_loss=0.1),
        dict(cancel_delay_mean=5.0),
        dict(outage_rate=1.0),
    ])
    def test_any_knob_enables(self, kw):
        assert FaultConfig(**kw).enabled

    @pytest.mark.parametrize("kw", [
        dict(p_cancel_loss=-0.1),
        dict(p_cancel_loss=1.5),
        dict(cancel_delay_mean=-1.0),
        dict(cancel_delay_distribution="gaussian"),
        dict(outage_rate=-1.0),
        dict(outage_duration=0.0),
        dict(resubmit_policy="retry-forever"),
        dict(cancel_delay_mean=float("nan")),
        dict(outage_rate=float("nan")),
        dict(outage_duration=float("nan")),
        dict(outage_duration=float("inf")),
        dict(outage_rate=float("inf")),
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            FaultConfig(**kw)

    @pytest.mark.parametrize("kw", [
        dict(p_cancel_loss=0.0),
        dict(p_cancel_loss=1.0),
        dict(p_cancel_loss=1),
        dict(cancel_delay_mean=0),
        dict(outage_rate=0.0),
        dict(outage_duration=1e-9),
        dict(outage_duration=600),
    ])
    def test_boundary_values_accepted(self, kw):
        cfg = FaultConfig(**kw)
        for name, value in kw.items():
            assert getattr(cfg, name) == value


class TestFaultInjector:
    def test_cancel_loss_draws(self):
        assert not injector().cancel_lost()
        always = injector(p_cancel_loss=1.0)
        assert all(always.cancel_lost() for _ in range(20))

    def test_fixed_delay_is_the_mean(self):
        inj = injector(cancel_delay_mean=3.0,
                       cancel_delay_distribution="fixed")
        assert inj.has_cancel_delay
        assert inj.draw_cancel_delay() == 3.0

    def test_uniform_delay_bounded(self):
        inj = injector(cancel_delay_mean=5.0,
                       cancel_delay_distribution="uniform")
        draws = [inj.draw_cancel_delay() for _ in range(200)]
        assert all(0.0 <= d <= 10.0 for d in draws)

    def test_exponential_delay_nonnegative(self):
        inj = injector(cancel_delay_mean=5.0)
        assert all(inj.draw_cancel_delay() >= 0.0 for _ in range(100))

    def test_outage_windows_disjoint_and_within_horizon(self):
        inj = injector(outage_rate=30.0, outage_duration=60.0)
        windows = inj.generate_outage_windows(4, horizon=3600.0)
        assert len(windows) == 4
        assert any(windows), "30/h over an hour should draw some outage"
        for cluster_windows in windows:
            prev_end = 0.0
            for start, end in cluster_windows:
                assert prev_end <= start < 3600.0
                assert end > start
                prev_end = end

    def test_zero_rate_draws_nothing(self):
        inj = injector(cancel_delay_mean=1.0)  # enabled, rate 0
        assert inj.generate_outage_windows(3, 3600.0) == [[], [], []]

    def test_windows_deterministic_per_seed(self):
        cfg = FaultConfig(outage_rate=10.0)
        a = FaultInjector(cfg, np.random.default_rng(3))
        b = FaultInjector(cfg, np.random.default_rng(3))
        assert (a.generate_outage_windows(5, 3600.0)
                == b.generate_outage_windows(5, 3600.0))

    def test_earliest_recovery(self):
        inj = injector(outage_rate=1.0)
        inj.windows = [[(10.0, 20.0)], [(5.0, 30.0)], []]
        assert inj.earliest_recovery([0, 1], now=12.0) == 20.0
        assert inj.earliest_recovery([1], now=12.0) == 30.0
        assert inj.earliest_recovery([2], now=12.0) is None
        assert inj.earliest_recovery([0], now=25.0) is None


class TestSchedulerOutageState:
    def test_down_rejects_and_drop_loses_queue(self):
        sim = Simulator()
        platform = Platform(sim, [8], algorithm="easy")
        sched = platform.schedulers[0]
        r1 = request()
        sched.submit(r1)
        dropped = sched.go_down(drop_queue=True)
        assert dropped == [r1]
        assert r1.state is RequestState.CANCELLED
        assert sched.stats.dropped == 1
        assert sched.queue_length == 0
        with pytest.raises(SchedulerDownError):
            sched.submit(request())
        with pytest.raises(SchedulerError):
            sched.go_down()
        sched.come_up()
        with pytest.raises(SchedulerError):
            sched.come_up()
        r2 = request()
        sched.submit(r2)
        sim.run()
        assert r2.state is RequestState.COMPLETED

    def test_down_without_drop_keeps_queue(self):
        sim = Simulator()
        platform = Platform(sim, [8], algorithm="easy")
        sched = platform.schedulers[0]
        r1 = request()
        sched.submit(r1)
        assert sched.go_down(drop_queue=False) == []
        assert r1.state is RequestState.PENDING
        with pytest.raises(SchedulerDownError):
            sched.cancel(r1)
        sched.cancel(r1, force=True)  # the operator purge still works
        assert r1.state is RequestState.CANCELLED

    def test_no_scheduling_while_down(self):
        sim = Simulator()
        platform = Platform(sim, [8], algorithm="easy")
        sched = platform.schedulers[0]
        r1 = request()
        sched.submit(r1)
        sched.go_down()
        sim.run()
        assert r1.state is RequestState.PENDING, "downed daemon must not start work"
        sched.come_up()
        sim.run()
        assert r1.state is RequestState.COMPLETED


class TestLostCancellations:
    def test_orphan_runs_as_waste(self):
        sim = Simulator()
        platform = Platform(sim, [8, 8], algorithm="easy")
        coord = Coordinator(
            sim, platform, fault_injector=injector(p_cancel_loss=1.0)
        )
        blocker = job(origin=1, nodes=8, runtime=5.0, redundant=False)
        coord.schedule_job(blocker, [1])
        j = job(origin=0, nodes=8, runtime=10.0)
        coord.schedule_job(j, [0, 1])
        sim.run()
        rj = coord.jobs[1]
        assert rj.winner.cluster.cluster.index == 0
        assert coord.lost_cancellations == 1
        assert coord.total_cancellations == 0
        [orphan] = coord.duplicate_starts
        assert orphan.state is RequestState.COMPLETED
        assert coord.wasted_node_seconds(sim.now) == pytest.approx(80.0)
        coord.check_invariants()

    def test_zero_probability_never_loses(self):
        sim = Simulator()
        platform = Platform(sim, [8, 8], algorithm="easy")
        coord = Coordinator(
            sim, platform, fault_injector=injector(p_cancel_loss=0.0,
                                                   outage_rate=1.0)
        )
        coord.schedule_job(job(origin=0, nodes=8), [0, 1])
        sim.run()
        assert coord.lost_cancellations == 0
        assert coord.total_cancellations == 1


class TestDelayedCancellations:
    def test_fixed_delay_cancels_at_start_plus_delay(self):
        sim = Simulator()
        platform = Platform(sim, [8, 8], algorithm="easy")
        coord = Coordinator(
            sim, platform,
            fault_injector=injector(cancel_delay_mean=3.0,
                                    cancel_delay_distribution="fixed"),
        )
        blocker = job(origin=1, nodes=8, runtime=50.0, redundant=False)
        coord.schedule_job(blocker, [1])
        coord.schedule_job(job(origin=0, nodes=8, arrival=1.0), [0, 1])
        sim.run()
        loser = coord.jobs[1].requests[1]
        assert loser.state is RequestState.CANCELLED
        assert loser.cancelled_at == pytest.approx(4.0)  # start 1.0 + 3.0

    def test_sibling_racing_its_cancellation_is_waste(self):
        sim = Simulator()
        platform = Platform(sim, [8, 8], algorithm="easy")
        coord = Coordinator(
            sim, platform,
            fault_injector=injector(cancel_delay_mean=5.0,
                                    cancel_delay_distribution="fixed"),
        )
        # Cluster 1 frees up at t=2, inside the 5 s cancellation window.
        blocker = job(origin=1, nodes=8, runtime=2.0, redundant=False)
        coord.schedule_job(blocker, [1])
        coord.schedule_job(job(origin=0, nodes=8, runtime=10.0), [0, 1])
        sim.run()
        assert len(coord.duplicate_starts) == 1
        assert coord.wasted_node_seconds(sim.now) == pytest.approx(80.0)
        coord.check_invariants()


class TestOutageRecovery:
    def _outage(self, policy, drop=True, window=(1.0, 4.0)):
        sim = Simulator()
        platform = Platform(sim, [8, 8], algorithm="easy")
        inj = injector(outage_rate=1.0, outage_drop_queue=drop,
                       resubmit_policy=policy)
        coord = Coordinator(sim, platform, fault_injector=inj)
        inj.generate_outage_windows = lambda n, h: [[window], []]
        inj.install(sim, platform, coord, horizon=10.0)
        return sim, platform, coord

    def test_dropped_copy_resubmitted_at_recovery(self):
        sim, platform, coord = self._outage("resubmit")
        # Keep cluster 0 busy so the job is still pending when the
        # outage at t=1 drops the queue.
        blocker = job(origin=0, nodes=8, runtime=6.0, redundant=False)
        coord.schedule_job(blocker, [0])
        coord.schedule_job(
            job(origin=0, arrival=0.5, nodes=8, runtime=2.0, redundant=False),
            [0],
        )
        sim.run()
        rj = coord.jobs[1]
        assert coord.resubmissions == 1
        assert platform.schedulers[0].stats.dropped == 1
        assert rj.completed
        assert rj.winner.start_time == pytest.approx(6.0)

    def test_abandon_policy_gives_up_the_job(self):
        sim, platform, coord = self._outage("abandon")
        blocker = job(origin=0, nodes=8, runtime=6.0, redundant=False)
        coord.schedule_job(blocker, [0])
        coord.schedule_job(
            job(origin=0, arrival=0.5, nodes=8, runtime=2.0, redundant=False),
            [0],
        )
        sim.run()
        assert coord.resubmissions == 0
        assert not coord.jobs[1].completed
        assert coord.abandoned_jobs() == 1

    def test_submission_during_outage_retried_at_recovery(self):
        sim, platform, coord = self._outage("resubmit", drop=False)
        # Arrives at t=2, mid-outage: the submit is rejected, retried at
        # t=4 when the scheduler recovers.
        coord.schedule_job(
            job(origin=0, arrival=2.0, nodes=8, runtime=3.0, redundant=False),
            [0],
        )
        sim.run()
        rj = coord.jobs[0]
        assert coord.failed_submissions == 1
        assert coord.resubmissions == 1
        assert rj.completed
        assert rj.winner.start_time == pytest.approx(4.0)

    def test_subset_of_targets_down_does_not_sink_the_job(self):
        sim = Simulator()
        platform = Platform(sim, [8, 8], algorithm="easy")
        coord = Coordinator(sim, platform)  # no injector: pure abandon
        platform.schedulers[1].go_down()
        rj = coord.submit_job(job(origin=0, nodes=8), [0, 1])
        sim.run()
        assert coord.failed_submissions == 1
        assert rj.n_copies == 1
        assert rj.completed

    def test_all_targets_down_abandons(self):
        sim = Simulator()
        platform = Platform(sim, [8], algorithm="easy")
        coord = Coordinator(sim, platform)
        platform.schedulers[0].go_down()
        coord.submit_job(job(origin=0, redundant=False), [0])
        sim.run()
        assert coord.abandoned_jobs() == 1
        assert coord.unfinished_jobs() != []


class TestEndToEnd:
    def test_disabled_faults_bit_identical_to_none(self):
        """The acceptance criterion: a present-but-disabled fault config
        is a strict no-op down to the last bit."""
        plain = run_single(tiny(scheme="ALL"), 0)
        gated = run_single(tiny(scheme="ALL", faults=FaultConfig()), 0)
        assert strip_wall(plain) == strip_wall(gated)
        assert gated.lost_cancellations == 0
        assert gated.wasted_node_seconds == 0.0

    def test_lost_cancellations_surface_in_results(self):
        cfg = tiny(scheme="ALL", faults=FaultConfig(p_cancel_loss=1.0))
        result = run_single(cfg, 0, check_invariants=True)
        assert result.lost_cancellations > 0
        assert result.wasted_node_seconds > 0
        assert 0.0 < result.wasted_work_fraction < 1.0

    def test_outages_surface_in_results(self):
        cfg = tiny(scheme="R2", faults=FaultConfig(
            outage_rate=40.0, outage_duration=30.0,
            outage_drop_queue=True, resubmit_policy="resubmit",
        ))
        result = run_single(cfg, 0, check_invariants=True)
        assert result.outages > 0
        assert result.dropped_requests > 0

    def test_fault_runs_deterministic_serial_vs_parallel(self):
        cfg = tiny(scheme="ALL", faults=FaultConfig(
            p_cancel_loss=0.3, cancel_delay_mean=5.0,
            outage_rate=10.0, outage_duration=60.0,
            outage_drop_queue=True,
        ))
        serial = run_grid([cfg, tiny(scheme="R2")], 2, n_workers=1)
        parallel = run_grid([cfg, tiny(scheme="R2")], 2, n_workers=2)
        for s_cfg, p_cfg in zip(serial, parallel):
            assert [strip_wall(r) for r in s_cfg] == [
                strip_wall(r) for r in p_cfg
            ]

    def test_fault_config_changes_fingerprint(self):
        from repro.core.cache import config_fingerprint

        assert config_fingerprint(tiny()) != config_fingerprint(
            tiny(faults=FaultConfig(p_cancel_loss=0.1))
        )

    def test_describe_mentions_enabled_faults_only(self):
        assert "faults" not in tiny().describe()
        assert "faults" not in tiny(faults=FaultConfig()).describe()
        desc = tiny(faults=FaultConfig(p_cancel_loss=0.25,
                                       outage_rate=2.0)).describe()
        assert "p_loss=0.25" in desc and "outage=2/h" in desc
