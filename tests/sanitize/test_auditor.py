"""Tests for the runtime invariant auditor.

Two directions: clean runs under every algorithm must produce zero
violations in ``raise`` mode (no false positives), and a deliberately
injected inconsistency must be detected and reported with obs-layer
trace context (no false negatives).
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.core.config import ExperimentConfig
from repro.faults import FaultConfig
from repro.sanitize import AuditError, InvariantAuditor, run_single_audited
from repro.sanitize.auditor import VIOLATION_KINDS, Violation
from repro.sched import CBFScheduler
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority

from ..conftest import make_request


def small_config(**overrides):
    defaults = dict(
        n_clusters=2,
        nodes_per_cluster=8,
        duration=150.0,
        offered_load=1.5,
        scheme="R2",
        drain=True,
        seed=20060619,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestCleanRuns:
    @pytest.mark.parametrize("algorithm", ["fcfs", "easy", "cbf"])
    def test_audited_run_is_clean(self, algorithm):
        """A normal run violates nothing — raise mode completes."""
        result, auditor = run_single_audited(
            small_config(algorithm=algorithm), mode="raise"
        )
        assert auditor.ok
        assert auditor.checks > 0
        assert result.n_submitted_jobs > 0

    def test_audit_does_not_change_results(self):
        """Arming the auditor is observationally transparent."""
        from repro.core.experiment import run_single
        from repro.sched.job import reset_request_ids

        cfg = small_config(algorithm="cbf")
        reset_request_ids()
        plain = run_single(cfg, 0)
        audited, auditor = run_single_audited(cfg, mode="raise")
        assert auditor.ok
        assert len(audited.jobs) == len(plain.jobs)
        assert {(j.job_id, j.start_time, j.end_time) for j in audited.jobs} \
            == {(j.job_id, j.start_time, j.end_time) for j in plain.jobs}

    def test_cbf_with_eager_compression_is_clean(self):
        _, auditor = run_single_audited(
            small_config(algorithm="cbf", cbf_compress_interval=0.0),
            mode="raise",
        )
        assert auditor.ok

    def test_outage_waives_cbf_prediction_guarantee(self):
        """Outages legally void at-submit guarantees: no false positive."""
        faults = FaultConfig(
            outage_rate=60.0,
            outage_duration=30.0,
            outage_drop_queue=False,
            resubmit_policy="resubmit",
        )
        result, auditor = run_single_audited(
            small_config(algorithm="cbf", faults=faults), mode="raise"
        )
        assert auditor.ok
        assert result.outages >= 1  # the waiver was actually exercised


class InjectedScenario:
    """A tiny hand-wired CBF run with a mid-run profile corruption."""

    def __init__(self, mode: str) -> None:
        self.sim = Simulator()
        self.auditor = InvariantAuditor(mode=mode, cbf_profile_every=1)
        cluster = Cluster(0, 4)
        self.cbf = CBFScheduler(self.sim, cluster)
        self.cbf.observer = self.auditor
        # a holds the whole cluster over [0, 10); b is reserved behind it.
        self.cbf.submit(make_request(nodes=4, runtime=10.0))
        self.cbf.submit(make_request(nodes=2, runtime=10.0))
        # Leak two nodes from the profile tail at t=5 — the kind of drift
        # a buggy release path would produce.
        self.sim.at(
            5.0,
            lambda: self.cbf.profile.adjust(30.0, 40.0, -2),
            EventPriority.CONTROL,
        )


class TestInjectedViolation:
    def test_collect_mode_reports_with_trace_context(self):
        scenario = InjectedScenario(mode="collect")
        scenario.sim.run()
        violations = scenario.auditor.violations
        assert violations, "injected profile drift went undetected"
        assert not scenario.auditor.ok
        first = violations[0]
        assert first.kind == "profile"
        assert "drifted" in first.message or "leak" in first.message
        # The obs-layer context rode along: real lifecycle events, and
        # the rendering includes them.
        assert first.trace_context
        text = first.describe()
        assert "trace context" in text
        assert "queue" in text and "start" in text

    def test_raise_mode_stops_at_first_violation(self):
        scenario = InjectedScenario(mode="raise")
        with pytest.raises(AuditError, match="profile"):
            scenario.sim.run()

    def test_violation_kind_is_registered(self):
        scenario = InjectedScenario(mode="collect")
        scenario.sim.run()
        for v in scenario.auditor.violations:
            assert v.kind in VIOLATION_KINDS


class TestViolationRendering:
    def test_describe_without_context(self):
        v = Violation(time=12.5, kind="capacity", message="boom", cluster=1)
        text = v.describe()
        assert text.startswith("[capacity] t=12.500 (cluster=1): boom")
        assert "trace context" not in text

    def test_describe_with_context(self):
        v = Violation(
            time=1.0,
            kind="state",
            message="bad",
            trace_context=((0.5, "submit", 0, 3, 7),),
        )
        text = v.describe()
        assert "trace context" in text
        assert "request=3" in text and "job=7" in text


class TestAuditorConfig:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            InvariantAuditor(mode="explode")

    def test_invalid_profile_cadence_rejected(self):
        with pytest.raises(ValueError, match="cbf_profile_every"):
            InvariantAuditor(cbf_profile_every=0)

    def test_collect_mode_caps_stored_violations(self):
        auditor = InvariantAuditor(mode="collect", max_violations=2)
        for i in range(5):
            auditor._violate(float(i), "state", f"v{i}")
        assert len(auditor.violations) == 2
        assert auditor.suppressed == 3
        assert auditor.total_violations == 5
        assert not auditor.ok
