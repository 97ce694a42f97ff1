"""Unit tests for Request state and derived quantities."""

import pytest

from repro.sched.job import Request, RequestState

from ..conftest import make_request


class TestValidation:
    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            Request(nodes=0, runtime=1.0, requested_time=1.0)

    def test_nonpositive_runtime_rejected(self):
        with pytest.raises(ValueError):
            Request(nodes=1, runtime=0.0, requested_time=1.0)

    def test_requested_below_runtime_rejected(self):
        with pytest.raises(ValueError):
            Request(nodes=1, runtime=10.0, requested_time=5.0)

    def test_requested_equal_runtime_allowed(self):
        r = Request(nodes=1, runtime=10.0, requested_time=10.0)
        assert r.requested_time == 10.0


class TestLifecycle:
    def test_initial_state_created(self):
        assert make_request().state is RequestState.CREATED

    def test_unique_ids(self):
        a, b = make_request(), make_request()
        assert a.request_id != b.request_id

    def test_is_pending_and_active(self):
        r = make_request()
        assert not r.is_pending
        r.state = RequestState.PENDING
        assert r.is_pending and r.is_active
        r.state = RequestState.RUNNING
        assert not r.is_pending and r.is_active
        r.state = RequestState.COMPLETED
        assert not r.is_active


class TestDerivedQuantities:
    def _completed(self) -> Request:
        r = make_request(runtime=10.0, requested=20.0)
        r.submitted_at = 100.0
        r.start_time = 130.0
        r.end_time = 140.0
        r.state = RequestState.COMPLETED
        return r

    def test_wait_time(self):
        assert self._completed().wait_time == 30.0

    def test_turnaround(self):
        assert self._completed().turnaround == 40.0

    def test_stretch(self):
        assert self._completed().stretch == 4.0

    def test_expected_end_uses_requested_time(self):
        r = self._completed()
        assert r.expected_end == 150.0  # 130 + requested 20

    def test_wait_before_start_raises(self):
        r = make_request()
        r.submitted_at = 0.0
        with pytest.raises(ValueError):
            _ = r.wait_time

    def test_turnaround_before_end_raises(self):
        r = make_request()
        r.submitted_at = 0.0
        r.start_time = 1.0
        with pytest.raises(ValueError):
            _ = r.turnaround

    def test_expected_end_before_start_raises(self):
        with pytest.raises(ValueError):
            _ = make_request().expected_end


class TestCopySpec:
    def test_copy_preserves_workload_fields(self):
        r = make_request(nodes=4, runtime=7.0, requested=9.0, submit_time=3.0)
        c = r.copy_spec()
        assert (c.nodes, c.runtime, c.requested_time, c.submit_time) == (
            4, 7.0, 9.0, 3.0
        )

    def test_copy_gets_fresh_identity_and_state(self):
        r = make_request()
        r.state = RequestState.PENDING
        c = r.copy_spec()
        assert c.request_id != r.request_id
        assert c.state is RequestState.CREATED

    def test_requests_compare_by_identity(self):
        r = make_request()
        twin = r.copy_spec()
        twin.request_id = r.request_id
        assert twin != r
        assert r == r
        assert len({r, twin}) == 2

    def test_copy_overrides(self):
        r = make_request(requested=10.0)
        c = r.copy_spec(requested_time=15.0)
        assert c.requested_time == 15.0
