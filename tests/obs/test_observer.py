"""The one lifecycle observer hook.

Schedulers and the coordinator report every lifecycle transition as
``observer.on(etype, sched, request, detail)``.  One config with
outages that drop queues, lost cancellations, cancellation latency and
cancel-on-complete reaches every site; the recorder and the auditor are
two observers of the same stream.
"""

from collections import Counter

import pytest

from repro.core.config import ExperimentConfig
from repro.core.experiment import run_single
from repro.faults import FaultConfig
from repro.obs.trace import EVENT_TYPES, run_single_traced
from repro.sanitize import run_single_audited
from repro.sched.job import reset_request_ids

#: events an observer receives that a trace never holds
CHECK_ONLY = {"pass", "backfill", "duplicate_start"}


def every_site_config(algorithm):
    return ExperimentConfig(
        n_clusters=3,
        nodes_per_cluster=16,
        duration=600.0,
        offered_load=1.5,
        scheme="ALL",
        algorithm=algorithm,
        drain=True,
        seed=11,
        cancellation_latency=5.0,
        cancellation_policy="cancel-on-complete",
        faults=FaultConfig(
            p_cancel_loss=0.3,
            outage_rate=12.0,
            outage_duration=60.0,
            outage_drop_queue=True,
            resubmit_policy="resubmit",
        ),
    )


class _CountingObserver:
    def __init__(self):
        self.types = Counter()

    def on(self, etype, sched, request=None, detail=None):
        self.types[etype] += 1


@pytest.mark.parametrize("algorithm", ["easy", "cbf"])
def test_every_event_type_is_recorded(algorithm):
    traced = run_single_traced(every_site_config(algorithm))
    counts = Counter(e[1] for e in traced.events)
    assert set(counts) == set(EVENT_TYPES)
    result = traced.result
    assert result.dropped_requests > 0
    # A queue-dropping outage reports each lost request once.
    assert counts["cancel_applied"] == (
        result.total_cancellations + result.dropped_requests
    )
    assert result.lost_cancellations > 0
    assert result.resubmissions > 0


@pytest.mark.parametrize("algorithm", ["easy", "cbf"])
def test_audited_recorder_holds_exactly_the_traced_events(algorithm):
    cfg = every_site_config(algorithm)
    traced = run_single_traced(cfg)
    _, auditor = run_single_audited(cfg, mode="raise")
    assert auditor.ok
    assert auditor.recorder.events == traced.events


def test_check_only_events_reach_the_observer_but_not_the_trace():
    observer = _CountingObserver()
    reset_request_ids()
    run_single(every_site_config("easy"), observer=observer)
    assert set(observer.types) == set(EVENT_TYPES) | CHECK_ONLY
    traced = run_single_traced(every_site_config("easy"))
    recorded = Counter(e[1] for e in traced.events)
    assert recorded == Counter(
        {t: n for t, n in observer.types.items() if t not in CHECK_ONLY}
    )
