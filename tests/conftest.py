"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import logging

import pytest

from repro.cluster.cluster import Cluster
from repro.sched import CBFScheduler, EASYScheduler, FCFSScheduler
from repro.sched.job import Request
from repro.sim.engine import Simulator


#: one malformed value per JobSpec field, as it could arrive in JSON:
#: each must be refused at submit time (JobSpec, the HTTP route, the CLI)
BAD_SPEC_FIELDS = [
    ("n_replications", "3"),
    ("n_replications", 0),
    ("n_replications", 2.0),
    ("n_replications", True),
    ("first_replication", -5),
    ("first_replication", "0"),
    ("executor", "telegraph"),
    ("n_workers", 0),
    ("n_workers", 1.5),
    ("chunksize", 0),
    ("chunksize", -3),
    ("chunksize", "2"),
    ("lease_ttl_s", -1),
    ("lease_ttl_s", 0),
    ("lease_ttl_s", float("nan")),
    ("lease_ttl_s", float("inf")),
    ("lease_ttl_s", "x"),
    ("lease_ttl_s", True),
    ("max_attempts", 0),
    ("max_attempts", 2.5),
]

#: one malformed value per ExperimentConfig field, as it could arrive in
#: a spec's ``configs`` list: each must be refused at construction
#: (ExperimentConfig, JobSpec, the HTTP route, the CLI), never mid-run
BAD_CONFIG_FIELDS = [
    ("seed", 1.5),
    ("seed", True),
    ("seed", "7"),
    ("seed", -1),
    ("n_clusters", 2.0),
    ("n_clusters", "3"),
    ("n_clusters", True),
    ("n_clusters", 0),
    ("nodes_per_cluster", 8.0),
    ("nodes_per_cluster", "8"),
    ("nodes_per_cluster", [8, 0]),
    ("duration", float("nan")),
    ("duration", float("inf")),
    ("cbf_compress_interval", float("nan")),
    ("cbf_compress_interval", -1.0),
    ("cbf_compress_interval", float("inf")),
    ("cbf_compress_interval", "0"),
    ("cancellation_latency", -1.0),
    ("cancellation_latency", float("nan")),
    ("mean_interarrival", 0),
    ("mean_interarrival", -5.0),
    ("offered_load", -1),
    ("offered_load", 0.0),
    ("offered_load", float("nan")),
    ("remote_inflation", float("nan")),
    ("adoption_probability", "1"),
    ("target_bias_ratio", 2.0),
    ("target_bias_ratio", 0.0),
    ("target_bias_ratio", -1.0),
    ("target_bias_ratio", float("nan")),
    ("target_bias_ratio", float("inf")),
]


def make_request(
    nodes: int = 1,
    runtime: float = 10.0,
    requested: float | None = None,
    submit_time: float = 0.0,
    **kwargs,
) -> Request:
    """A request with sensible defaults for scheduler tests."""
    return Request(
        nodes=nodes,
        runtime=runtime,
        requested_time=requested if requested is not None else runtime,
        submit_time=submit_time,
        **kwargs,
    )


@pytest.fixture(autouse=True)
def _isolate_repro_logger():
    """Undo ``setup_logging`` side effects between tests.

    Any test that drives ``repro.cli.main`` installs a stderr handler
    on the ``repro`` logger and turns propagation off; left in place,
    the handler points at a captured (and later closed) stream and
    caplog-based tests downstream never see their records.
    """
    logger = logging.getLogger("repro")
    level, propagate = logger.level, logger.propagate
    handlers = list(logger.handlers)
    yield
    logger.setLevel(level)
    logger.propagate = propagate
    logger.handlers[:] = handlers


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def cluster() -> Cluster:
    return Cluster(0, 8)


@pytest.fixture(params=["fcfs", "easy", "cbf"])
def any_scheduler(request, sim, cluster):
    """One scheduler of each algorithm, same 8-node cluster."""
    cls = {"fcfs": FCFSScheduler, "easy": EASYScheduler, "cbf": CBFScheduler}
    return cls[request.param](sim, cluster)


def run_all(sim: Simulator) -> None:
    """Drain the event heap."""
    sim.run()


def submit_at(sim: Simulator, scheduler, request: Request, t: float) -> Request:
    """Schedule a submission at absolute time ``t``."""
    from repro.sim.events import EventPriority

    sim.at(t, lambda: scheduler.submit(request), EventPriority.SUBMIT)
    return request
