"""Result containers: per-job outcomes and per-experiment summaries.

The simulator's live objects (requests, schedulers) are reduced to
plain records as soon as a run finishes, so results are cheap to hold
across 50-replication sweeps and trivially serialisable: :func:`plain`
turns any of them (or any other dataclass) into dicts and lists.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

import numpy as np

from .metrics import (
    MetricSummary,
    bounded_slowdown,
    node_seconds,
    stretch,
    waste_fraction,
)


@dataclass(frozen=True)
class JobOutcome:
    """Final timings of one job (defined by its winning request)."""

    job_id: int
    origin: int
    winner_cluster: int
    nodes: int
    runtime: float
    requested_time: float
    submit_time: float
    start_time: float
    end_time: float
    uses_redundancy: bool
    n_copies: int
    #: CBF's waiting-time prediction at the local cluster (None for
    #: EASY/FCFS runs)
    predicted_wait_local: Optional[float] = None
    #: min over all copies' predictions — what a redundant user would
    #: quote as their expected wait (Section 5)
    predicted_wait_min: Optional[float] = None

    @property
    def wait_time(self) -> float:
        return self.start_time - self.submit_time

    @property
    def turnaround(self) -> float:
        return self.end_time - self.submit_time

    @property
    def stretch(self) -> float:
        return stretch(self.turnaround, self.runtime)

    @property
    def bounded_slowdown(self) -> float:
        return bounded_slowdown(self.turnaround, self.runtime)

    @property
    def ran_remotely(self) -> bool:
        """Whether the winning copy ran away from the user's local cluster."""
        return self.winner_cluster != self.origin


@dataclass(frozen=True)
class ClusterOutcome:
    """Per-queue accounting for one cluster over one run."""

    cluster: int
    total_nodes: int
    submitted: int
    cancelled: int
    started: int
    completed: int
    max_queue_length: int
    #: pending requests lost to a queue-dropping scheduler crash
    dropped: int = 0
    #: starts that jumped the queue order (EASY backfill, CBF early start)
    backfilled: int = 0


@dataclass
class ExperimentResult:
    """All outcomes of one simulated experiment (one replication)."""

    scheme: str
    algorithm: str
    n_clusters: int
    replication: int
    #: outcomes of *completed* jobs (the metric population; jobs still
    #: queued or running when the simulation window closes are excluded,
    #: matching the paper's steady-state metrics under overload)
    jobs: list[JobOutcome] = field(default_factory=list)
    #: all jobs submitted, completed or not
    n_submitted_jobs: int = 0
    clusters: list[ClusterOutcome] = field(default_factory=list)
    #: total requests submitted / cancelled across all queues
    total_requests: int = 0
    total_cancellations: int = 0
    # -- fault accounting (all zero in a fault-free run) -------------------
    #: cancellation messages that never reached their scheduler
    lost_cancellations: int = 0
    #: submissions rejected by a downed scheduler
    failed_submissions: int = 0
    #: copies successfully submitted again after an outage
    resubmissions: int = 0
    #: jobs that lost every copy to faults before any could start
    abandoned_jobs: int = 0
    #: scheduler outages that began during the run
    outages: int = 0
    #: node-seconds burned by non-winning copies that ran anyway
    wasted_node_seconds: float = 0.0
    wall_time_s: float = 0.0
    # -- kernel/driver observability (metrics registry feedstock) ----------
    #: simulator events executed by this run
    events_executed: int = 0
    #: lazy-cancellation heap compaction sweeps performed
    heap_compactions: int = 0
    #: wall-clock per driver phase (generate/simulate/aggregate), seconds
    phase_timings: dict = field(default_factory=dict)
    #: per-run metric summary (:mod:`repro.obs.stream` payload,
    #: schema-versioned): moments and exact p50/p90/p99 for
    #: stretch/wait/slowdown/wasted-work, computed at the end of the
    #: run.  ``None`` when online statistics were disabled.
    online_metrics: Optional[dict] = None

    # -- selections -------------------------------------------------------

    def select(self, redundant: Optional[bool] = None) -> list[JobOutcome]:
        """Jobs filtered by redundancy use (None = all jobs)."""
        if redundant is None:
            return self.jobs
        return [j for j in self.jobs if j.uses_redundancy == redundant]

    def stretches(self, redundant: Optional[bool] = None) -> np.ndarray:
        return np.array([j.stretch for j in self.select(redundant)], dtype=float)

    def turnarounds(self, redundant: Optional[bool] = None) -> np.ndarray:
        return np.array([j.turnaround for j in self.select(redundant)], dtype=float)

    def waits(self, redundant: Optional[bool] = None) -> np.ndarray:
        return np.array([j.wait_time for j in self.select(redundant)], dtype=float)

    # -- headline metrics (Section 3.2) -------------------------------------

    def stretch_summary(self, redundant: Optional[bool] = None) -> MetricSummary:
        return MetricSummary.of(self.stretches(redundant))

    @property
    def avg_stretch(self) -> float:
        return self.stretch_summary().mean

    @property
    def cv_stretch(self) -> float:
        """Coefficient of variation of stretches, in percent."""
        return self.stretch_summary().cv_percent

    @property
    def max_stretch(self) -> float:
        return self.stretch_summary().maximum

    @property
    def avg_turnaround(self) -> float:
        t = self.turnarounds()
        return float(t.mean()) if t.size else float("nan")

    @property
    def n_jobs(self) -> int:
        """Number of completed jobs (the metric population)."""
        return len(self.jobs)

    @property
    def completion_fraction(self) -> float:
        """Completed / submitted — well below 1 under peak-hour overload."""
        if self.n_submitted_jobs == 0:
            return float("nan")
        return len(self.jobs) / self.n_submitted_jobs

    @property
    def max_queue_length(self) -> int:
        """Largest queue length observed on any cluster."""
        if not self.clusters:
            return 0
        return max(c.max_queue_length for c in self.clusters)

    @property
    def avg_max_queue_length(self) -> float:
        """Average over clusters of each queue's maximum length.

        The paper's Section 4.1 queue-size comparison ("the average
        maximum queue size across all clusters for the ALL scheme is
        larger ... by less than 2%") uses exactly this statistic.
        """
        if not self.clusters:
            return float("nan")
        return float(np.mean([c.max_queue_length for c in self.clusters]))

    # -- waste accounting (the fault-regime headline) -----------------------

    @property
    def useful_node_seconds(self) -> float:
        """Node-seconds spent by winning copies of completed jobs."""
        return node_seconds((j.nodes, j.runtime) for j in self.jobs)

    @property
    def wasted_work_fraction(self) -> float:
        """Wasted node-seconds over all node-seconds consumed.

        Zero in a perfect world; grows with lost/late cancellations as
        orphaned copies run to completion beside their winners.
        """
        return waste_fraction(self.useful_node_seconds, self.wasted_node_seconds)

    @property
    def dropped_requests(self) -> int:
        """Pending requests lost to queue-dropping crashes, all clusters."""
        return sum(c.dropped for c in self.clusters)

    @property
    def total_backfills(self) -> int:
        """Out-of-order starts (backfill decisions) across all clusters."""
        return sum(c.backfilled for c in self.clusters)

    def remote_fraction(self) -> float:
        """Fraction of redundant jobs whose winner ran remotely."""
        red = self.select(redundant=True)
        if not red:
            return float("nan")
        return sum(1 for j in red if j.ran_remotely) / len(red)


def merge_results(results: Iterable[ExperimentResult]) -> list[ExperimentResult]:
    """Materialise and sanity-check a replication collection.

    Rejects mixed configurations *and* duplicated replications: feeding
    the same replication twice (a retry that was also kept, a cache
    layer double-counting) would silently bias every mean the sweep
    reports, so it is an error rather than a statistic.
    """
    out = list(results)
    if not out:
        raise ValueError("no results to merge")
    first = out[0]
    seen: set[tuple] = set()
    for r in out:
        if (r.scheme, r.algorithm, r.n_clusters) != (
            first.scheme, first.algorithm, first.n_clusters
        ):
            raise ValueError(
                "mixing results from different configurations: "
                f"{(r.scheme, r.algorithm, r.n_clusters)} vs "
                f"{(first.scheme, first.algorithm, first.n_clusters)}"
            )
        key = (r.scheme, r.algorithm, r.n_clusters, r.replication)
        if key in seen:
            raise ValueError(
                f"duplicate replication in merge: (scheme={r.scheme}, "
                f"algorithm={r.algorithm}, n_clusters={r.n_clusters}, "
                f"replication={r.replication}) appears more than once"
            )
        seen.add(key)
    return out


#: leaf types :func:`plain` returns without a further type test
_ATOMIC = frozenset({type(None), bool, int, float, str})

#: field names of the records a grid holds thousands of, built once at
#: import; any other dataclass has its fields looked up per call
_FIELD_NAMES = {
    cls: tuple(f.name for f in dataclasses.fields(cls))
    for cls in (JobOutcome, ClusterOutcome, ExperimentResult)
}


def plain(obj: Any) -> Any:
    """``obj`` as plain data: the stdlib's dataclass-to-dict conversion
    without its deep copies.

    Dataclass instances become dicts keyed by field name in field
    order; lists, tuples (named tuples included) and dicts are rebuilt
    with their own types, walked recursively.  Every container in the
    result is fresh, so mutating it never reaches ``obj``.  Leaf values
    (numbers, strings, numpy scalars) are shared rather than copied:
    they are immutable in every record this package keeps.
    """
    cls = type(obj)
    if cls in _ATOMIC:
        return obj
    names = _FIELD_NAMES.get(cls)
    if names is None and hasattr(cls, "__dataclass_fields__"):
        names = tuple(f.name for f in dataclasses.fields(obj))
    if names is not None:
        out: dict[str, Any] = {}
        for name in names:
            value = getattr(obj, name)
            out[name] = value if type(value) in _ATOMIC else plain(value)
        return out
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return cls(*[plain(v) for v in obj])
    if isinstance(obj, (list, tuple)):
        return cls(plain(v) for v in obj)
    if isinstance(obj, dict):
        return cls((plain(k), plain(v)) for k, v in obj.items())
    return obj
