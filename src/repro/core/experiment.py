"""Single-experiment driver: build the platform, run one replication.

The protocol follows Section 3.3 of the paper exactly:

1. generate one Lublin job stream per cluster (common random numbers:
   the stream depends only on the replication and cluster indices);
2. each job submits one request to its local cluster and, if its user
   employs redundancy, copies to scheme-chosen remote clusters;
3. the first copy to start wins, the rest are cancelled;
4. the simulation runs until every job completes (the 6-hour window
   bounds *submissions*, not executions);
5. per-job outcomes and per-queue statistics are extracted.
"""

from __future__ import annotations

# repro-lint: disable-file=DET001 -- perf_counter here only stamps the
# generate/simulate/aggregate phase timings (wall_time_s metrics); no
# host time ever reaches the simulated trajectory
import time
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

if TYPE_CHECKING:  # typing-only: obs/sanitize import core at runtime
    from ..obs.probes import ProbeSampler

from ..cluster.platform import HETEROGENEOUS_NODE_CHOICES, Platform
from ..contracts import declared_pure
from ..faults import FaultInjector
from ..sched.job import Request
from ..sim.engine import Simulator
from ..sim.rng import RngFactory
from functools import lru_cache

from ..workload.estimates import make_estimate_model
from ..workload.lublin import LublinParams, scaled_for_load
from ..workload.regimes import (
    ServiceRegime,
    make_service_regime,
    regime_scaled_for_load,
)


@lru_cache(maxsize=128)
def _calibrated_params(
    base: LublinParams, reference_nodes: int, rho: float
) -> LublinParams:
    """Memoised load calibration (the Monte-Carlo fit is deterministic)."""
    return scaled_for_load(rho, reference_nodes, base)
from ..workload.stream import StreamJob, generate_platform_streams, merge_streams


#: replications' streams kept.  Grids run replication-major, so one entry
#: serves every scheme of a replication; the rest keep the reuse across
#: grids that Figure 4's adoption sweep (6 keys at smoke scale) needs.
_STREAM_CACHE_SIZE = 8


@lru_cache(maxsize=_STREAM_CACHE_SIZE)
def _cached_streams(
    seed: int,
    replication: int,
    node_counts: "tuple[int, ...]",
    duration: float,
    params: "tuple[LublinParams, ...]",
    estimates: str,
    adoption_probability: float,
    regime: Optional[ServiceRegime] = None,
) -> "tuple[list[StreamJob], ...]":
    """Memoised per-replication workload streams.

    The streams implement common random numbers: they depend only on the
    seed, the replication and the workload knobs listed here — never on
    the redundancy scheme, targets, faults or latencies.  A scheme
    comparison therefore re-simulates the *same* stream once per scheme,
    and regenerating it (Lublin sampling is a per-job Python loop) used
    to be ~10%% of every simulation.  Safe to share because
    :class:`~repro.workload.stream.StreamJob` is frozen and consumers
    only read the lists.
    """
    return tuple(
        generate_platform_streams(
            RngFactory(seed),
            replication,
            list(node_counts),
            duration,
            params_per_cluster=list(params),
            estimate_model=make_estimate_model(estimates),
            adoption_probability=adoption_probability,
            regime=regime,
        )
    )
from .config import ExperimentConfig
from .coordinator import Coordinator, RedundantJob
from .metrics import bounded_slowdowns, stretches
from .results import ClusterOutcome, ExperimentResult, JobOutcome
from .schemes import TargetSelector, geometric_bias_weights, get_scheme


def _resolve_node_counts(
    config: ExperimentConfig, factory: RngFactory, replication: int
) -> list[int]:
    if config.heterogeneous:
        rng = factory.generator("rep", replication, "platform")
        return [
            int(rng.choice(HETEROGENEOUS_NODE_CHOICES))
            for _ in range(config.n_clusters)
        ]
    if isinstance(config.nodes_per_cluster, int):
        return [config.nodes_per_cluster] * config.n_clusters
    return list(config.nodes_per_cluster)


def _resolve_regime(
    config: ExperimentConfig, node_counts: list[int]
) -> Optional[ServiceRegime]:
    """Resolve and load-calibrate the config's service regime (if any).

    Calibration targets the homogeneous reference cluster (the mean
    node count, matching the Lublin calibration's reference); on
    heterogeneous platforms per-cluster arrival rates still vary, so —
    as with Lublin — ``offered_load`` is the *reference* load there.
    """
    regime = make_service_regime(config.service_regime)
    if regime is None or config.offered_load is None:
        return regime
    base = LublinParams()
    if config.mean_interarrival is not None:
        base = base.with_mean_interarrival(config.mean_interarrival)
    reference_nodes = int(round(np.mean(node_counts)))
    return regime_scaled_for_load(
        regime, config.offered_load, reference_nodes, base
    )


def _resolve_workload_params(
    config: ExperimentConfig,
    factory: RngFactory,
    replication: int,
    node_counts: list[int],
    calibrate_load: bool = True,
) -> list[LublinParams]:
    base = LublinParams()
    if config.mean_interarrival is not None:
        base = base.with_mean_interarrival(config.mean_interarrival)
    if config.offered_load is not None and calibrate_load:
        # Skipped when a service regime is active: the regime replaces
        # the runtime marginal, so Lublin's runtime_scale is inert and
        # the regime carries its own calibration (_resolve_regime).
        reference_nodes = int(round(np.mean(node_counts)))
        base = _calibrated_params(base, reference_nodes, config.offered_load)
    if not config.heterogeneous:
        return [base] * config.n_clusters
    rng = factory.generator("rep", replication, "iat")
    lo, hi = config.interarrival_range
    return [
        base.with_mean_interarrival(float(rng.uniform(lo, hi)))
        for _ in range(config.n_clusters)
    ]


def _job_outcome(job: RedundantJob) -> JobOutcome:
    winner = job.winner
    assert winner is not None and winner.end_time is not None, (
        f"job {job.job_id} did not complete"
    )
    local = job.requests[0]
    predicted_local = None
    if local.predicted_start_at_submit is not None:
        predicted_local = local.predicted_start_at_submit - job.spec.arrival
    predictions = [
        r.predicted_start_at_submit - job.spec.arrival
        for r in job.requests
        if r.predicted_start_at_submit is not None
    ]
    predicted_min = min(predictions) if predictions else None
    return JobOutcome(
        job_id=job.job_id,
        origin=job.spec.origin,
        winner_cluster=winner.cluster.cluster.index,
        nodes=job.spec.nodes,
        runtime=job.spec.runtime,
        requested_time=job.spec.requested_time,
        submit_time=job.spec.arrival,
        start_time=winner.start_time,
        end_time=winner.end_time,
        uses_redundancy=job.uses_redundancy,
        n_copies=job.n_copies,
        predicted_wait_local=predicted_local,
        predicted_wait_min=predicted_min,
    )


def _online_payload(
    jobs: list[JobOutcome], duplicates: list[Request], now: float
) -> dict:
    """The ``online_metrics`` payload of a finished run.

    Completed jobs give wait, stretch and bounded slowdown; every
    duplicate start gives its wasted node-seconds, charged up to ``now``
    when it is still running at the horizon.  One call of each
    ``OnlineMetrics.observe_*`` per run.
    """
    # Runtime import: this module is imported *by* the repro.obs
    # package — a top-level import would be circular.
    from ..obs.stream import OnlineMetrics

    arrival, runtime, start, end = np.array(
        [(j.submit_time, j.runtime, j.start_time, j.end_time) for j in jobs],
        dtype=float,
    ).reshape(-1, 4).T
    turnaround = end - arrival
    # Every duplicate started at or before ``now``.
    dup_start, dup_end, dup_nodes = np.array(
        [
            (r.start_time, now if r.end_time is None else r.end_time, r.nodes)
            for r in duplicates
        ],
        dtype=float,
    ).reshape(-1, 3).T
    online = OnlineMetrics()
    online.observe_completion(
        waits=start - arrival,
        stretches=stretches(turnaround, runtime),
        slowdowns=bounded_slowdowns(turnaround, runtime),
    )
    online.observe_waste((dup_end - dup_start) * dup_nodes)
    return online.to_dict()


@declared_pure
def run_single(
    config: ExperimentConfig,
    replication: int = 0,
    check_invariants: bool = False,
    observer: Optional[Any] = None,
    online: bool = True,
    probe: "Optional[ProbeSampler]" = None,
) -> ExperimentResult:
    """Run one replication of ``config`` and return its outcomes.

    ``check_invariants`` additionally audits node accounting and the
    first-start-wins protocol after the run (used by tests).

    ``observer`` optionally attaches one lifecycle observer to every
    scheduler and the coordinator: a
    :class:`repro.obs.trace.TraceRecorder`, or a
    :class:`repro.sanitize.auditor.InvariantAuditor` (which records
    into its own recorder and checks every transition).  An observer
    with a ``final_check(platform, coordinator)`` method (the auditor)
    also gets that end-of-run audit after
    :meth:`~repro.core.coordinator.Coordinator.finalize`.  The default
    ``None`` is a strict no-op: nothing is allocated, no RNG draws are
    added, and the simulated trajectory is bit-identical either way.

    ``online`` (default on) summarises the finished run with
    :mod:`repro.obs.stream` — exact moments and quantiles of stretch,
    wait, bounded slowdown and wasted work, computed once after
    :meth:`~repro.core.coordinator.Coordinator.finalize` — and stores
    the payload as ``result.online_metrics``.  Nothing is attached to
    the simulation, so the trajectory — every other result field — is
    bit-identical either way; ``online=False`` leaves
    ``online_metrics`` as ``None``.

    ``probe`` optionally attaches a sim-time state sampler (see
    :class:`repro.obs.probes.ProbeSampler`); the sampler's rows are the
    caller's to collect.  ``None`` (the default) schedules nothing.
    """
    t0 = time.perf_counter()
    factory = RngFactory(config.seed)
    sim = Simulator()
    node_counts = _resolve_node_counts(config, factory, replication)
    platform = Platform(
        sim, node_counts, config.algorithm, config.scheduler_kwargs
    )
    if observer is not None:
        platform.attach_observer(observer)
    regime = _resolve_regime(config, node_counts)
    params = _resolve_workload_params(
        config, factory, replication, node_counts,
        calibrate_load=regime is None,
    )
    streams = _cached_streams(
        config.seed,
        replication,
        tuple(node_counts),
        config.duration,
        tuple(params),
        config.estimates,
        config.adoption_probability,
        regime,
    )
    scheme = get_scheme(config.scheme)
    weights = (
        geometric_bias_weights(config.n_clusters, config.target_bias_ratio)
        if config.target_bias_ratio is not None
        else None
    )
    selector = TargetSelector(
        scheme,
        node_counts,
        rng=factory.generator("rep", replication, "targets"),
        cluster_weights=weights,
        placement=config.placement,
    )
    injector = None
    if config.faults is not None and config.faults.enabled:
        injector = FaultInjector(
            config.faults, factory.generator("rep", replication, "faults")
        )
    coordinator = Coordinator(
        sim,
        platform,
        cancellation_latency=config.cancellation_latency,
        remote_inflation=config.remote_inflation,
        fault_injector=injector,
        observer=observer,
        policy=config.cancellation_policy,
    )
    if probe is not None:
        probe.install(sim, platform, coordinator)
    if injector is not None:
        # Outages can only *begin* inside the submission window; an
        # outage near the edge may extend past it (and resolve during a
        # drain).
        injector.install(sim, platform, coordinator, horizon=config.duration)
    t_generated = time.perf_counter()
    specs = merge_streams(streams)
    jobs = ((spec.origin, spec.nodes, spec.uses_redundancy) for spec in specs)
    # No name holds the list of target lists: each is freed with its
    # job's submission rather than kept for the whole run.
    for spec, targets in zip(specs, selector.choose_many(jobs)):
        coordinator.schedule_job(spec, targets)
    if config.drain:
        sim.run()
    else:
        sim.run(until=config.duration)
    # Purge losers whose delayed cancellation was scheduled past the
    # horizon (a no-op at zero latency without faults).
    coordinator.finalize()
    t_simulated = time.perf_counter()

    final_check = getattr(observer, "final_check", None)
    if final_check is not None:
        final_check(platform, coordinator)
    if check_invariants:
        platform.check_invariants()
        coordinator.check_invariants()
    if config.drain:
        # A job abandoned to faults (every copy lost, none started) can
        # legitimately never finish; only jobs still holding scheduler
        # state indicate a deadlock.  Without faults the two sets are
        # identical, preserving the original check exactly.
        stuck = [
            j
            for j in coordinator.unfinished_jobs()
            if any(r.is_active for r in j.requests)
        ]
        if stuck:
            raise RuntimeError(
                f"{len(stuck)} jobs never completed — simulation deadlock "
                f"(first: job {stuck[0].job_id})"
            )

    jobs = [_job_outcome(j) for j in coordinator.jobs if j.completed]
    online_metrics = (
        _online_payload(jobs, coordinator.duplicate_starts, sim.now)
        if online
        else None
    )
    result = ExperimentResult(
        scheme=config.scheme,
        algorithm=config.algorithm,
        n_clusters=config.n_clusters,
        replication=replication,
        jobs=jobs,
        n_submitted_jobs=len(coordinator.jobs),
        clusters=[
            ClusterOutcome(
                cluster=c.index,
                total_nodes=c.total_nodes,
                submitted=s.stats.submitted,
                cancelled=s.stats.cancelled,
                started=s.stats.started,
                completed=s.stats.completed,
                max_queue_length=s.stats.max_queue_length,
                dropped=s.stats.dropped,
                backfilled=s.stats.backfilled,
            )
            for c, s in zip(platform.clusters, platform.schedulers)
        ],
        total_requests=coordinator.total_requests,
        total_cancellations=coordinator.total_cancellations,
        lost_cancellations=coordinator.lost_cancellations,
        failed_submissions=coordinator.failed_submissions,
        resubmissions=coordinator.resubmissions,
        abandoned_jobs=coordinator.abandoned_jobs(),
        outages=injector.outages_started if injector is not None else 0,
        wasted_node_seconds=coordinator.wasted_node_seconds(sim.now),
        wall_time_s=time.perf_counter() - t0,
        events_executed=sim.events_executed,
        heap_compactions=sim.compactions,
        phase_timings={
            "generate_s": t_generated - t0,
            "simulate_s": t_simulated - t_generated,
            "aggregate_s": time.perf_counter() - t_simulated,
        },
        online_metrics=online_metrics,
    )
    return result
