"""Deterministic sim-time probes: schema-versioned system time series.

Where :mod:`repro.obs.trace` records *per-request lifecycle events*,
this module samples *system state* on a fixed simulated-time cadence —
the time-resolved view needed to watch a run approach the throughput
knee (Anton et al.): per-cluster queue depth, busy nodes and
utilisation, outstanding redundant copies, cumulative wasted
node-seconds, and event-kernel occupancy/compaction counters.

Design rules (the same discipline as tracing):

* **Zero overhead when disabled.**  ``run_single(probe=None)`` — the
  default — schedules nothing, allocates nothing and the trajectory is
  bit-identical to an unprobed run.
* **No trajectory perturbation when enabled.**  Probe events carry the
  dedicated :attr:`~repro.sim.events.EventPriority.PROBE` class, the
  lowest priority, so they run after every same-instant state change;
  they mutate nothing and draw no RNG.  They do consume event sequence
  numbers and are counted by ``events_executed``, which is why probed
  sweeps run with caching off (a probed result must never shadow an
  unprobed one).
* **Determinism.**  A probe series is a pure function of
  ``(config, replication, cadence)``; :func:`record_probe_sweep`
  writes rows in ``(config, replication)`` task order, so the JSONL is
  byte-identical for any worker count (locked in by
  ``tests/obs/test_probes.py`` and the ``probe-smoke`` CI job).

Recording and serialisation are not this module's: probe files go
through :mod:`repro.obs.trace`'s JSONL codec (kind ``repro-probes``)
and its grid recorder, :func:`~repro.obs.trace.record_grid`.

The sampler self-reschedules every ``cadence`` seconds of simulated
time and retires when the event queue holds no further work
(``peek_time() == inf``), so drained runs terminate instead of probing
forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, Union,
)

if TYPE_CHECKING:  # typing-only: core imports nothing from obs at runtime
    from ..cluster.platform import Platform
    from ..core.coordinator import Coordinator
    from ..sim.engine import Simulator

from ..core.config import ExperimentConfig
from ..core.experiment import run_single
from ..core.parallel import GridStats
from ..core.results import ExperimentResult
from ..sched.job import RequestState, reset_request_ids
from ..sim.events import EventPriority
from .manifest import RunManifest
from .stream import ONLINE_ESTIMATORS, ONLINE_QUANTILES, ONLINE_SCHEMA_VERSION
from .trace import record_grid

#: bump whenever the row tuple shape or JSONL line schema changes
PROBE_SCHEMA_VERSION = 1

#: default sampling cadence in simulated seconds (the paper's 6-hour
#: window at 60 s cadence is 360 rows per cluster — cheap and legible)
DEFAULT_PROBE_CADENCE = 60.0

#: the ``kind`` a probe file's header carries
PROBE_KIND = "repro-probes"

#: canonical probe file name inside a recording directory
PROBES_FILENAME = "probes.jsonl"

#: per-cluster row: (t, cluster, queue_depth, busy_nodes, total_nodes)
ClusterRow = "tuple[float, int, int, int, int]"

#: kernel/protocol row: (t, outstanding_duplicates, wasted_node_seconds,
#: pending_events, events_executed, compactions)
KernelRow = "tuple[float, int, float, int, int, int]"


class ProbeSampler:
    """Samples platform and kernel state every ``cadence`` sim-seconds.

    Construct with a cadence, hand to
    :func:`repro.core.experiment.run_single` via ``probe=``; the driver
    calls :meth:`install` once the simulator, platform and coordinator
    exist.  After the run, ``cluster_rows``/``kernel_rows`` hold the
    series (plain tuples, picklable).
    """

    __slots__ = (
        "cadence", "cluster_rows", "kernel_rows", "samples",
        "_sim", "_platform", "_coordinator",
    )

    def __init__(self, cadence: float = DEFAULT_PROBE_CADENCE) -> None:
        if cadence <= 0:
            raise ValueError(f"probe cadence must be > 0, got {cadence}")
        self.cadence = float(cadence)
        self.cluster_rows: list[tuple[float, int, int, int, int]] = []
        self.kernel_rows: list[tuple[float, int, float, int, int, int]] = []
        self.samples = 0
        self._sim: Optional[Simulator] = None
        self._platform: Optional[Platform] = None
        self._coordinator: Optional[Coordinator] = None

    def install(
        self, sim: "Simulator", platform: "Platform",
        coordinator: "Coordinator",
    ) -> None:
        """Bind to a run and schedule the first sample at t = 0."""
        self._sim = sim
        self._platform = platform
        self._coordinator = coordinator
        sim.at(0.0, self._tick, EventPriority.PROBE)

    def _tick(self) -> None:
        sim = self._sim
        platform = self._platform
        coordinator = self._coordinator
        assert sim is not None and platform is not None
        assert coordinator is not None
        now = sim.now
        self.samples += 1
        for cluster, sched in zip(platform.clusters, platform.schedulers):
            self.cluster_rows.append((
                now,
                cluster.index,
                sched.queue_length,
                cluster.busy_nodes,
                cluster.total_nodes,
            ))
        outstanding = sum(
            1
            for req in coordinator.duplicate_starts
            if req.state is RequestState.RUNNING
        )
        self.kernel_rows.append((
            now,
            outstanding,
            coordinator.wasted_node_seconds(now),
            sim.pending_events,
            sim.events_executed,
            sim.compactions,
        ))
        # Self-reschedule only while the queue holds live work: once no
        # further event exists the run is draining to a stop, and a
        # probe that kept rescheduling itself would hold the simulation
        # open forever.
        if sim.peek_time() != math.inf:
            sim.at(now + self.cadence, self._tick, EventPriority.PROBE)


@dataclass
class ProbedRun:
    """A run's result together with its probe series (picklable)."""

    result: ExperimentResult
    cluster_rows: list[tuple[float, int, int, int, int]]
    kernel_rows: list[tuple[float, int, float, int, int, int]]
    cadence: float


def run_single_probed(
    config: ExperimentConfig,
    replication: int = 0,
    cadence: float = DEFAULT_PROBE_CADENCE,
) -> ProbedRun:
    """Run one replication with probes on; a drop-in ``run_grid`` runner.

    Request ids are reset on entry so the series is a pure function of
    ``(config, replication, cadence)`` — the property that makes
    parallel probe sweeps byte-identical to serial ones.
    """
    reset_request_ids()
    sampler = ProbeSampler(cadence)
    result = run_single(config, replication, probe=sampler)
    return ProbedRun(
        result=result,
        cluster_rows=sampler.cluster_rows,
        kernel_rows=sampler.kernel_rows,
        cadence=sampler.cadence,
    )


# -- JSONL serialisation --------------------------------------------------


def _cluster_record(
    row: tuple[float, int, int, int, int],
    config_index: int, replication: int, scheme: str,
) -> dict:
    t, cluster, depth, busy, total = row
    return {
        "t": t,
        "config": config_index,
        "rep": replication,
        "scheme": scheme,
        "cluster": cluster,
        "queue_depth": depth,
        "busy_nodes": busy,
        "total_nodes": total,
        "utilisation": busy / total if total else 0.0,
    }


def _kernel_record(
    row: tuple[float, int, float, int, int, int],
    config_index: int, replication: int, scheme: str,
) -> dict:
    t, outstanding, wasted, pending, executed, compactions = row
    return {
        "t": t,
        "config": config_index,
        "rep": replication,
        "scheme": scheme,
        "cluster": -1,
        "outstanding_duplicates": outstanding,
        "wasted_node_seconds": wasted,
        "pending_events": pending,
        "events_executed": executed,
        "compactions": compactions,
    }


def _probe_rows(
    run: ProbedRun, config_index: int, replication: int, scheme: str
) -> Iterator[dict]:
    for crow in run.cluster_rows:
        yield _cluster_record(crow, config_index, replication, scheme)
    for krow in run.kernel_rows:
        yield _kernel_record(krow, config_index, replication, scheme)


# -- querying -------------------------------------------------------------


def probe_series(
    records: Iterable[dict],
    field: str,
    cluster: Optional[int] = None,
    config: Optional[int] = None,
    rep: Optional[int] = None,
) -> list[tuple[float, float]]:
    """Extract one ``(t, value)`` series from probe records.

    ``cluster=None`` matches any row carrying ``field`` (kernel rows
    use cluster ``-1``); filters are exact otherwise.
    """
    series: list[tuple[float, float]] = []
    for rec in records:
        if field not in rec:
            continue
        if cluster is not None and rec.get("cluster") != cluster:
            continue
        if config is not None and rec.get("config") != config:
            continue
        if rep is not None and rec.get("rep") != rep:
            continue
        series.append((float(rec["t"]), float(rec[field])))
    return series


def summarize_probes(records: Iterable[dict]) -> dict:
    """Aggregate view of a probe series (the ``probe summary`` payload)."""
    n = 0
    clusters: dict[int, dict] = {}
    t_first: Optional[float] = None
    t_last: Optional[float] = None
    max_outstanding = 0
    final_wasted = 0.0
    final_pending = 0
    final_compactions = 0
    for rec in records:
        n += 1
        t = float(rec.get("t", 0.0))
        t_first = t if t_first is None else min(t_first, t)
        t_last = t if t_last is None else max(t_last, t)
        cluster = int(rec.get("cluster", -1))
        if cluster >= 0:
            agg = clusters.setdefault(cluster, {
                "samples": 0, "max_queue_depth": 0,
                "_depth_sum": 0.0, "_util_sum": 0.0,
            })
            agg["samples"] += 1
            depth = int(rec.get("queue_depth", 0))
            agg["max_queue_depth"] = max(agg["max_queue_depth"], depth)
            agg["_depth_sum"] += depth
            agg["_util_sum"] += float(rec.get("utilisation", 0.0))
        else:
            max_outstanding = max(
                max_outstanding, int(rec.get("outstanding_duplicates", 0))
            )
            final_wasted = max(
                final_wasted, float(rec.get("wasted_node_seconds", 0.0))
            )
            final_pending = int(rec.get("pending_events", final_pending))
            final_compactions = int(rec.get("compactions", final_compactions))
    by_cluster = {}
    for cluster in sorted(clusters):
        agg = clusters[cluster]
        samples = agg["samples"]
        by_cluster[cluster] = {
            "samples": samples,
            "max_queue_depth": agg["max_queue_depth"],
            "mean_queue_depth": agg["_depth_sum"] / samples,
            "mean_utilisation": agg["_util_sum"] / samples,
        }
    return {
        "n_records": n,
        "t_first": t_first,
        "t_last": t_last,
        "by_cluster": by_cluster,
        "max_outstanding_duplicates": max_outstanding,
        "final_wasted_node_seconds": final_wasted,
        "final_pending_events": final_pending,
        "final_compactions": final_compactions,
    }


# -- probed sweeps --------------------------------------------------------


def record_probe_sweep(
    configs: Sequence[ExperimentConfig],
    n_replications: int,
    out_dir: Union[str, Path],
    cadence: float = DEFAULT_PROBE_CADENCE,
    n_workers: int = 1,
    first_replication: int = 0,
    chunksize: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    stats: Optional[GridStats] = None,
    command: Optional[Sequence[str]] = None,
) -> tuple[list[list[ExperimentResult]], RunManifest]:
    """Run a sweep with probes on; write ``probes.jsonl`` + ``manifest.json``.

    Probed runs execute extra (probe) events, so the uncached grid of
    :func:`~repro.obs.trace.record_grid` also keeps their results from
    shadowing unprobed ones.  The manifest records the cadence, the
    estimator families and both observability schema versions.
    """
    return record_grid(
        configs,
        n_replications,
        out_dir,
        runner=partial(run_single_probed, cadence=cadence),
        rows=_probe_rows,
        kind=PROBE_KIND,
        schema=PROBE_SCHEMA_VERSION,
        filename=PROBES_FILENAME,
        header_extra={"cadence": cadence},
        manifest_extra=lambda n: {
            "n_probe_records": n,
            "probe_file": PROBES_FILENAME,
            "probe_cadence": cadence,
            "probe_schema": PROBE_SCHEMA_VERSION,
            "online_schema": ONLINE_SCHEMA_VERSION,
            "online_estimators": list(ONLINE_ESTIMATORS),
            "online_quantiles": list(ONLINE_QUANTILES),
        },
        n_workers=n_workers,
        first_replication=first_replication,
        chunksize=chunksize,
        progress=progress,
        stats=stats,
        command=command,
    )
