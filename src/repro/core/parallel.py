"""Parallel sweep engine: one flattened (config x replication) grid.

:func:`run_grid` is the one-call entry point over the
orchestrator/executor split:

* :class:`~repro.core.orchestrator.Orchestrator` owns the grid — dedup
  of duplicate configs, cache resolution before any work is scheduled,
  chunk planning, progress/heartbeat, the run journal, and
  deterministic reassembly by ``(config_index, replication)`` key;
* :mod:`repro.core.executors` owns the running — the in-process serial
  path, the single persistent process pool, and the HTTP work queue
  behind ``repro serve``.

:func:`run_grid` keeps the original contract exactly: the whole grid —
every config (including the NONE baseline) times every replication —
is flattened into one task list, deduplicated, cache-resolved, chunked
onto one executor, and reassembled bit-identically to a serial run
regardless of worker scheduling.  ``run_single`` being a pure function
of ``(config, replication)`` is the invariant that makes all of that
sound.

``run_single`` is re-exported here because
:class:`~repro.core.executors.InProcessExecutor` looks it up on this
module at call time: patching ``repro.core.parallel.run_single``
substitutes the per-task function of every serial run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:  # typing-only: obs imports core at runtime
    from ..obs.metrics import MetricsRegistry

from .cache import ResultCache
from .config import ExperimentConfig
from .executors import InProcessExecutor, PoolExecutor
from .experiment import run_single  # noqa: F401  (re-export; tests patch it)
from .orchestrator import GridStats, Orchestrator, ProgressFn, RunnerFn
from .results import ExperimentResult


def resolve_workers(
    value: Union[str, int, None], source: str = "workers"
) -> int:
    """Normalise a worker-count setting from the CLI or environment.

    ``None`` and empty/whitespace strings mean 1 (serial).  Anything
    else must parse as an integer >= 1; garbage and non-positive counts
    raise ``ValueError`` naming ``source`` instead of being silently
    clamped (``REPRO_WORKERS=0`` used to mean serial by accident).
    """
    if value is None:
        return 1
    if isinstance(value, str):
        value = value.strip()
        if not value:
            return 1
    try:
        n = int(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be an integer >= 1, got {value!r}"
        ) from None
    if n < 1:
        raise ValueError(f"{source} must be >= 1, got {n}")
    return n


def run_grid(
    configs: Sequence[ExperimentConfig],
    n_replications: int,
    n_workers: int = 1,
    first_replication: int = 0,
    cache: Optional[ResultCache] = None,
    chunksize: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    runner: Optional[RunnerFn] = None,
    stats: Optional[GridStats] = None,
    metrics: Optional["MetricsRegistry"] = None,
) -> list[list[ExperimentResult]]:
    """Run every config for every replication; return results per config.

    The returned list is parallel to ``configs``; each inner list holds
    ``n_replications`` results ordered by replication index.  Duplicate
    configs are simulated once and their result lists shared by value.

    A failing task is retried once (transient failures, crashed
    workers); a second failure raises
    :class:`~repro.core.orchestrator.TaskError` naming the
    ``(config, replication)``.  ``stats`` collects failure/retry
    counts.  ``runner`` substitutes the per-task function (it must be a
    picklable top-level callable; used by tests and benchmarks).

    ``metrics`` optionally receives engine accounting — an
    :class:`~repro.obs.metrics.MetricsRegistry` (or anything with its
    ``inc``/``add_time``): cache hit/miss counters, tasks executed, and
    wall-clock spent resolving/storing cache entries.
    """
    if not configs:
        if n_replications < 1:
            raise ValueError(f"need >= 1 replication, got {n_replications}")
        return []
    orchestrator = Orchestrator(
        configs,
        n_replications,
        first_replication=first_replication,
        cache=cache,
        chunksize=chunksize,
        n_workers=n_workers,
        progress=progress,
        runner=runner,
        stats=stats,
        metrics=metrics,
    )
    orchestrator.prepare()
    pending = orchestrator.n_pending
    if pending == 0:
        return orchestrator.assemble()
    if n_workers <= 1 or pending == 1:
        executor: InProcessExecutor | PoolExecutor = InProcessExecutor()
    else:
        executor = PoolExecutor(n_workers=n_workers)
    return orchestrator.execute(executor)

