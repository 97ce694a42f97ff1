"""repro — reproduction of "On the Harmfulness of Redundant Batch Requests"
(Henri Casanova, HPDC 2006).

A multi-cluster batch-scheduling simulator and study harness: users
submit the same job to several independently scheduled clusters; the
first copy to start wins and the rest are cancelled.  The package
reproduces the paper's three questions — impact on scheduling
performance/fairness, on system load, and on predictability.

Quickstart::

    from repro import ExperimentConfig, compare_schemes

    cfg = ExperimentConfig(n_clusters=10, duration=1800.0, seed=7)
    cmp = compare_schemes(cfg, ["R2", "ALL"], n_replications=5)
    print(cmp.relative("ALL").avg_stretch)   # < 1.0: redundancy helps

Subpackages
-----------
``repro.sim``
    Discrete-event kernel and reproducible RNG streams.
``repro.cluster``
    Clusters and multi-site platforms.
``repro.sched``
    FCFS, EASY and Conservative Backfilling schedulers.
``repro.workload``
    Lublin–Feitelson model, runtime-estimate models, SWF traces.
``repro.core``
    Redundancy schemes, the first-start-wins coordinator, experiment
    runner and metrics.
``repro.middleware``
    Section 4: scheduler/middleware throughput and capacity analysis.
``repro.predict``
    Section 5: queue-waiting-time prediction accuracy.
``repro.analysis``
    Tables, ASCII plots and the experiment registry.
``repro.obs``
    Observability: lifecycle event traces, metrics registry, run
    manifests, structured logging.
"""

from .core import (
    ExperimentConfig,
    ExperimentResult,
    JobOutcome,
    RelativeMetrics,
    ResultCache,
    SchemeComparison,
    SweepEngine,
    compare_schemes,
    run_grid,
    run_replications,
    run_single,
)

__version__ = "1.0.0"

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "JobOutcome",
    "RelativeMetrics",
    "SchemeComparison",
    "SweepEngine",
    "ResultCache",
    "compare_schemes",
    "run_grid",
    "run_replications",
    "run_single",
    "__version__",
]
