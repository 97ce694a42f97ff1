"""Section 4: impact of redundant requests on system load.

Scheduler-daemon throughput under churn (Figure 5), middleware and
network capacity models, and the r < 30 / r < 3 capacity analysis.
"""

from .capacity import (
    ASSUMED_QUEUE_DEPTH,
    PEAK_IAT,
    CapacityReport,
    capacity_report,
    max_redundancy,
    per_cluster_cancellation_rate,
    per_cluster_submission_rate,
)
from .churn import (
    ChurnSample,
    average_curve,
    churn_curve,
    measure_real_scheduler_throughput,
    run_churn_experiment,
)
from .gram import (
    GSOAP_TX_PER_SEC,
    GT4_WSGRAM_TX_PER_MIN,
    MiddlewareModel,
    NetworkModel,
    gsoap_model,
    gt4_wsgram_model,
)
from .loadstudy import (
    QueueGrowth,
    QueueSizeComparison,
    compare_max_queue_sizes,
    measure_queue_growth,
    queue_growth_vs_cluster_size,
)
from .pbs import (
    PAPER_FIGURE5_ANCHORS,
    PBSDaemonModel,
    fit_throughput_curve,
    paper_calibrated_model,
    throughput_model,
)

__all__ = [
    "PBSDaemonModel",
    "fit_throughput_curve",
    "paper_calibrated_model",
    "throughput_model",
    "PAPER_FIGURE5_ANCHORS",
    "ChurnSample",
    "run_churn_experiment",
    "churn_curve",
    "average_curve",
    "measure_real_scheduler_throughput",
    "MiddlewareModel",
    "NetworkModel",
    "gt4_wsgram_model",
    "gsoap_model",
    "GT4_WSGRAM_TX_PER_MIN",
    "GSOAP_TX_PER_SEC",
    "CapacityReport",
    "capacity_report",
    "max_redundancy",
    "per_cluster_submission_rate",
    "per_cluster_cancellation_rate",
    "PEAK_IAT",
    "ASSUMED_QUEUE_DEPTH",
    "QueueGrowth",
    "measure_queue_growth",
    "queue_growth_vs_cluster_size",
    "QueueSizeComparison",
    "compare_max_queue_sizes",
]
