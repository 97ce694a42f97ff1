"""The paper's contribution: user-driven redundant batch requests.

High-level entry points:

* :class:`ExperimentConfig` + :func:`run_single` — one simulated run;
* :func:`run_replications` — a replication sweep;
* :func:`compare_schemes` — paired relative metrics against NONE, the
  form every figure and table in the paper uses;
* :func:`run_grid` — the flattened parallel sweep engine underneath
  all of the above;
* :class:`ResultCache` — content-addressed result caching shared by
  sweeps and registry figures.
"""

from .cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    config_fingerprint,
    shared_cache,
)
from .config import DEFAULT_DURATION, DEFAULT_NODES, ExperimentConfig
from .coordinator import Coordinator, RedundantJob
from .experiment import run_single
from .metrics import (
    BOUNDED_SLOWDOWN_TAU,
    MetricSummary,
    RatioSummary,
    bounded_slowdown,
    mean_of_ratios,
    relative,
    stretch,
    summarize_ratios,
)
from .results import ClusterOutcome, ExperimentResult, JobOutcome, merge_results
from .parallel import run_grid
from .runner import (
    RelativeMetrics,
    paired_nonadopter_penalty,
    SchemeComparison,
    compare_schemes,
    run_replications,
)
from .schemes import (
    PAPER_SCHEME_ORDER,
    SCHEMES,
    RedundancyScheme,
    TargetSelector,
    geometric_bias_weights,
    get_scheme,
)

__all__ = [
    "ExperimentConfig",
    "DEFAULT_NODES",
    "DEFAULT_DURATION",
    "run_single",
    "run_replications",
    "run_grid",
    "ResultCache",
    "CACHE_SCHEMA_VERSION",
    "config_fingerprint",
    "shared_cache",
    "compare_schemes",
    "SchemeComparison",
    "RelativeMetrics",
    "Coordinator",
    "RedundantJob",
    "ExperimentResult",
    "JobOutcome",
    "ClusterOutcome",
    "merge_results",
    "MetricSummary",
    "stretch",
    "bounded_slowdown",
    "relative",
    "mean_of_ratios",
    "RatioSummary",
    "summarize_ratios",
    "BOUNDED_SLOWDOWN_TAU",
    "RedundancyScheme",
    "TargetSelector",
    "SCHEMES",
    "PAPER_SCHEME_ORDER",
    "get_scheme",
    "geometric_bias_weights",
    "paired_nonadopter_penalty",
]
