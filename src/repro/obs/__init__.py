"""Observability: event tracing, metrics, run manifests, logging.

The simulator's default posture is *silent speed*: nothing is recorded
beyond the final :class:`~repro.core.results.ExperimentResult`.  This
package adds the instrumentation layer on top — strictly opt-in, and a
strict no-op when disabled:

``repro.obs.trace``
    Typed per-request lifecycle events (``submit`` → ``queue`` →
    ``start`` → ``complete``, with the cancellation and outage paths in
    between), recorded by a :class:`TraceRecorder` hooked into the
    scheduler base and the coordinator; also the JSONL codec and grid
    recorder that traces and probes share, bit-identical between serial
    and parallel sweeps.
``repro.obs.metrics``
    A counters/gauges/timings registry snapshotted per run and
    aggregated across sweeps into the ``repro bench --json`` payload.
``repro.obs.stream``
    Per-run summaries — exact moments and quantiles of
    stretch/wait/slowdown/wasted-work, computed once at the end of each
    run — merged across sweep workers with an exactly-associative
    reduction.
``repro.obs.probes``
    A deterministic sim-time probe sampler emitting schema-versioned
    JSONL time series of system state (queue depths, utilisation,
    outstanding duplicates, wasted node-seconds, kernel occupancy),
    recorded through the trace module's codec and grid recorder.
``repro.obs.manifest``
    A run manifest (config fingerprints, RNG seed derivation, package
    version, platform, wall-clock) written alongside every traced
    sweep, so any result is reproducible from its artifact.
``repro.obs.chrome``
    Exporters from trace events (spans and instants) and probe records
    (counter tracks) to Chrome ``trace_event`` JSON for chrome://tracing
    / Perfetto visualisation.
``repro.obs.log``
    Structured ``logging`` setup shared by the CLI and the worker
    processes of the parallel sweep engine.
"""

from .chrome import export_chrome, probes_to_counter_trace, to_chrome_trace
from .log import get_logger, setup_logging, worker_log_level
from .manifest import MANIFEST_SCHEMA_VERSION, RunManifest, build_manifest
from .metrics import MetricsRegistry, aggregate_results, run_counters
from .probes import (
    DEFAULT_PROBE_CADENCE,
    PROBE_KIND,
    PROBE_SCHEMA_VERSION,
    ProbeSampler,
    probe_series,
    record_probe_sweep,
    run_single_probed,
    summarize_probes,
)
from .stream import (
    ONLINE_SCHEMA_VERSION,
    MergedOnlineMetrics,
    OnlineMetrics,
    WelfordAccumulator,
    merge_online_payloads,
)
from .trace import (
    EVENT_TYPES,
    TRACE_KIND,
    TRACE_SCHEMA_VERSION,
    TraceRecorder,
    filter_events,
    read_jsonl,
    record_sweep,
    run_single_traced,
    summarize_trace,
    write_jsonl,
)

__all__ = [
    "EVENT_TYPES",
    "TRACE_KIND",
    "TRACE_SCHEMA_VERSION",
    "TraceRecorder",
    "filter_events",
    "read_jsonl",
    "record_sweep",
    "run_single_traced",
    "summarize_trace",
    "write_jsonl",
    "MetricsRegistry",
    "aggregate_results",
    "run_counters",
    "RunManifest",
    "build_manifest",
    "MANIFEST_SCHEMA_VERSION",
    "to_chrome_trace",
    "export_chrome",
    "probes_to_counter_trace",
    "ONLINE_SCHEMA_VERSION",
    "OnlineMetrics",
    "MergedOnlineMetrics",
    "WelfordAccumulator",
    "merge_online_payloads",
    "PROBE_KIND",
    "PROBE_SCHEMA_VERSION",
    "DEFAULT_PROBE_CADENCE",
    "ProbeSampler",
    "probe_series",
    "record_probe_sweep",
    "run_single_probed",
    "summarize_probes",
    "get_logger",
    "setup_logging",
    "worker_log_level",
]
