"""Workload models: Lublin–Feitelson generator, runtime estimates, SWF traces."""

from .distributions import HyperGamma, gamma_interarrival, log_uniform_nodes, two_stage_uniform
from .estimates import (
    ESTIMATE_MODELS,
    EstimateModel,
    ExactEstimates,
    InflatedEstimates,
    PhiModelEstimates,
    PHI_MODEL_MEAN_FACTOR,
    make_estimate_model,
)
from .lublin import (
    PEAK_ALPHA,
    PEAK_BETA,
    GeneratedJob,
    LublinGenerator,
    LublinParams,
    empirical_mean_runtime,
)
from .stream import (
    StreamJob,
    generate_cluster_stream,
    generate_platform_streams,
    merge_streams,
)
from .swf import (
    SWFError,
    SWFRecord,
    parse_swf_line,
    read_swf,
    records_to_stream,
    stream_to_records,
    write_swf,
)

__all__ = [
    "HyperGamma",
    "gamma_interarrival",
    "log_uniform_nodes",
    "two_stage_uniform",
    "EstimateModel",
    "ExactEstimates",
    "PhiModelEstimates",
    "InflatedEstimates",
    "ESTIMATE_MODELS",
    "PHI_MODEL_MEAN_FACTOR",
    "make_estimate_model",
    "LublinParams",
    "LublinGenerator",
    "GeneratedJob",
    "PEAK_ALPHA",
    "PEAK_BETA",
    "empirical_mean_runtime",
    "StreamJob",
    "generate_cluster_stream",
    "generate_platform_streams",
    "merge_streams",
    "SWFRecord",
    "SWFError",
    "parse_swf_line",
    "read_swf",
    "write_swf",
    "records_to_stream",
    "stream_to_records",
]
