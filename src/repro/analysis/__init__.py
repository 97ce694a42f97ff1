"""Result presentation and the per-figure/table experiment registry."""

from .plots import AsciiPlot, Series
from .registry import (
    CALIBRATED_RHO,
    REGISTRY,
    SCALES,
    ExperimentReport,
    Scale,
    calibrated_config,
    current_scale,
    run_experiment,
)
from .export import report_to_json, results_to_csv, table_to_csv
from .stats import (
    ConfidenceInterval,
    SignTestResult,
    coefficient_of_variation,
    mean_ci,
    paired_ratio_ci,
    sign_test,
)
from .tables import Table, format_cell

__all__ = [
    "Table",
    "format_cell",
    "AsciiPlot",
    "Series",
    "REGISTRY",
    "SCALES",
    "Scale",
    "ExperimentReport",
    "run_experiment",
    "current_scale",
    "calibrated_config",
    "CALIBRATED_RHO",
    "mean_ci",
    "paired_ratio_ci",
    "sign_test",
    "ConfidenceInterval",
    "SignTestResult",
    "coefficient_of_variation",
    "table_to_csv",
    "report_to_json",
    "results_to_csv",
]
