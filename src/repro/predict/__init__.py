"""Section 5: impact of redundant requests on queue-wait predictability."""

from .stats import OverestimationStats, overestimation_stats, prediction_ratios
from .study import Table4Result, Table4Row, run_table4_study

__all__ = [
    "OverestimationStats",
    "overestimation_stats",
    "prediction_ratios",
    "Table4Result",
    "Table4Row",
    "run_table4_study",
]
