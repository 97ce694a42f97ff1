"""Export experiment reports and results to CSV / JSON.

The registry's :class:`~repro.analysis.registry.ExperimentReport`
renders for terminals; these helpers persist the same content for
spreadsheets and downstream analysis, and per-job records for anyone
who wants to recompute metrics differently.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path
from typing import Iterable, Union

from ..core.results import ExperimentResult, plain
from .tables import Table

PathLike = Union[str, Path]


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(plain(value))
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def table_to_csv(table: Table, path: PathLike) -> None:
    """Write one table as CSV (label column first)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([table.title])
        writer.writerow([""] + list(table.columns))
        for label, values in table.rows:
            writer.writerow(
                [label] + ["" if v is None else v for v in values]
            )


def report_to_json(report, path: PathLike) -> None:
    """Persist an ExperimentReport's identity, data and notes as JSON."""
    payload = {
        "exp_id": report.exp_id,
        "title": report.title,
        "paper_expectation": report.paper_expectation,
        "data": _jsonable(report.data),
        "notes": list(report.notes),
        "tables": [
            {
                "title": t.title,
                "columns": list(t.columns),
                "rows": [
                    {"label": label, "values": _jsonable(values)}
                    for label, values in t.rows
                ],
            }
            for t in report.tables
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


JOB_FIELDS = (
    "job_id", "origin", "winner_cluster", "nodes", "runtime",
    "requested_time", "submit_time", "start_time", "end_time",
    "uses_redundancy", "n_copies",
)


def results_to_csv(results: Iterable[ExperimentResult], path: PathLike) -> int:
    """Write per-job outcomes of one or more results; returns row count."""
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ("scheme", "algorithm", "replication") + JOB_FIELDS
            + ("wait_time", "stretch")
        )
        for result in results:
            for job in result.jobs:
                writer.writerow(
                    (result.scheme, result.algorithm, result.replication)
                    + tuple(getattr(job, f) for f in JOB_FIELDS)
                    + (job.wait_time, job.stretch)
                )
                count += 1
    return count
