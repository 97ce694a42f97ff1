"""Tests for CSV/JSON export."""

import csv
import json

import pytest

from repro.analysis.export import report_to_json, results_to_csv, table_to_csv
from repro.analysis.registry import ExperimentReport
from repro.analysis.tables import Table
from repro.core.config import ExperimentConfig
from repro.core.experiment import run_single


@pytest.fixture(scope="module")
def result():
    cfg = ExperimentConfig(
        n_clusters=2, nodes_per_cluster=16, duration=200.0,
        offered_load=2.0, drain=True, scheme="R2", seed=1,
    )
    return run_single(cfg, 0)


class TestTableCSV:
    def test_round_trippable_content(self, tmp_path):
        t = Table("Demo", columns=["A", "B"])
        t.add_row("r1", [1.5, None])
        path = tmp_path / "t.csv"
        table_to_csv(t, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("Demo")
        assert "r1,1.5," in lines[2]


class TestReportJSON:
    def test_serialises_nan_and_tables(self, tmp_path):
        t = Table("T", columns=["A"])
        t.add_row("r", [float("nan")])
        report = ExperimentReport(
            exp_id="x", title="t", paper_expectation="e",
            tables=[t], data={"v": float("inf"), "k": {1: 2}},
        )
        path = tmp_path / "r.json"
        report_to_json(report, path)
        payload = json.loads(path.read_text())
        assert payload["exp_id"] == "x"
        assert payload["data"]["v"] is None        # inf -> null
        assert payload["data"]["k"] == {"1": 2}    # int keys stringified
        assert payload["tables"][0]["rows"][0]["values"] == [None]


class TestResultsCSV:
    def test_round_trip(self, result, tmp_path):
        path = tmp_path / "jobs.csv"
        n = results_to_csv([result], path)
        assert n == result.n_jobs
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == n
        assert rows[0]["scheme"] == "R2"
        assert float(rows[0]["stretch"]) >= 1.0

    def test_multiple_results(self, result, tmp_path):
        path = tmp_path / "jobs.csv"
        n = results_to_csv([result, result], path)
        assert n == 2 * result.n_jobs
