"""Tests for text-table rendering."""

import pytest

from repro.analysis.tables import Table, format_cell


class TestFormatCell:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (None, "-"),
            ("x", "x"),
            (3, "3"),
            (1.234, "1.23"),
            (float("nan"), "nan"),
        ],
    )
    def test_basic(self, value, expected):
        assert format_cell(value) == expected

    def test_precision(self):
        assert format_cell(1.23456, precision=4) == "1.2346"

    def test_scientific_for_extremes(self):
        assert "e" in format_cell(1e7)
        assert "e" in format_cell(1e-5)
        assert format_cell(0.0) == "0.00"


class TestTable:
    def make(self):
        t = Table("Demo", columns=["A", "B"])
        t.add_row("row1", [1.0, 2.0])
        t.add_row("row2", [3.5, None])
        return t

    def test_text_contains_everything(self):
        text = self.make().to_text()
        assert "Demo" in text
        for token in ("A", "B", "row1", "row2", "1.00", "3.50", "-"):
            assert token in text

    def test_alignment(self):
        lines = self.make().to_text().splitlines()
        body = [l for l in lines if l.startswith("row")]
        assert len({len(l) for l in body}) == 1  # equal widths

    def test_wrong_arity_rejected(self):
        t = Table("T", columns=["A"])
        with pytest.raises(ValueError):
            t.add_row("r", [1, 2])

    def test_column_access(self):
        t = self.make()
        assert t.column("A") == [1.0, 3.5]
        with pytest.raises(ValueError):
            t.column("Z")

    def test_cell_access(self):
        t = self.make()
        assert t.cell("row2", "A") == 3.5
        with pytest.raises(KeyError):
            t.cell("nope", "A")
