"""Tests for repro.simulation.report."""

from repro.simulation.report import format_table


ROWS = [
    {"method": "INS", "k": 5, "rate": 0.125},
    {"method": "Naive", "k": 5, "rate": 1.0},
]


class TestFormatTable:
    def test_contains_header_and_rows(self):
        table = format_table(ROWS)
        assert "method" in table.splitlines()[0]
        assert any("INS" in line for line in table.splitlines())
        assert any("Naive" in line for line in table.splitlines())

    def test_title_is_prepended(self):
        table = format_table(ROWS, title="experiment E1")
        assert table.splitlines()[0] == "experiment E1"

    def test_column_selection_and_order(self):
        table = format_table(ROWS, columns=["rate", "method"])
        header = table.splitlines()[0]
        assert header.index("rate") < header.index("method")
        assert "k" not in header.split()

    def test_missing_values_render_empty(self):
        table = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert table  # must not raise

    def test_empty_rows(self):
        assert format_table([]) == ""
        assert format_table([], title="nothing") == "nothing"

    def test_float_rendering(self):
        table = format_table([{"value": 0.000123}, {"value": 1234.5}, {"value": 0.0}])
        assert "0.00012" in table
        assert "1234.5" in table

