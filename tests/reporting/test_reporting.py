"""Unit tests for the ASCII renderers."""

from __future__ import annotations

from repro.reporting import fmt_bytes, fmt_ns, render_series, render_table


class TestRenderTable:
    def test_alignment_and_title(self):
        out = render_table(
            ["name", "value"],
            [("a", 1), ("long-name", 123456)],
            title="My Table",
        )
        lines = out.splitlines()
        assert lines[0] == "My Table"
        header = lines[2]
        assert header.startswith("name")
        # All data rows share the header's separator structure.
        assert all(" | " in line for line in lines[2:] if line and "-+-" not in line)

    def test_float_formatting(self):
        out = render_table(["x"], [(0.12345,), (123456.789,), (0.0001234,), (0.0,)])
        assert "0.123" in out
        assert "1.23e+05" in out
        assert "0.000123" in out

    def test_empty_rows_ok(self):
        out = render_table(["a", "b"], [])
        assert "a" in out and "b" in out


class TestRenderSeries:
    def test_series_columns(self):
        out = render_series(
            "n", [1, 2], {"a": [10, 20], "b": [30, 40]}, title="S"
        )
        assert "S" in out
        lines = out.splitlines()
        assert "a" in lines[2] and "b" in lines[2]
        assert "10" in out and "40" in out


class TestFormatters:
    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512B"
        assert fmt_bytes(2048) == "2.0KiB"
        assert fmt_bytes(3 * 1024 * 1024) == "3.0MiB"
        assert "GiB" in fmt_bytes(5 * 1024**3)

    def test_fmt_ns(self):
        assert fmt_ns(500) == "500ns"
        assert fmt_ns(1_500) == "1.5us"
        assert fmt_ns(2_500_000) == "2.50ms"
        assert fmt_ns(3_200_000_000) == "3.200s"
