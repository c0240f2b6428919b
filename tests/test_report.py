"""Tests for the text/ASCII reporting helpers."""

from repro.report import bar, grouped_bar_chart


class TestBar:
    def test_full_bar(self):
        assert bar(10, 10, width=8) == "█" * 8

    def test_empty(self):
        assert bar(0, 10, width=8) == ""

    def test_half(self):
        rendered = bar(5, 10, width=8)
        assert rendered.startswith("████")
        assert len(rendered) <= 5

    def test_clamps_overflow(self):
        assert bar(20, 10, width=4) == "████"

    def test_zero_max(self):
        assert bar(5, 0) == ""


class TestGroupedChart:
    def test_renders_all_groups_and_series(self):
        data = {
            "ft.B": {"nol3": 1.3, "sram": 2.3},
            "cg.C": {"nol3": 1.4, "sram": 1.2},
        }
        text = grouped_bar_chart(data, title="IPC")
        assert "IPC" in text
        for key in ("ft.B", "cg.C", "nol3", "sram"):
            assert key in text
        assert "2.30" in text

    def test_shared_scale(self):
        data = {"g": {"small": 1.0, "big": 4.0}}
        lines = grouped_bar_chart(data, width=8).splitlines()
        small_line = next(l for l in lines if "small" in l)
        big_line = next(l for l in lines if "big" in l)
        assert big_line.count("█") == 8
        assert small_line.count("█") == 2

    def test_empty_data(self):
        assert grouped_bar_chart({}) == ""

