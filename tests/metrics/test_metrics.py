"""Tests for measurement and reporting utilities."""

import time

from repro.metrics.measurement import Timer, deep_sizeof
from repro.metrics.reporting import format_number, format_table


class TestDeepSizeof:
    def test_grows_with_content(self):
        small = deep_sizeof(["a"])
        large = deep_sizeof(["a" * 1000, "b" * 1000])
        assert large > small

    def test_shared_objects_counted_once(self):
        shared = "x" * 1000
        two_refs = deep_sizeof([shared, shared])
        two_copies = deep_sizeof(["x" * 1000, "y" * 999 + "z"])
        assert two_refs < two_copies

    def test_cycles_terminate(self):
        a = []
        a.append(a)
        assert deep_sizeof(a) > 0

    def test_slots_objects(self):
        from repro.core.punctuation import SecurityPunctuation
        sp = SecurityPunctuation.grant(["D", "ND"], ts=1.0)
        bigger = SecurityPunctuation.grant(
            [f"role_{i}" for i in range(50)], ts=1.0)
        assert deep_sizeof(bigger) > deep_sizeof(sp)

    def test_dicts_walked(self):
        assert deep_sizeof({"k": "v" * 500}) > deep_sizeof({})


class TestTimer:
    def test_accumulates(self):
        timer = Timer()
        with timer:
            time.sleep(0.01)
        first = timer.elapsed
        with timer:
            time.sleep(0.01)
        assert timer.elapsed > first
        assert timer.elapsed_ms >= 20.0 * 0.5  # generous lower bound

    def test_per_item(self):
        timer = Timer()
        timer.elapsed = 1.0
        assert timer.per_item_ms(1000) == 1.0
        assert timer.per_item_ms(0) == 0.0


class TestReporting:
    def test_format_number(self):
        assert format_number(0.0) == "0"
        assert format_number(5) == "5"
        assert format_number(1234567.0) == "1,234,567.0"
        assert format_number(True) == "True"

    def test_format_table_alignment(self):
        text = format_table(("name", "value"),
                            [("a", 1.0), ("long_name", 123.456)],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        widths = {len(line) for line in lines[1:]}
        assert len(widths) <= 2  # header/sep/body aligned


class TestCharts:
    def test_bar_chart_scales_to_max(self):
        from repro.metrics.charts import bar_chart
        text = bar_chart([("a", 10.0), ("b", 5.0)], width=10, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        bar_a = lines[1].count("█")
        bar_b = lines[2].count("█")
        assert bar_a == 10
        assert bar_b == 5

    def test_bar_chart_zero_values(self):
        from repro.metrics.charts import bar_chart
        text = bar_chart([("a", 0.0), ("b", 0.0)])
        assert "█" not in text

    def test_bar_chart_empty(self):
        from repro.metrics.charts import bar_chart
        assert bar_chart([], title="empty") == "empty"

    def test_grouped_chart_global_scale(self):
        from repro.metrics.charts import grouped_bar_chart
        text = grouped_bar_chart(
            [("g1", [("x", 4.0)]), ("g2", [("y", 8.0)])], width=8)
        lines = [l for l in text.splitlines() if "█" in l]
        assert lines[0].count("█") == 4
        assert lines[1].count("█") == 8

    def test_unit_suffix(self):
        from repro.metrics.charts import bar_chart
        assert "ms" in bar_chart([("a", 1.0)], unit=" ms")
