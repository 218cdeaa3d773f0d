"""Measurement and reporting utilities for the experiment harness."""

from repro.metrics.measurement import Timer, deep_sizeof
from repro.metrics.reporting import format_number, format_table, print_table

__all__ = [
    "Timer",
    "deep_sizeof",
    "format_number",
    "format_table",
    "print_table",
]
