"""Tests for the repo's own lint script (scripts/lint_rules.py)."""
