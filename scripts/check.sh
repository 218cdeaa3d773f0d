#!/usr/bin/env bash
# Local quality gate: lint (when ruff is available) + tier-1 tests.
#
# Usage: scripts/check.sh [extra pytest args]
set -euo pipefail

cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks examples
else
    echo "== ruff == (not installed; skipping lint)"
fi

if command -v mypy >/dev/null 2>&1; then
    echo "== mypy =="
    mypy
else
    echo "== mypy == (not installed; skipping type check)"
fi

echo "== repo lint rules (AST rules and grep guards) =="
python scripts/lint_rules.py

echo "== plan lint (static security analysis) =="
PYTHONPATH=src python -m repro lint examples/plans/*.json \
    tests/verify/cases/*.json

echo "== plan lint, strict (warnings fail on example plans) =="
PYTHONPATH=src python -m repro lint --strict examples/plans/*.json

echo "== pytest (tier 1) =="
PYTHONPATH=src python -m pytest -x -q "$@"
