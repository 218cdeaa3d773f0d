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

echo "== repo lint rules =="
python scripts/lint_rules.py

echo "== plan lint (static security analysis) =="
PYTHONPATH=src python -m repro lint examples/plans/*.json \
    tests/verify/cases/*.json

echo "== one execution mode (the run-cutting flags must not come back) =="
# Bracketed last letters keep the pattern from matching this file.
if grep -rnE "batching *[=]|prebatche[d]|coalesce_element[s]|coalesce[=]" \
        src tests examples scripts docs README.md DESIGN.md .github; then
    echo "an execution-mode flag is back; see DESIGN.md section 6" >&2
    exit 1
fi

echo "== one encoder, one decoder (no per-call json convenience calls on the wire) =="
if grep -nE "json\.(dumps|loads)[(]" src/repro/stream/wire.py; then
    echo "stream/wire.py must use its module-level encoder/decoder;" \
         "see docs/PERFORMANCE.md, Wire layer" >&2
    exit 1
fi

echo "== one line builder (a tuple's wire line is written field by field, no record dict) =="
# One or more spaces: the dict literal, not the compact line it writes.
if grep -nE '"k": +"t"' src/repro/stream/wire.py; then
    echo "stream/wire.py writes a tuple line around one prebuilt encoder;" \
         "see docs/PERFORMANCE.md, Wire layer" >&2
    exit 1
fi

echo "== one decision record (no second copy of a security decision) =="
if grep -rnE "provenance\.(shield|filter)|tracer\.record[(]|\.decision[(]|_prov_" src; then
    echo "a security decision is recorded once, in the audit log;" \
         "see docs/OBSERVABILITY.md, Causal tracing" >&2
    exit 1
fi

echo "== one tracer (no sink hierarchy, no flat-vs-causal fork, no tier aliases) =="
if grep -rnE "NullTraceSink|RingBufferTraceSink|FlightRecorder|_causal\b|isinstance\([^)]*Tracer\)|with_tracing|with_metrics|shard_timing" src; then
    echo "a span has one producer (Tracer) and off is None;" \
         "see docs/OBSERVABILITY.md, Tracing" >&2
    exit 1
fi

echo "== one kernel (no operator batch path calls a Condition per tuple) =="
if grep -nE "for \w+ in .* if (self\.)?condition[(]" -r src/repro/operators; then
    echo "sibling indexable comparisons are evaluated by the selection" \
         "group, everything else by Condition.filter;" \
         "see docs/PERFORMANCE.md, What a segment costs a query" >&2
    exit 1
fi

echo "== one select state machine (the executor drives a Select through hold/emit only) =="
if grep -rnE "_held_sps|_after_tuple" src/repro/engine; then
    echo "a grouped select is driven through Select.hold / Select.emit;" \
         "see docs/PERFORMANCE.md, One hop for a stream's selections" >&2
    exit 1
fi

echo "== one frame per operator (_process is the run-of-one kernel; a push allocates no list) =="
if grep -rn "_process_tuple" src/repro/operators \
        || grep -nE "setdefault\([^)]*\[\]\)" src/repro/engine/session.py; then
    echo "fold the helper into _process / keep StreamingSession.push allocation-free;" \
         "see docs/PERFORMANCE.md, What an element costs a query" >&2
    exit 1
fi

echo "== one sp-batch interpreter (only PolicyTracker turns sps into a policy) =="
if grep -rnE "\b_batches\b|apply_incremental_batch[(]|Policy[(]tuple[(]" src/repro \
        | grep -vE "^src/repro/operators/base\.py:|:def apply_incremental_batch" \
        || grep -rnE "AbstractRoleSet|\bRoleSet\b|policy_from_sps|PolicyIntersection|PolicyUnion|names_sorted" src; then
    echo "sp-batch semantics live in operators/base.py::PolicyTracker and a" \
         "role set is a frozenset; see DESIGN.md section 6" >&2
    exit 1
fi

echo "== one query compiler (delivery shields are built by PhysicalPlan.compile_queries only) =="
if grep -rnE "name=f?[\"']delivery:" src/repro | grep -v "^src/repro/engine/plan\.py:"; then
    echo "compile queries through PhysicalPlan.compile_queries;" \
         "see docs/PERFORMANCE.md, One shield per query" >&2
    exit 1
fi

echo "== role names are names (no SRP token is read as a number) =="
if grep -n "_coerce" src/repro/core/punctuation.py; then
    echo "role tokens are names: read SRP text with patterns.parse_names;" \
         "see DESIGN.md section 1, The sp text format" >&2
    exit 1
fi

echo "== pytest (tier 1) =="
PYTHONPATH=src python -m pytest -x -q "$@"
