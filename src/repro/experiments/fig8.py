"""Figure 8: overhead of the Security Shield operator.

* **8a** — per-tuple cost of SS next to the cheapest query operators,
  select and project, across sp:tuple ratios.  At 1/1 every tuple has
  its own sp and SS behaves like a selection over sps; as sharing
  grows the per-segment decision is amortized over many tuples and the
  SS overhead drops sharply.
* **8b** — SS cost as the number of roles in its state grows
  (R ∈ {1, 10, 50, 100, 500}): bigger states cost more, but SS stays a
  small fraction of total query cost (≤ ~20% in the paper).

Per-operator timing comes from the operators' own
``stats.processing_time`` accounting, measured inside one shared
pipeline run (π ← σ ← SS), so all three operators see identical
element sequences.
"""

from __future__ import annotations

from repro.operators.project import Project
from repro.operators.select import Select
from repro.operators.shield import SecurityShield
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple
from repro.workloads.synthetic import (QUERY_ROLE, punctuated_stream,
                                       role_names)
from repro.experiments.fig7 import region_condition

__all__ = [
    "PAPER_SS_RATIOS",
    "PAPER_ROLE_COUNTS",
    "run_pipeline",
    "experiment_fig8a",
    "experiment_fig8b",
]

PAPER_SS_RATIOS = (1, 10, 25, 50, 100)
PAPER_ROLE_COUNTS = (1, 10, 50, 100, 500)


def run_pipeline(elements: list[StreamElement], shield: SecurityShield
                 ) -> dict[str, float]:
    """Run SS → σ → π over ``elements``; return per-tuple ms per operator."""
    select = Select(region_condition())
    project = Project(("object_id", "x", "y"))
    operators = (shield, select, project)
    for element in elements:
        batch = [element]
        for operator in operators:
            next_batch: list[StreamElement] = []
            for item in batch:
                next_batch.extend(operator.process(item))
            batch = next_batch
            if not batch:
                break
    tuples_in = sum(1 for e in elements if isinstance(e, DataTuple))
    divisor = max(tuples_in, 1)
    total = sum(op.stats.processing_time for op in operators)
    return {
        "ss_ms": shield.stats.processing_time * 1e3 / divisor,
        "select_ms": select.stats.processing_time * 1e3 / divisor,
        "project_ms": project.stats.processing_time * 1e3 / divisor,
        "total_ms": total * 1e3 / divisor,
        "ss_fraction": (shield.stats.processing_time / total
                        if total > 0 else 0.0),
    }


def experiment_fig8a(n_tuples: int = 5000, ratios=PAPER_SS_RATIOS,
                     policy_size: int = 3, seed: int = 13) -> list[dict]:
    """SS vs select vs project cost across sp:tuple ratios (Fig 8a)."""
    rows: list[dict] = []
    for ratio in ratios:
        elements = list(punctuated_stream(
            n_tuples, tuples_per_sp=ratio, policy_size=policy_size,
            accessible_fraction=0.6, seed=seed))
        shield = SecurityShield([QUERY_ROLE])
        timings = run_pipeline(elements, shield)
        rows.append({"ratio": f"1/{ratio}", **timings})
    return rows


def experiment_fig8b(n_tuples: int = 5000, role_counts=PAPER_ROLE_COUNTS,
                     tuples_per_sp: int = 10, policy_size: int = 3,
                     indexed: bool = False, seed: int = 17) -> list[dict]:
    """SS cost as the SS state grows to R roles (Fig 8b).

    The SS state holds the roles of all query specifiers interested in
    the stream.  The default is the paper's baseline SS, which scans
    its state per sp (cost λsp·(NRsp + NR)); ``indexed=True`` applies
    the predicate-index remedy the paper suggests for large states,
    flattening the curve.  ``comparisons`` is the exact count of state
    probes behind ``ss_ms`` — the curve's shape without a clock.
    """
    rows: list[dict] = []
    for role_count in role_counts:
        elements = list(punctuated_stream(
            n_tuples, tuples_per_sp=tuples_per_sp, policy_size=policy_size,
            role_pool=max(200, role_count), accessible_fraction=0.6,
            seed=seed))
        state_roles = role_names(role_count, prefix="qr") + [QUERY_ROLE]
        shield = SecurityShield(state_roles, indexed=indexed)
        timings = run_pipeline(elements, shield)
        rows.append({"roles": role_count, **timings,
                     "comparisons": shield.stats.comparisons})
    return rows
