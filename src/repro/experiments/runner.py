"""Run every Section VII experiment and print the paper's series.

Usage::

    python -m repro.experiments.runner [--quick]

``--quick`` shrinks the workloads (useful for CI); default sizes are
laptop-scale but statistically stable.
"""

from __future__ import annotations

import sys

from repro.experiments import fig7, fig8, fig9
from repro.metrics.charts import bar_chart, grouped_bar_chart
from repro.metrics.reporting import print_table

__all__ = ["run_all", "main"]


def _fig7ab(scale: float) -> None:
    rows = fig7.experiment_fig7ab(n_tuples=int(5000 * scale))
    print_table(
        ("sp:tuple", "mechanism", "output rate (t/ms)", "cost/tuple (ms)",
         "roles materialised"),
        [(r["ratio"], r["mechanism"], r["output_rate"], r["per_tuple_ms"],
          r["roles_materialised"]) for r in rows],
        title="Figure 7a/7b — enforcement mechanisms vs sp:tuple ratio",
    )


def _fig7cd(scale: float) -> None:
    rows = fig7.experiment_fig7cd(n_tuples=int(4000 * scale))
    print_table(
        ("|R|", "mechanism", "memory (MB)", "cost/100 tuples (ms)",
         "roles materialised"),
        [(r["policy_size"], r["mechanism"], r["memory_mb"],
          r["per_100_tuples_ms"], r["roles_materialised"]) for r in rows],
        title="Figure 7c/7d — enforcement mechanisms vs policy size",
    )


def _fig8a(scale: float) -> None:
    rows = fig8.experiment_fig8a(n_tuples=int(5000 * scale))
    print_table(
        ("sp:tuple", "project (ms)", "select (ms)", "ss (ms)"),
        [(r["ratio"], r["project_ms"], r["select_ms"], r["ss_ms"])
         for r in rows],
        title="Figure 8a — SS operator cost vs sp:tuple ratio",
    )


def _fig8b(scale: float) -> None:
    rows = fig8.experiment_fig8b(n_tuples=int(5000 * scale))
    print_table(
        ("roles", "project (ms)", "select (ms)", "ss (ms)", "ss share"),
        [(r["roles"], r["project_ms"], r["select_ms"], r["ss_ms"],
          f"{r['ss_fraction'] * 100:.1f}%") for r in rows],
        title="Figure 8b — SS operator cost vs role count in SS state",
    )


def _fig9(scale: float) -> None:
    rows = fig9.experiment_fig9(n_tuples=int(1500 * scale))
    print_table(
        ("σ_sp", "variant", "total", "join", "sp maint", "tuple maint"),
        [(r["sigma_sp"], r["variant"], r["total_ms"], r["join_ms"],
          r["sp_maintenance_ms"], r["tuple_maintenance_ms"])
         for r in rows],
        title="Figure 9 — SAJoin cost per 100 tuples (ms), by σ_sp",
    )
    groups = {}
    for r in rows:
        groups.setdefault(f"σ_sp = {r['sigma_sp']}", []).append(
            (r["variant"], r["total_ms"]))
    print(grouped_bar_chart(sorted(groups.items()),
                            title="Figure 9, total cost (ms/100 tuples):",
                            unit=" ms"))
    print()


def _granularity(scale: float) -> None:
    from repro.experiments.granularity import experiment_granularity

    rows = experiment_granularity(n_tuples=int(4000 * scale))
    print_table(
        ("granularity", "ss (ms/tuple)", "select (ms/tuple)"),
        [(r["granularity"], r["ss_ms"], r["select_ms"]) for r in rows],
        title="Extension — SS cost by policy granularity",
    )
    print(bar_chart([(r["granularity"], r["ss_ms"]) for r in rows],
                    title="SS cost by granularity (ms/tuple):",
                    unit=" ms"))
    print()


def run_all(scale: float = 1.0) -> None:
    """Run every experiment and print the paper's series."""
    _fig7ab(scale)
    _fig7cd(scale)
    _fig8a(scale)
    _fig8b(scale)
    _fig9(scale)
    _granularity(scale)


def main(argv: list[str] | None = None) -> int:
    """Module entry point (``--quick`` shrinks the workloads)."""
    argv = sys.argv[1:] if argv is None else argv
    scale = 0.2 if "--quick" in argv else 1.0
    run_all(scale)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
