"""Run every Section VII experiment and design ablation, and print the
paper's series: ``python -m repro experiments [--quick]``.

``scale`` multiplies the workload sizes (``--quick`` is 0.2); the
default sizes are laptop-scale but statistically stable.
"""

from __future__ import annotations

from repro.experiments import ablations, fig7, fig8, fig9, granularity
from repro.metrics.charts import bar_chart, grouped_bar_chart
from repro.metrics.reporting import print_table

__all__ = ["run_all"]


def _print_rows(title: str, columns, rows: list[dict]) -> None:
    """One table: ``columns`` pairs a header with a row key."""
    print_table([header for header, _ in columns],
                [[row[key] for _, key in columns] for row in rows],
                title=title)


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
    indexed = fig8.experiment_fig8b(n_tuples=int(5000 * scale),
                                    indexed=True)
    print_table(
        ("roles", "project (ms)", "select (ms)", "ss (ms)", "ss share",
         "ss, predicate index (ms)"),
        [(r["roles"], r["project_ms"], r["select_ms"], r["ss_ms"],
          f"{r['ss_fraction'] * 100:.1f}%", i["ss_ms"])
         for r, i in zip(rows, indexed)],
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
    rows = granularity.experiment_granularity(n_tuples=int(4000 * scale))
    print_table(
        ("granularity", "ss (ms/tuple)", "select (ms/tuple)"),
        [(r["granularity"], r["ss_ms"], r["select_ms"]) for r in rows],
        title="Extension — SS cost by policy granularity",
    )
    print(bar_chart([(r["granularity"], r["ss_ms"]) for r in rows],
                    title="SS cost by granularity (ms/tuple):",
                    unit=" ms"))
    print()


def _ablations(scale: float) -> None:
    _print_rows(
        "Ablation — PF vs FP nested-loop SAJoin (ms/100 tuples), by σ_sp",
        (("σ_sp", "sigma_sp"), ("method", "method"), ("join", "join_ms"),
         ("pairs checked", "pairs_checked"), ("results", "results")),
        ablations.ablation_pf_fp(n_tuples=int(800 * scale)))
    _print_rows(
        "Ablation — SPIndex skipping rule (Lemma 5.1), ms/100 tuples",
        (("skipping", "skipping"), ("join", "join_ms"),
         ("entries scanned", "entries_scanned"),
         ("entries skipped", "entries_skipped"),
         ("segments visited", "segments_visited"),
         ("comparisons", "comparisons"), ("results", "results")),
        ablations.ablation_skipping(n_tuples=int(800 * scale)))
    _print_rows(
        "Ablation — bitmap vs set policy encoding",
        (("|R|", "policy_size"), ("encoding", "encoding"),
         ("cost/check (µs)", "per_check_us"),
         ("compatible pairs", "compatible_pairs"),
         ("bytes/policy", "bytes_per_policy")),
        ablations.ablation_bitmap(n_checks=int(4000 * scale)))
    _print_rows(
        "Ablation — SS placement: pre-, intermediate- and post-filtering",
        (("regime", "regime"), ("placement", "placement"),
         ("cost/tuple (ms)", "per_tuple_ms"), ("select in", "select_in"),
         ("tuples out", "tuples_out")),
        ablations.ablation_placement(n_tuples=int(3000 * scale)))
    _print_rows(
        "Ablation — incremental (delta) vs absolute sps",
        (("|R|", "policy_size"), ("encoding", "encoding"),
         ("ss (ms/tuple)", "ss_ms"), ("tuples out", "tuples_out"),
         ("sp bytes", "sp_bytes")),
        ablations.ablation_incremental(n_changes=int(120 * scale)))


def run_all(scale: float = 1.0) -> None:
    """Run every experiment and ablation and print the paper's series."""
    _fig7ab(scale)
    _fig7cd(scale)
    _fig8a(scale)
    _fig8b(scale)
    _fig9(scale)
    _granularity(scale)
    _ablations(scale)
