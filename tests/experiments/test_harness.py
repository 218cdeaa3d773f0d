"""The figure harness end to end: ``repro experiments --quick`` prints
every figure, extension and ablation table once, and the ablations'
counts (never their clocks) show what each design choice buys."""

import contextlib
import io
import re

import pytest

from repro import cli

TITLES = (
    "Figure 7a/7b — enforcement mechanisms vs sp:tuple ratio",
    "Figure 7c/7d — enforcement mechanisms vs policy size",
    "Figure 8a — SS operator cost vs sp:tuple ratio",
    "Figure 8b — SS operator cost vs role count in SS state",
    "Figure 9 — SAJoin cost per 100 tuples (ms), by σ_sp",
    "Figure 9, total cost (ms/100 tuples):",
    "Extension — SS cost by policy granularity",
    "SS cost by granularity (ms/tuple):",
    "Ablation — PF vs FP nested-loop SAJoin (ms/100 tuples), by σ_sp",
    "Ablation — SPIndex skipping rule (Lemma 5.1), ms/100 tuples",
    "Ablation — bitmap vs set policy encoding",
    "Ablation — SS placement: pre-, intermediate- and post-filtering",
    "Ablation — incremental (delta) vs absolute sps",
)


def tables(text):
    """Each printed table by title: its rows as header → cell dicts."""
    out = {}
    for block in text.split("\n\n"):
        lines = block.strip("\n").splitlines()
        if len(lines) < 3 or not lines[2].startswith("---"):
            continue
        headers = re.split(r" {2,}", lines[1].strip())
        out[lines[0]] = [dict(zip(headers, re.split(r" {2,}", row.strip())))
                         for row in lines[3:]]
    return out


@pytest.fixture(scope="module")
def run():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = cli.main(["experiments", "--quick"])
    return status, buffer.getvalue()


@pytest.fixture(scope="module")
def printed(run):
    return tables(run[1])


def test_exits_zero_and_prints_each_title_once(run):
    status, text = run
    assert status == 0
    for title in TITLES:
        assert text.count(title) == 1, title


def test_fig8b_prints_the_predicate_index_column(printed):
    rows = printed["Figure 8b — SS operator cost vs role count in SS state"]
    assert [row["roles"] for row in rows] == ["1", "10", "50", "100", "500"]
    assert all(row["ss, predicate index (ms)"] for row in rows)


def test_pf_and_fp_join_the_same_pairs(printed):
    rows = printed["Ablation — PF vs FP nested-loop SAJoin (ms/100 tuples),"
                   " by σ_sp"]
    results = {}
    for row in rows:
        results.setdefault(row["σ_sp"], {})[row["method"]] = row["results"]
    assert sorted(results) == ["0", "0.5", "1"]
    assert all(by_method["PF"] == by_method["FP"]
               for by_method in results.values())


def test_skipping_visits_fewer_segments_for_the_same_results(printed):
    rows = printed["Ablation — SPIndex skipping rule (Lemma 5.1), "
                   "ms/100 tuples"]
    by = {row["skipping"]: row for row in rows}
    on, off = by["True"], by["False"]
    assert on["results"] == off["results"]
    assert int(on["segments visited"]) < int(off["segments visited"])
    assert int(on["comparisons"]) < int(off["comparisons"])


def test_bitmap_and_set_agree_on_every_check(printed):
    rows = printed["Ablation — bitmap vs set policy encoding"]
    pairs = {}
    for row in rows:
        pairs.setdefault(row["|R|"], set()).add(row["compatible pairs"])
    assert sorted(pairs, key=int) == ["2", "10", "50"]
    assert all(len(counts) == 1 for counts in pairs.values())


def test_placements_deliver_the_same_tuples(printed):
    rows = printed["Ablation — SS placement: pre-, intermediate- and "
                   "post-filtering"]
    delivered = {}
    for row in rows:
        delivered.setdefault(row["regime"], set()).add(row["tuples out"])
    assert sorted(delivered) == ["permissive-policies", "tight-policies"]
    assert all(len(counts) == 1 for counts in delivered.values())
    # Pre-filtering spares the selection the segments it may not read.
    select_in = {(row["regime"], row["placement"]): int(row["select in"])
                 for row in rows}
    assert (select_in["tight-policies", "pre"]
            < select_in["tight-policies", "post"])


def test_deltas_deliver_every_tuple_in_fewer_sp_bytes(printed):
    rows = printed["Ablation — incremental (delta) vs absolute sps"]
    by = {(row["|R|"], row["encoding"]): row for row in rows}
    for size in ("10", "50", "200"):
        absolute, delta = by[size, "absolute"], by[size, "delta"]
        assert absolute["tuples out"] == delta["tuples out"] == "240"
        assert int(delta["sp bytes"]) < int(absolute["sp bytes"])
