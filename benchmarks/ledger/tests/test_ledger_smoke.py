"""Smoke tests of the performance ledger (tiny sizes, a few seconds).

Run with ``python -m pytest benchmarks/ledger/tests``.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

LEDGER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, LEDGER)

import layers  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.02


@pytest.fixture
def spec_for(tmp_path):
    def build(name: str) -> dict:
        spec, _ = workloads.build(name, 7, str(tmp_path), SCALE)
        return spec
    return build


def test_contract_lists_the_workloads_with_units_and_bounds():
    contract = run.contract()
    assert ([w["name"] for w in contract["workloads"]]
            == list(workloads.WORKLOADS))
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert metric["unit"]
    assert all(m["bound"] <= 0.25 for m in contract["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_names_are_the_contract_names(trace):
    contract = run.contract()
    record = run.run_workload("sajoin_window", 7, 0.2, bool(trace), SCALE)
    line = json.loads(run.result_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] >= 1
    listed = contract["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        printed = line["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if trace:
        # BENCHMARK.json is the only list of names: the traced child
        # must produce exactly those, with no probe missing.
        assert record["notes"] == {}
        for iteration in record["raw"]["iterations"]:
            assert set(iteration) == set(line["metrics"])
    else:
        assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("name, kwargs", [
    ("fanout_filter", {}), ("session_push", {"detail": True})])
def test_spans_nest_and_sum_to_the_wall(spec_for, name, kwargs):
    spec = spec_for(name)
    done = replay.replay(spec, **kwargs)
    assert replay.check(done, spec["expected"])
    rows = done.spans.rows
    for name_, start, end, parent in rows[1:]:
        assert parent is not None, name_
        assert rows[parent][1] <= start <= end <= rows[parent][2], name_
    totals = done.spans.totals()
    assert all(entry["self_s"] >= 0 for entry in totals.values())
    metrics, notes = layers.layer_metrics(spec, done, {}, done.wall_s,
                                          probes=[])
    assert notes == {}
    traced_wall = layers.Context(spec, done, {}).wall_s
    assert traced_wall == pytest.approx(done.wall_s, rel=0.02)
    assert (metrics["wire.decode.busy_s"] + metrics["engine.run.wall_s"]
            + metrics["delivery.encode.busy_s"]
            + metrics["e2e.unattributed_s"]
            == pytest.approx(traced_wall, rel=1e-9))


def test_gate_trips_on_a_corrupted_expected_set(spec_for):
    spec = spec_for("bulk_delivery")
    done = replay.replay(spec)
    assert replay.check(done, spec["expected"])
    tids = replay.delivered_tids(done.lines)
    tids["q0"] = tids["q0"][1:]
    again = replay.replay(spec)
    assert not replay.check(again, workloads.digest(tids))
    assert again.failed == again.elements > 0


def test_gate_trips_on_an_undecodable_result_line(spec_for):
    spec = spec_for("bulk_delivery")
    done = replay.replay(spec)
    done.lines["q0"][0] = done.lines["q0"][0][:-1]
    assert not replay.check(done, spec["expected"])
    assert "undecodable" in done.error and done.failed == done.elements


@pytest.mark.parametrize("trace", [0, 1])
def test_failed_gate_still_prints_the_result_line(monkeypatch, trace):
    # A deterministic engine break fails the very first warm-up.
    build = workloads.build

    def corrupted(*args):
        spec, facts = build(*args)
        spec["expected"]["q0"] = "0" * 64
        return spec, facts

    monkeypatch.setattr(workloads, "build", corrupted)
    record = run.run_workload("bulk_delivery", 7, 0.2, bool(trace), SCALE)
    line = json.loads(run.result_line(record))
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] >= 1
    assert "digest" in str(record["notes"])
    assert all(isinstance(m["value"], (int, float))
               for m in line["metrics"].values())


def test_undecodable_line_counts_as_failed(spec_for):
    spec = spec_for("session_push")
    with open(spec["streams"][0]["path"], "a") as fp:
        fp.write("not json\n")
    spec["elements"] += 1
    for done in (replay.replay_run(spec), replay.replay_push(spec)):
        assert done.error and done.decode_failed >= 1
        assert done.failed >= done.decode_failed


def test_join_soundness_check_rejects_a_forbidden_pair(tmp_path):
    _, facts = workloads.build("sajoin_window", 7, str(tmp_path), SCALE)
    private = next(t for t, row in facts["right"].items() if not row[2])
    assert workloads.unsound_pairs([[0, private]], facts)


def test_missing_probe_is_null_with_a_note(spec_for):
    spec = spec_for("bulk_delivery")
    done = replay.replay(spec)

    def probe_gone(ctx):
        raise ImportError("entry point deleted")

    probes = [probe_gone] + [
        p for p in layers.PROBES if p is not layers.probe_analyzer]
    metrics, notes = layers.layer_metrics(
        spec, done, {"synthetic": []}, done.wall_s, probes=probes)
    assert "analyzer.busy_s" not in metrics
    assert "engine.executor.self_s" not in metrics
    assert "probe_gone" in notes
    assert metrics["operators.shield.tuples_in"] > 0
    # run.py reports the names the child left out as null, 0 in the line.
    names = [m["name"] for m in run.contract()["per_layer"]]
    values = {name: metrics.get(name) for name in names}
    assert values["analyzer.busy_s"] is None
    line = json.loads(run.result_line(
        {"units": dict.fromkeys(names, "x"), "values": values, "notes": notes,
         "correct": True, "attempted": 1, "failed": 0}))
    assert line["metrics"]["analyzer.busy_s"]["value"] == 0.0


def _ledger(tmp_path, label: str, factor: float, seed: int = 61) -> str:
    """A one-workload ledger file whose every metric is ``factor``
    times worse than 100."""
    values = {m["name"]: 100.0 * (factor if m["better"] == "lower"
                                  else 1 / factor)
              for m in run.contract()["end_to_end"]}
    record = {"values": values, "correct": True}
    path = str(tmp_path / f"{label}.json")
    with open(path, "w") as fp:
        json.dump({"host": {"seed": seed}, "seconds": 10,
                   "workloads": {"w": {"end_to_end": record,
                                       "per_layer": record}}}, fp)
    return path


def test_compare_flags_a_regression(tmp_path, capsys):
    a, same, worse = (_ledger(tmp_path, label, factor) for label, factor
                      in (("a", 1.0), ("same", 1.01), ("worse", 1.5)))
    assert run.compare(a, same)
    assert not run.compare(a, worse)
    assert "REGRESSION" in capsys.readouterr().out
    # Medians of several ledgers a side: one bad run does not decide.
    assert run.compare(f"{a},{same},{a}", f"{same},{worse},{a}")


def test_compare_reports_a_noisy_baseline_as_unresolved(tmp_path, capsys):
    noisy = ",".join(_ledger(tmp_path, f"a{i}", factor)
                     for i, factor in enumerate((0.6, 1.0, 1.7)))
    worse = _ledger(tmp_path, "worse", 1.5)
    assert run.compare(noisy, worse)
    out = capsys.readouterr().out
    assert "UNRESOLVED" in out and "REGRESSION" not in out


def test_compare_refuses_ledgers_of_different_inputs(tmp_path):
    a = _ledger(tmp_path, "a", 1.0)
    other_seed = _ledger(tmp_path, "b", 1.0, seed=62)
    with pytest.raises(SystemExit, match="not comparable"):
        run.compare(a, other_seed)
