"""``repro verify`` must be byte-deterministic for a fixed seed."""

import io
from contextlib import redirect_stdout

import pytest

from repro.cli import main


def _run(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def test_seed_42_is_byte_identical_across_runs():
    first_code, first = _run(["verify", "--seed", "42", "--runs", "6"])
    second_code, second = _run(["verify", "--seed", "42", "--runs", "6"])
    assert first_code == second_code == 0
    assert first == second
    assert "seed=42" in first


def test_different_seeds_change_the_transcript():
    _, first = _run(["verify", "--seed", "42", "--runs", "3"])
    _, second = _run(["verify", "--seed", "43", "--runs", "3"])
    assert first != second


def test_replay_exit_codes(tmp_path):
    import os
    cases = os.path.join(os.path.dirname(__file__), "cases")
    paths = [os.path.join(cases, f) for f in sorted(os.listdir(cases))
             if f.endswith(".json")]
    code, out = _run(["verify", "--replay", *paths])
    assert code == 0
    assert f"replaying {len(paths)}" in out


def _malformed(plan):
    """``examples/plans/shielded-select.json`` with one plan node bent."""
    import json
    from pathlib import Path

    path = (Path(__file__).resolve().parents[2] / "examples" / "plans"
            / "shielded-select.json")
    spec = json.loads(path.read_text(encoding="utf-8"))
    plan(spec["queries"]["tachycardia"]["plan"]["input"])
    return spec


@pytest.mark.parametrize("plan", [
    lambda select: select.update(op="filter"),
    lambda select: select["input"].update(stream="nosuch"),
    lambda select: select.update(condition={"udf": "nosuch"}),
], ids=["unknown-op", "undeclared-stream", "unregistered-udf"])
def test_a_malformed_spec_fails_its_replay(tmp_path, plan):
    import json

    path = tmp_path / "case.json"
    path.write_text(json.dumps(_malformed(plan)), encoding="utf-8")
    code, _ = _run(["verify", "--replay", str(path)])
    assert code != 0
