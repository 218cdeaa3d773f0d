"""Spec/scenario linting: SEC005 structure checks and file handling."""

import json

from repro.analysis.speclint import (lint_file, lint_scenario,
                                     lint_spec)


def scan(stream="s"):
    return {"op": "scan", "stream": stream}


def scenario(queries, streams=None):
    if streams is None:
        streams = {"s": {"attributes": ["a"], "elements": []}}
    return {"streams": streams, "queries": queries}


class TestSpecStructure:
    def test_unknown_operator(self):
        report = lint_spec({"op": "scann", "stream": "s"})
        (diag,) = report.by_code("SEC005")
        assert diag.severity.label == "error"
        assert "scann" in diag.message

    def test_missing_required_field(self):
        report = lint_spec({"op": "join", "left": scan("l"),
                            "right": scan("r"), "left_on": "k",
                            "window": 5.0})
        assert any("right_on" in d.message
                   for d in report.by_code("SEC005"))

    def test_not_an_object(self):
        report = lint_spec(["scan"])
        assert not report.ok

    def test_empty_shield_conjunct_is_error(self):
        report = lint_spec({"op": "shield", "predicates": [["R1"], []],
                            "input": scan()})
        assert any("conjunct" in d.message
                   for d in report.by_code("SEC005"))

    def test_scan_of_undeclared_stream(self):
        report = lint_scenario(scenario(
            {"q": {"roles": ["R1"],
                   "plan": {"op": "shield", "predicates": [["R1"]],
                            "input": scan("ghost")}}}))
        assert any("ghost" in d.message
                   for d in report.by_code("SEC005"))

    def test_projection_of_unknown_attribute(self):
        report = lint_scenario(scenario(
            {"q": {"roles": ["R1"],
                   "plan": {"op": "shield", "predicates": [["R1"]],
                            "input": {"op": "project",
                                      "attributes": ["ghost"],
                                      "input": scan()}}}}))
        assert any("ghost" in d.message
                   for d in report.by_code("SEC005"))

    def test_join_key_from_wrong_side(self):
        streams = {"l": {"attributes": ["k"], "elements": []},
                   "r": {"attributes": ["j"], "elements": []}}
        report = lint_scenario(scenario(
            {"q": {"roles": ["R1"],
                   "plan": {"op": "shield", "predicates": [["R1"]],
                            "input": {"op": "join", "left": scan("l"),
                                      "right": scan("r"),
                                      "left_on": "nope",
                                      "right_on": "j",
                                      "window": 5.0}}}},
            streams=streams))
        assert any("left_on" in d.message
                   for d in report.by_code("SEC005"))


class TestScenarioLint:
    def test_query_without_roles(self):
        report = lint_scenario(scenario(
            {"q": {"roles": [], "plan": scan()}}))
        assert any("roles" in d.message
                   for d in report.by_code("SEC005"))

    def test_query_without_plan(self):
        report = lint_scenario(scenario({"q": {"roles": ["R1"]}}))
        assert not report.ok

    def test_delivery_backstop_assumed_for_scenarios(self):
        # Scenario queries always get the DSMS delivery shield, their
        # outlet, so a bare scan is no finding.
        report = lint_scenario(scenario(
            {"q": {"roles": ["R1"], "plan": scan()}}))
        assert report.ok
        assert "SEC001" not in report.codes()

    def test_non_object_scenario(self):
        assert not lint_scenario([1, 2]).ok


class TestLintFile:
    def test_missing_file(self, tmp_path):
        report = lint_file(str(tmp_path / "nope.json"))
        assert not report.ok

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert not lint_file(str(path)).ok

    def test_bare_spec_dispatch(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {"op": "shield", "predicates": [["R1"]], "input": scan()}))
        report = lint_file(str(path))
        assert report.ok
        assert "SEC001" not in report.codes()

    def test_unshielded_bare_spec_is_error(self, tmp_path):
        # No scenario context means no delivery backstop to assume.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(scan()))
        report = lint_file(str(path))
        assert not report.ok
        assert "SEC001" in report.codes()
