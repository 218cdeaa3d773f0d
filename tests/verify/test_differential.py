"""The differential harness end to end.

* every committed reproducer under ``cases/`` must verify clean — these
  are shrunken scenarios from bugs the differ actually caught (stale
  policies after full-batch projection pruning, the unsound δ/ψ
  commute, sign-blind baselines);
* a seeded fuzz smoke run must be mismatch-free;
* a traced run and a traced session must report the oracle's denial
  counts;
* the known-bad mutation (denial-by-default disabled) must be caught
  and shrink to a tiny reproducer — proof the harness detects real
  violations, not just agreement.
"""

import os

import pytest

from repro.verify.campaign import run_campaign
from repro.verify.differ import configs_for, run_engine, verify_scenario
from repro.verify.faults import disable_denial_by_default
from repro.verify.generator import generate_scenario
from repro.verify.oracle import run_oracle
from repro.verify.shrink import load_cases, shrink_scenario

CASES_DIR = os.path.join(os.path.dirname(__file__), "cases")
CASES = load_cases(CASES_DIR)


def test_cases_are_committed():
    names = [name for name, _ in CASES]
    assert "project-prune-widening.json" in names
    assert "dupelim-shield-commute.json" in names
    assert "baseline-negative-sp.json" in names


@pytest.mark.parametrize("name,scenario", CASES,
                         ids=[name for name, _ in CASES])
def test_committed_case_verifies_clean(name, scenario):
    report = verify_scenario(scenario)
    assert report.ok, "\n".join(str(m) for m in report.mismatches)


def test_fuzz_smoke_run_is_clean():
    transcript = []
    result = run_campaign(seed=11, runs=4, emit=transcript.append)
    assert result.ok, "\n".join(transcript)
    assert result.scenarios == 4
    assert result.configs > 0


def test_session_is_the_element_wise_axis():
    """Every join variant's plan is driven both by ``run()`` and by a
    session pushed element by element; no flag-selected element-wise
    run is left."""
    shapes = set()
    for index in range(12):
        scenario = generate_scenario(17, index)
        shapes.add(scenario.shape)
        configs = configs_for(scenario)
        assert not any("elementwise" in c.label for c in configs)
        plain = [c for c in configs
                 if not (c.audit or c.traced)]
        for variant in {c.join_variant for c in plain}:
            modes = sorted(c.mode for c in plain
                           if c.join_variant == variant)
            assert modes == ["batched", "session"], variant
        assert [c.label for c in configs if c.audit and c.session] \
            == ["session-audited/nl"]
    assert {"join", "multi_query"} <= shapes  # index variant, shared plans


def test_traced_configs_check_denial_counts():
    """A traced hub carries an audit log in ``run()`` and in a session,
    so the oracle's per-query denial counts are checked there as in
    the audited configs."""
    scenario = generate_scenario(23, 0)
    traced = [c for c in configs_for(scenario) if c.traced]
    assert {c.label for c in traced} == {"traced/nl", "session-traced/nl"}
    oracle = run_oracle(scenario.decoded(), scenario.queries,
                        scenario.server_policies())
    for config in traced:
        outcome = run_engine(scenario, config)
        assert outcome.denied == oracle.denied, config.label
        assert outcome.audit_gap == 0


class TestKnownBadMutation:
    """Disabling denial-by-default must be caught and shrunk small."""

    def _catch(self):
        mutator = disable_denial_by_default()
        for index in range(10):
            scenario = generate_scenario(99, index)
            report = verify_scenario(scenario, include_baselines=False,
                                     element_mutator=mutator)
            if not report.ok:
                return scenario, mutator, report
        pytest.fail("known-bad mutation was never detected in 10 scenarios")

    def test_caught_and_shrunk(self):
        scenario, mutator, report = self._catch()
        assert any(m.kind == "delivered" for m in report.mismatches)

        def failing(candidate):
            return not verify_scenario(candidate, include_baselines=False,
                                       element_mutator=mutator).ok

        small = shrink_scenario(scenario, failing)
        assert small.element_count() <= 10
        assert failing(small)
        # The minimal witness still shows unauthorized delivery.
        bad = verify_scenario(small, include_baselines=False,
                              element_mutator=mutator)
        assert any("extra" in m.detail for m in bad.mismatches
                   if m.kind == "delivered")
