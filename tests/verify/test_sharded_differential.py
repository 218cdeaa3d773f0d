"""The differential oracle's shard axis.

Every generated scenario now also runs through the partitioned
multi-process executor (``n_shards ∈ {1, 2, 4}``, plus sharded
audited / index-join crossings).  This suite proves the
axis is wired — the configs exist, seeded fuzz runs verify clean
through them, and the known-bad mutation (denial-by-default disabled)
is still caught when the engine runs sharded.
"""

import pytest

from repro.verify.differ import configs_for, run_engine, verify_scenario
from repro.verify.faults import disable_denial_by_default
from repro.verify.generator import generate_scenario
from repro.verify.oracle import run_oracle


def test_shard_axis_is_in_the_config_matrix():
    scenario = generate_scenario(23, 0)
    configs = configs_for(scenario)
    shard_counts = sorted({c.n_shards for c in configs if c.n_shards})
    assert shard_counts == [1, 2, 4]
    labels = [c.label for c in configs]
    assert "sharded2-audited-batched/nl" in labels
    assert "sharded2" in {c.mode for c in configs if c.n_shards}
    # Audited: a session and run() in-process, run() sharded (workers
    # only ever execute segment-batched).
    audited = {c.label for c in configs if c.audit}
    assert audited == {"session-audited/nl", "audited-batched/nl",
                       "sharded2-audited-batched/nl"}


def test_traced_configs_check_denial_counts():
    """A traced hub carries an audit log in every tier — ``run()``, a
    session and a sharded run — so the oracle's per-query denial
    counts are checked there as in the audited configs."""
    scenario = generate_scenario(23, 0)
    traced = [c for c in configs_for(scenario) if c.traced]
    assert {c.label for c in traced} == {
        "traced/nl", "session-traced/nl",
        "sharded2-traced/nl"}
    oracle = run_oracle(scenario.decoded(), scenario.queries)
    for config in traced:
        outcome = run_engine(scenario, config)
        assert outcome.denied == oracle.denied, config.label
        assert outcome.audit_gap == 0


@pytest.mark.parametrize("seed,index", [(31, 0), (31, 1), (31, 2),
                                        (47, 0), (47, 3)])
def test_seeded_scenarios_verify_clean_with_shards(seed, index):
    scenario = generate_scenario(seed, index)
    report = verify_scenario(scenario, include_baselines=False)
    assert report.ok, "\n".join(str(m) for m in report.mismatches)
    # The run really crossed the shard axis.
    assert report.configs_run >= len(configs_for(scenario))


def test_known_bad_mutation_caught_by_sharded_configs():
    """Disabling denial-by-default must be flagged by sharded runs too.

    Parallelism must never silently widen access — if only the
    single-process configs flagged the mutation, a sharded deployment
    would be fail-open.
    """
    mutator = disable_denial_by_default()
    for index in range(10):
        scenario = generate_scenario(99, index)
        report = verify_scenario(scenario, include_baselines=False,
                                 element_mutator=mutator)
        if not report.ok:
            sharded_hits = [m for m in report.mismatches
                            if m.config.startswith("sharded")]
            assert sharded_hits, (
                "mutation caught only by single-process configs:\n"
                + "\n".join(str(m) for m in report.mismatches))
            return
    pytest.fail("known-bad mutation was never detected in 10 scenarios")
