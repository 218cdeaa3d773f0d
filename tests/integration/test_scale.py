"""Moderate-scale end-to-end smoke: many objects, many segments.

The paper's testbed streams 110K moving objects; full scale is a
benchmark concern, but the engine must comfortably digest thousands of
objects with per-segment policy churn inside a unit-test budget, with
exact enforcement throughout.
"""

from repro.algebra.expressions import ScanExpr
from repro.engine.dsms import DSMS
from repro.operators.shield import SecurityShield
from repro.stream.element import count_elements
from repro.stream.tuples import DataTuple
from repro.workloads.synthetic import (QUERY_ROLE, SYNTH_SCHEMA,
                                      punctuated_stream, role_names)


class TestScale:
    def test_thousand_object_fleet_through_dsms(self):
        # A two-role pool: each segment grants the retail role
        # (QUERY_ROLE) or the family role, never both.
        (family_role,) = role_names(1)
        elements = list(punctuated_stream(
            4000, tuples_per_sp=20, policy_size=1, role_pool=1, seed=71))
        n_tuples, n_sps = count_elements(elements)
        assert n_tuples == 4000

        dsms = DSMS()
        dsms.register_stream(SYNTH_SCHEMA, elements)
        dsms.register_query("family", ScanExpr("synthetic"),
                            roles={family_role})
        dsms.register_query("retail", ScanExpr("synthetic"),
                            roles={QUERY_ROLE})
        results = dsms.run()
        family = len(results["family"].tuples)
        retail = len(results["retail"].tuples)
        # Single-role policies partition the stream between the roles.
        assert family + retail == n_tuples
        assert family > 0 and retail > 0

    def test_fifty_thousand_tuples_through_shield(self):
        """Raw shield throughput at 50k tuples with 5k policy segments
        stays well inside a second-scale unit-test budget and enforces
        exactly."""
        elements = list(punctuated_stream(
            50_000, tuples_per_sp=10, policy_size=3,
            accessible_fraction=0.5, seed=73))
        shield = SecurityShield([QUERY_ROLE])
        passed = 0
        for element in elements:
            for out in shield.process(element):
                if isinstance(out, DataTuple):
                    passed += 1
        assert passed == shield.stats.tuples_out
        assert passed + shield.tuples_blocked == 50_000
        # ~half the segments are accessible.
        assert 0.35 < passed / 50_000 < 0.65
