"""End-to-end scenarios from the paper's motivating examples."""

from repro.algebra.expressions import ScanExpr
from repro.core.patterns import literal
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.operators.conditions import Comparison, FuncCondition
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple
from repro.workloads.health import (HEART_RATE_SCHEMA,
                                    HealthStreamGenerator)
from repro.workloads.synthetic import (QUERY_ROLE, SYNTH_SCHEMA,
                                      punctuated_stream, role_names)


class TestHealthMonitoring:
    """Example 2: privacy protection of personal health data."""

    def _dsms(self, n_patients=6, n_readings=20, seed=11):
        generator = HealthStreamGenerator(n_patients=n_patients, seed=seed)
        dsms = DSMS()
        dsms.register_stream(HEART_RATE_SCHEMA,
                             list(generator.heart_rate(n_readings)))
        return dsms

    def test_doctor_sees_all_insurance_sees_nothing(self):
        dsms = self._dsms()
        dsms.register_query("doctor", ScanExpr("HeartRate"), roles={"D"})
        dsms.register_query("insurance", ScanExpr("HeartRate"),
                            roles={"INSURER"})
        results = dsms.run()
        assert len(results["doctor"].tuples) > 0
        assert results["insurance"].tuples == []

    def test_er_sees_only_emergencies(self):
        dsms = self._dsms()
        dsms.register_query("er", ScanExpr("HeartRate"), roles={"E"})
        dsms.register_query("doctor", ScanExpr("HeartRate"), roles={"D"})
        results = dsms.run()
        er_readings = results["er"].tuples
        assert er_readings, "expected at least one emergency"
        assert all(t.values["beats_per_min"] >= 140.0 for t in er_readings)
        assert len(er_readings) < len(results["doctor"].tuples)

    def test_alert_query_composition(self):
        dsms = self._dsms()
        alert = ScanExpr("HeartRate").select(
            Comparison("beats_per_min", ">", 100))
        dsms.register_query("alerts", alert, roles={"D"})
        results = dsms.run()
        assert all(t.values["beats_per_min"] > 100
                   for t in results["alerts"].tuples)


class TestLocationPrivacy:
    """Example 1: protection against context-aware spam."""

    def test_store_only_sees_consenting_objects(self):
        # A two-role pool: a segment grants the store (QUERY_ROLE) or
        # the family role, and the grant changes from segment to
        # segment.
        (family_role,) = role_names(1)
        elements = list(punctuated_stream(
            100, tuples_per_sp=5, policy_size=1, role_pool=1, seed=13))
        dsms = DSMS()
        dsms.register_stream(SYNTH_SCHEMA, elements)

        in_region = FuncCondition(
            lambda t: t.values["x"] ** 2 + t.values["y"] ** 2 >= 0,
            attributes=("x", "y"), label="region")
        query = ScanExpr("synthetic").select(in_region)
        dsms.register_query("store", query, roles={QUERY_ROLE})
        dsms.register_query("family", query, roles={family_role})
        results = dsms.run()

        # Rebuild ground truth from the raw stream: tuple i is governed
        # by the sp immediately preceding it.
        visible_to = {QUERY_ROLE: [], family_role: []}
        current = None
        for element in elements:
            if isinstance(element, SecurityPunctuation):
                current = element
            else:
                for role in visible_to:
                    if current is not None and role in current.roles():
                        visible_to[role].append(
                            (element.tid, element.ts))
        got_store = [(t.tid, t.ts) for t in results["store"].tuples]
        got_family = [(t.tid, t.ts) for t in results["family"].tuples]
        assert got_store == visible_to[QUERY_ROLE]
        assert got_family == visible_to[family_role]
        assert got_store  # scenario is non-trivial
        assert set(got_store) != set(got_family)


class TestAttributeGranularity:
    """The paper's attribute-level policy example."""

    def test_attribute_scoped_policy_guards_column(self):
        schema = StreamSchema("vitals", ("patient", "temp", "room"))
        elements = [
            # patient readable by both; temp by D only; room by E only.
            SecurityPunctuation.grant(["D", "E"], ts=0.0,
                                      attribute=literal("patient")),
            SecurityPunctuation.grant(["D"], ts=0.0,
                                      attribute=literal("temp")),
            SecurityPunctuation.grant(["E"], ts=0.0,
                                      attribute=literal("room")),
            DataTuple("vitals", 1,
                      {"patient": 1, "temp": 98.6, "room": 12}, 1.0),
        ]
        dsms = DSMS()
        dsms.register_stream(schema, elements)
        dsms.register_query("temp_q",
                            ScanExpr("vitals").project(["temp"]),
                            roles={"D"})
        dsms.register_query("room_q",
                            ScanExpr("vitals").project(["room"]),
                            roles={"D"})
        results = dsms.run()
        assert len(results["temp_q"].tuples) == 1
        assert results["room_q"].tuples == []
