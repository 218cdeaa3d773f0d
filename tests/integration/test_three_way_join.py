"""Three-stream queries: nested joins and Rule 5 on real data.

Joins the paper's three health streams (Figure 4) on patient id and
checks the full security semantics: a result exists only where all
three base tuples' policies share a role, and re-associating the join
tree (Rule 5) preserves the delivered results.
"""

from repro.algebra.expressions import JoinExpr, ScanExpr, ShieldExpr
from repro.core.patterns import literal
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple
from tests.algebra.table2 import AssociateJoin, RewriteContext

HR = StreamSchema("HeartRate", ("patient_id", "bpm"), key="patient_id")
BT = StreamSchema("BodyTemperature", ("patient_id", "temp"),
                  key="patient_id")
BR = StreamSchema("BreathingRate", ("patient_id", "freq"),
                  key="patient_id")


def build_streams():
    """Patients 1-3 with per-stream policies.

    patient 1: D on all three streams  → full join row for D
    patient 2: D on two streams, C on the third → no row for D
    patient 3: D+C everywhere → row for both D and C
    """
    def sp(roles, sid, ts):
        return SecurityPunctuation.grant(
            roles, ts, stream=literal(sid), provider="dp")

    hr, bt, br = [], [], []
    for patient, roles_by_stream in (
        (1, {"HeartRate": ["D"], "BodyTemperature": ["D"],
             "BreathingRate": ["D"]}),
        (2, {"HeartRate": ["D"], "BodyTemperature": ["D"],
             "BreathingRate": ["C"]}),
        (3, {"HeartRate": ["D", "C"], "BodyTemperature": ["D", "C"],
             "BreathingRate": ["D", "C"]}),
    ):
        ts = float(patient)
        hr.append(sp(roles_by_stream["HeartRate"], "HeartRate", ts))
        hr.append(DataTuple("HeartRate", patient,
                            {"patient_id": patient, "bpm": 70 + patient},
                            ts + 0.1))
        bt.append(sp(roles_by_stream["BodyTemperature"],
                     "BodyTemperature", ts))
        bt.append(DataTuple("BodyTemperature", patient,
                            {"patient_id": patient, "temp": 98.0 + patient},
                            ts + 0.2))
        br.append(sp(roles_by_stream["BreathingRate"],
                     "BreathingRate", ts))
        br.append(DataTuple("BreathingRate", patient,
                            {"patient_id": patient, "freq": 10 + patient},
                            ts + 0.3))
    return hr, bt, br


def three_way_expr():
    inner = JoinExpr(ScanExpr("HeartRate"), ScanExpr("BodyTemperature"),
                     "patient_id", "patient_id", 100.0)
    return JoinExpr(inner, ScanExpr("BreathingRate"),
                    "patient_id", "patient_id", 100.0)


def run(expr, roles):
    hr, bt, br = build_streams()
    dsms = DSMS()
    dsms.register_stream(HR, hr)
    dsms.register_stream(BT, bt)
    dsms.register_stream(BR, br)
    dsms.register_query("q", expr, roles=roles)
    result = dsms.run()["q"]
    return sorted(t.values["patient_id"] for t in result.tuples)


class TestThreeWayJoin:
    def test_doctor_sees_fully_granted_patients(self):
        assert run(three_way_expr(), {"D"}) == [1, 3]

    def test_cardiologist_sees_only_patient3(self):
        assert run(three_way_expr(), {"C"}) == [3]

    def test_stranger_sees_nothing(self):
        assert run(three_way_expr(), {"X"}) == []

    def test_rule5_reassociation_preserves_results(self):
        base = three_way_expr()
        shielded = ShieldExpr(base, frozenset({"D"}))
        rotated = AssociateJoin().apply(base, RewriteContext())
        assert run(base, {"D"}) == run(rotated, {"D"}) == [1, 3]

    def test_join_result_carries_three_way_intersection(self):
        hr, bt, br = build_streams()
        dsms = DSMS()
        dsms.register_stream(HR, hr)
        dsms.register_stream(BT, bt)
        dsms.register_stream(BR, br)
        dsms.register_query("q", three_way_expr(), roles={"C"})
        result = dsms.run()["q"]
        # Patient 3's row is governed by {D, C} ∩ {D, C} ∩ {D, C}.
        assert result.sps
        assert result.sps[-1].roles() == frozenset({"D", "C"})
