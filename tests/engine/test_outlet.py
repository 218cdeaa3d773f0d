"""One shield per query: which shield hands a query its results.

``PhysicalPlan.compile_queries`` gives every query its own *outlet*, a
``delivery:<name>`` shield for its roles between its expression and its
sink, whatever shields the expression holds and whichever queries share
them.  Role re-binding rewrites the outlet and the query's own in-plan
shields; a shield another query reads must keep its predicate.
"""

import warnings

import pytest

from repro.algebra.expressions import ScanExpr, ShieldExpr
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.engine.plan import PhysicalPlan
from repro.errors import QueryError
from repro.operators.conditions import Comparison
from repro.operators.select import Select
from repro.operators.shield import SecurityShield
from repro.operators.sink import CollectingSink
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple

SCHEMA = StreamSchema("s", ("a",))


def segments():
    """Segments granted R (tids 0, 1), X (10, 11), R (20, 21), X (30, 31)."""
    out = []
    for i, role in enumerate("RXRX"):
        ts = 10.0 * i
        out.append(SecurityPunctuation.grant([role], ts))
        out += [DataTuple("s", 10 * i + j, {"a": j}, ts + 1 + j)
                for j in range(2)]
    return out


def shield(expr, *roles):
    return ShieldExpr(expr, frozenset(roles))


#: q1 = ψ_R(s) is an inner node of q2 = ψ_R(σ_{a≥0}(ψ_R(s))).
HAZARD = {
    "q1": shield(ScanExpr("s"), "R"),
    "q2": shield(shield(ScanExpr("s"), "R").select(
        Comparison("a", ">=", 0)), "R"),
}


def outlet_names(queries, roles=frozenset({"R"})):
    plan = PhysicalPlan()
    plan.compile_queries((name, expr, roles)
                         for name, expr in queries.items())
    return {name: outlet.name for name, (_, outlet) in plan.queries.items()}


class TestCompileQueries:
    def test_the_delivery_shield_is_the_outlet(self):
        """σ → ψ_R → sink: the query's one shield is ``delivery:q``,
        compiled between the expression and the sink."""
        dsms = DSMS()
        dsms.register_stream(SCHEMA, segments())
        dsms.register_query("q", ScanExpr("s").select(
            Comparison("a", ">=", 0)), roles={"R"})
        plan, sinks = dsms.build_plan()
        (outlet,) = plan.find_operators(SecurityShield)
        assert dsms.shields("q") == (outlet,)
        assert outlet.name == "delivery:q" and outlet.outlet
        (node,) = [n for n in plan.nodes if n.operator is outlet]
        assert node.downstream == [(plan.nodes[1], 0)]
        assert plan.nodes[1].operator is sinks["q"]
        (select,) = plan.find_operators(Select)
        (above,) = [n for n in plan.nodes if n.operator is select]
        assert above.downstream == [(node, 0)]

    def test_shared_root_keeps_its_backstop(self):
        """q1's root is q2's inner shield: each query still leaves
        through its own ``delivery:`` outlet."""
        names = outlet_names(HAZARD)
        assert names == {"q1": "delivery:q1", "q2": "delivery:q2"}

    def test_equal_roots_keep_their_backstops(self):
        expr = shield(ScanExpr("s"), "R")
        assert outlet_names({"q1": expr, "q2": expr}) == {
            "q1": "delivery:q1", "q2": "delivery:q2"}

    def test_root_that_is_not_the_delivery_check_keeps_its_backstop(self):
        assert outlet_names({
            "select_root": shield(ScanExpr("s"), "R").select(
                Comparison("a", ">=", 0)),
            "foreign_roles": shield(ScanExpr("s"), "R", "X"),
            "two_conjuncts": ShieldExpr(ScanExpr("s"), (
                frozenset({"R"}), frozenset({"R", "X"}))),
        }) == {"select_root": "delivery:select_root",
               "foreign_roles": "delivery:foreign_roles",
               "two_conjuncts": "delivery:two_conjuncts"}

    def test_node_compiled_before_keeps_its_backstop(self):
        """A chain compiled into the same plan by ``compile_chain``
        reads the root."""
        plan = PhysicalPlan()
        expr = shield(ScanExpr("s"), "R")
        plan.compile_chain(expr, [CollectingSink()])
        plan.compile_queries([("q", expr, {"R"})])
        assert plan.queries["q"][1].name == "delivery:q"

    def test_unshielded_queries_analyze_silently(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, segments())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i, role in enumerate("RX"):
                dsms.register_query(f"q{i}", ScanExpr("s").select(
                    Comparison("a", ">", i)), roles={role},
                    analyze="warn")
            dsms.build_plan()


def tids(elements):
    return [e.tid for e in elements if isinstance(e, DataTuple)]


def registered(queries, elements=()):
    dsms = DSMS()
    dsms.register_stream(SCHEMA, list(elements))
    for name, (expr, roles) in queries.items():
        dsms.register_query(name, expr, roles=roles)
    return dsms


def push_halfway(dsms, rebind):
    """Push ``segments()`` through a session, calling ``rebind()``
    halfway; returns the deliveries before and after that point."""
    elements = segments()
    before = {name: [] for name in dsms.queries}
    after = {name: [] for name in dsms.queries}
    with dsms.open_session() as session:
        for index, element in enumerate(elements):
            got = before if index < len(elements) // 2 else after
            if index == len(elements) // 2:
                rebind()
            for name, out in session.push("s", element).items():
                got[name] += tids(out)
    return before, after


def fresh_run(dsms, elements):
    """``run()`` over ``dsms``'s current registration, on ``elements``."""
    fresh = registered({name: (query.expr, query.roles)
                        for name, query in dsms.queries.items()}, elements)
    return {name: tids(result.elements)
            for name, result in fresh.run().items()}


class TestRebindSharedShields:
    def test_update_query_roles_leaves_a_shared_shield_alone(self):
        """Re-binding q2 would rewrite the ψ_R node q1 reads, or leave
        q2 with R ∩ X: it is refused, and both queries go on as
        registered."""
        dsms = registered({name: (expr, {"R"})
                           for name, expr in HAZARD.items()})

        def rebind():
            with pytest.raises(QueryError, match="shares"):
                dsms.update_query_roles("q2", {"X"})

        before, after = push_halfway(dsms, rebind)
        assert before == {"q1": [0, 1], "q2": [0, 1]}
        assert after == {"q1": [20, 21], "q2": [20, 21]}
        elements = segments()
        assert after == fresh_run(dsms, elements[len(elements) // 2:])
        assert dsms.queries["q2"].expr == HAZARD["q2"]
        assert dsms.queries["q2"].roles == {"R"}

    def test_rebind_without_a_shared_shield_answers_as_registered(self):
        """No shield is shared: from the re-bind on, the session
        delivers what ``run()`` over the updated registration delivers
        on the remaining elements."""
        dsms = registered({
            "q1": (shield(ScanExpr("s"), "R"), {"R"}),
            "q2": (shield(ScanExpr("s").select(
                Comparison("a", ">=", 0)), "R"), {"R"})})
        before, after = push_halfway(
            dsms, lambda: dsms.update_query_roles("q2", {"X"}))
        assert before == {"q1": [0, 1], "q2": [0, 1]}
        elements = segments()
        assert after == fresh_run(dsms, elements[len(elements) // 2:])
        assert after == {"q1": [20, 21], "q2": [30, 31]}


    def test_equal_queries_rebind_independently(self):
        """Two queries with one expression and one role set share no
        shield: re-binding q1 leaves q2 as registered."""
        dsms = registered({"q1": (ScanExpr("s"), {"R"}),
                           "q2": (ScanExpr("s"), {"R"})})
        before, after = push_halfway(
            dsms, lambda: dsms.update_query_roles("q1", {"X"}))
        assert before == {"q1": [0, 1], "q2": [0, 1]}
        elements = segments()
        assert after == fresh_run(dsms, elements[len(elements) // 2:])
        assert after == {"q1": [30, 31], "q2": [20, 21]}
        assert dsms.queries["q2"].roles == {"R"}


class TestRebindReachesEveryOpenSession:
    """A role update re-binds every open session's plan, not only the
    plan compiled last, and a refusal is decided over all of them."""

    @pytest.mark.parametrize("compile_again",
                             ["open_session", "run", "build_plan"])
    def test_an_earlier_session_answers_under_the_new_roles(
            self, compile_again):
        dsms = registered({"q": (ScanExpr("s").select(
            Comparison("a", ">", 0)), {"A"})})
        first = dsms.open_session()
        first.push("s", SecurityPunctuation.grant(["A"], 1.0))
        assert tids(first.push("s", DataTuple("s", 2, {"a": 1}, 2.0))[
            "q"]) == [2]
        getattr(dsms, compile_again)()
        dsms.update_query_roles("q", {"B"})
        assert "q" not in first.push("s", DataTuple("s", 3, {"a": 1}, 3.0))
        first.close()

    def test_a_shield_shared_in_any_open_plan_refuses_everywhere(self):
        """The open session still compiles q1 inside q2; the plan built
        after q1 left shares nothing.  The update is refused and neither
        plan changes; once the session is closed it goes through."""
        dsms = registered({name: (expr, {"R"})
                           for name, expr in HAZARD.items()})
        session = dsms.open_session()
        old = [shield for shields in (dsms.shields("q1"), dsms.shields("q2"))
               for shield in shields]
        dsms.deregister_query("q1")
        dsms.build_plan()
        new = list(dsms.shields("q2"))
        with pytest.raises(QueryError, match="shares"):
            dsms.update_query_roles("q2", {"X"})
        assert dsms.queries["q2"].roles == {"R"}
        assert {shield.predicate for shield in old + new} == {
            frozenset({"R"})}
        session.close()
        dsms.update_query_roles("q2", {"X"})
        assert {shield.predicate for shield in new} == {frozenset({"X"})}


class TestRebindKeepsHeldSps:
    """A segment's unsent sps stay held until a tuple of the segment
    passes or the segment ends — a re-bind does not end it."""

    def test_rebound_query_gets_the_sp_that_governs_its_tuple(self):
        dsms = registered({"q1": (ScanExpr("s"), {"C"}),
                           "q2": (ScanExpr("s"), {"D"})})
        sp = SecurityPunctuation.grant(["D"], 0.0)
        t1 = DataTuple("s", 1, {"a": 1}, 1.0)
        t2 = DataTuple("s", 2, {"a": 2}, 2.0)
        got = {"q1": [], "q2": []}
        with dsms.open_session() as session:
            for element in (sp, t1, "rebind", t2):
                if element == "rebind":
                    dsms.update_query_roles("q1", {"D"})
                    continue
                for name, out in session.push("s", element).items():
                    got[name] += out
        shown = {name: [e.tid if isinstance(e, DataTuple) else e.to_text()
                        for e in out] for name, out in got.items()}
        assert shown == {"q1": [sp.to_text(), 2],
                         "q2": [sp.to_text(), 1, 2]}
        (outlet,) = dsms.shields("q1")
        assert (outlet.tuples_blocked, outlet.sps_blocked) == (1, 0)

    def test_a_rebound_shield_releases_the_held_sp(self):
        sp = SecurityPunctuation.grant(["D"], 0.0)
        t1 = DataTuple("s", 1, {"a": 1}, 1.0)
        t2 = DataTuple("s", 2, {"a": 2}, 2.0)
        shield = SecurityShield({"C"})
        assert shield.process(sp) == []
        assert shield.process(t1) == []
        shield.rebind({"D"})
        assert shield.process(t2) == [sp, t2]
