"""Tests for the redesigned execution API surface.

Covers the retired execution keywords (a ``TypeError``), the public
``DSMS.shields`` view, and ``SecurityShield.rebind``.
"""

import pytest

from repro.algebra.expressions import ScanExpr
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.errors import QueryError
from repro.operators.shield import SecurityShield
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple

SCHEMA = StreamSchema("hr", ("patient", "bpm"), key="patient")


def test_run_takes_no_execution_mode(capsys):
    """Segment-batched execution of the plan as registered, in one
    process, is the only mode; the old switches are a ``TypeError``, on
    ``run()``, ``open_session()``, ``build_plan()`` and the executor,
    and the CLI has no ``--shards``."""
    from repro.cli import main
    from repro.engine.executor import Executor
    from repro.engine.plan import PhysicalPlan

    with pytest.raises(TypeError):
        DSMS().run(**{"batching": False})
    with pytest.raises(TypeError):
        DSMS().run(**{"shards": 2})
    with pytest.raises(SystemExit) as exit_info:
        main(["why", "120", "--shards", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --shards" in capsys.readouterr().err
    with pytest.raises(TypeError):
        Executor(PhysicalPlan(), **{"batching": False})
    dsms = DSMS()
    dsms.register_stream(SCHEMA, [])
    dsms.register_query("q", ScanExpr("hr"), roles={"D"})
    for entry in (dsms.run, dsms.open_session, dsms.build_plan):
        with pytest.raises(TypeError):
            entry(**{"optimize": None})


class TestShieldsView:
    def test_unknown_query_raises(self):
        dsms = DSMS()
        with pytest.raises(QueryError):
            dsms.shields("nope")

    def test_returns_query_and_delivery_shields(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, [])
        dsms.register_query("q", ScanExpr("hr"), roles={"D"})
        dsms.run()
        shields = dsms.shields("q")
        assert shields and all(isinstance(s, SecurityShield)
                               for s in shields)
        assert all(s.predicate == frozenset({"D"}) for s in shields)

    def test_before_any_run_is_empty(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, [])
        dsms.register_query("q", ScanExpr("hr"), roles={"D"})
        assert dsms.shields("q") == ()


class TestShieldRebind:
    def test_rebind_replaces_predicate_and_invalidates_cache(self):
        shield = SecurityShield({"D"})
        shield.process(SecurityPunctuation.grant(["D"], 0.0))
        assert shield.process(DataTuple("s", 1, {"x": 1}, 1.0))
        shield.rebind({"C"})
        assert shield.predicate == frozenset({"C"})
        # Cached segment decision must not survive the rebind.
        assert shield.process(DataTuple("s", 2, {"x": 2}, 2.0)) == []

    def test_update_query_roles_uses_rebind(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, [])
        dsms.register_query("q", ScanExpr("hr"), roles={"D"})
        session = dsms.open_session()
        session.push("hr", SecurityPunctuation.grant(["D"], 0.0,
                                                     provider="p"))
        out = session.push("hr", DataTuple("hr", 1,
                                           {"patient": 1, "bpm": 70}, 1.0))
        assert [t.tid for t in out["q"] if isinstance(t, DataTuple)] == [1]
        dsms.update_query_roles("q", {"C"})
        assert all(s.predicate == frozenset({"C"})
                   for s in dsms.shields("q"))
        out = session.push("hr", DataTuple("hr", 2,
                                           {"patient": 2, "bpm": 80}, 2.0))
        assert out == {}
        session.close()
