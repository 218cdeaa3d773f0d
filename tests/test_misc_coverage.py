"""Small-surface coverage: reprs, error metadata, package exports."""

import pytest

import repro


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_subpackage_alls_resolve(self):
        import repro.access
        import repro.algebra
        import repro.core
        import repro.engine
        import repro.operators
        import repro.stream

        for module in (repro.core, repro.stream, repro.access,
                       repro.operators, repro.algebra, repro.engine):
            for name in module.__all__:
                assert getattr(module, name, None) is not None, \
                    f"{module.__name__}.{name}"


class TestErrorMetadata:
    def test_cql_error_position(self):
        from repro.errors import CQLSyntaxError

        error = CQLSyntaxError("bad token", line=3, column=7)
        assert "line 3" in str(error)
        assert error.column == 7
        bare = CQLSyntaxError("no position")
        assert str(bare) == "no position"

    def test_hierarchy(self):
        from repro.errors import (CQLSyntaxError, OutOfOrderError,
                                  PatternError, ReproError, SchemaError,
                                  StreamError)

        assert issubclass(OutOfOrderError, StreamError)
        assert issubclass(SchemaError, StreamError)
        for exc in (PatternError, StreamError, CQLSyntaxError):
            assert issubclass(exc, ReproError)


class TestReprs:
    """Reprs are part of the debugging UX; keep them informative."""

    def test_core_reprs(self):
        from repro.core import (Policy, RoleBitmap, RoleUniverse,
                                SecurityPunctuation, TuplePolicy)

        sp = SecurityPunctuation.grant(["D"], ts=1.0)
        assert "D" in str(sp)
        assert "Policy(ts=1.0" in repr(Policy([sp]))
        assert "D" in repr(TuplePolicy(frozenset({"D"})))
        assert "RoleBitmap({D})" == repr(RoleBitmap(RoleUniverse(), ["D"]))

    def test_stream_reprs(self):
        from repro.stream import (DataTuple, PunctuatedWindow, Stream,
                                  StreamSchema)

        schema = StreamSchema("s", ("v",))
        assert "s" in repr(schema)
        assert "tid=1" in repr(DataTuple("s", 1, {"v": 1}, 1.0))
        assert "tuples=0" in repr(Stream(schema))
        assert "segments=0" in repr(PunctuatedWindow("s", 5.0))

    def test_engine_reprs(self):
        from repro.engine import ContinuousQuery, QueryResult
        from repro.algebra import ScanExpr

        query = ContinuousQuery("q", ScanExpr("s"), roles={"D"})
        assert "q" in repr(query)
        assert "tuples=0" in repr(QueryResult("q"))

    def test_operator_reprs(self):
        from repro.operators import OperatorStats, SecurityShield, SPIndex
        from repro.core import RoleUniverse

        assert "indexed=True" in repr(SecurityShield(["D"]))
        assert "in=0t/0sp" in repr(OperatorStats())
        assert "entries=0" in repr(SPIndex(RoleUniverse()))

    def test_algebra_reprs(self):
        from repro.algebra import ScanExpr
        from repro.operators.conditions import Comparison

        assert repr(ScanExpr("s").shield({"D"})) == "ψ[{D}](Scan(s))"
        assert (repr(ScanExpr("s").select(Comparison("v", ">", 1)))
                == "σ[(v > 1)](Scan(s))")


class TestSubjectsAndSessions:
    def test_subject_defaults(self):
        from repro.access import Subject

        subject = Subject("u1")
        assert subject.name == "u1"
        assert subject == Subject("u1", "Different Display Name")
        assert hash(subject) == hash(Subject("u1"))

    def test_subject_requires_id(self):
        from repro.access import Subject
        from repro.errors import AccessControlError

        with pytest.raises(AccessControlError):
            Subject("")

    def test_session_repr(self):
        from repro.access import RBACModel

        rbac = RBACModel()
        rbac.add_role("D")
        rbac.add_user("alice")
        rbac.assign_role("alice", "D")
        session = rbac.sign_in("alice")
        assert "alice" in repr(session)
        assert "D" in repr(session)


class TestDocumentationDiscipline:
    """Every public module, class and function carries a docstring."""

    def _public_modules(self):
        import importlib
        import pkgutil

        import repro

        for info in pkgutil.walk_packages(repro.__path__,
                                          prefix="repro."):
            if "__pycache__" in info.name:
                continue
            yield importlib.import_module(info.name)

    def test_every_module_documented(self):
        undocumented = [m.__name__ for m in self._public_modules()
                        if not (m.__doc__ or "").strip()]
        assert undocumented == []

    def test_every_public_class_and_function_documented(self):
        import inspect

        missing = []
        for module in self._public_modules():
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name, None)
                if obj is None or not (inspect.isclass(obj)
                                       or inspect.isfunction(obj)):
                    continue
                if not (inspect.getdoc(obj) or "").strip():
                    missing.append(f"{module.__name__}.{name}")
        assert sorted(set(missing)) == []
