"""UDF effect analyzer: read-sets, purity proofs, SEC006–SEC008.

The fixture callables live at module level because the analyzer's
read-sets come from source alone: ``inspect.getsource`` must recover
and single out their source, which it can for file-backed test
modules.  An ``exec``-defined function, or one of two same-argument
lambdas on one line, has an UNKNOWN read-set while the bytecode scan
still decides its purity (``TestSourceless``).
"""

import math
import random
import warnings
from pathlib import Path

import pytest

from repro.algebra.expressions import ScanExpr, SelectExpr, ShieldExpr
from repro.analysis import (Proof, analyze_callable, condition_udfs,
                            lint_file, udf_diagnostics)
from repro.analysis.diagnostics import Severity
from repro.analysis.lattice import StreamFacts
from repro.engine.dsms import DSMS
from repro.errors import PlanAnalysisError, UdfDeclarationWarning
from repro.operators.conditions import And, Comparison, FuncCondition, Not
from repro.operators.udfs import named_udf, registered_udfs, udf_entry
from repro.stream.schema import StreamSchema
from tests.algebra.table2 import (RewriteContext, condition_verified,
                                  equivalent_forms, verify_declaration)

REPO = Path(__file__).resolve().parent.parent.parent


# -- fixture callables (provable fragment) -----------------------------------

def reads_get(t):
    return t.get("x", 0) > 1


def reads_subscript(t):
    return t["y"] == 3


def reads_values_dict(t):
    v = t.values
    return v["z"] is not None


def reads_contains(t):
    return "flag" in t


def reads_alias(t):
    values = t.values
    speed = values.get("speed", 0.0)
    return speed > 60.0


def reads_metadata_only(t):
    return t.ts > 0.0 and t.sid == "cars"


def undeclared_cheater(t):
    return t.get("x", 0) > 1 and t.get("y", 0) > 2


def total_guard(t):
    return t.get("x", 0.0) is not None


# -- adversarial fixtures (must fail closed, not misprove) -------------------

_COUNTER = {"calls": 0}


def closure_mutator(t):
    _COUNTER["calls"] += 1
    return t.get("x", 0) > _COUNTER["calls"]


def computed_getattr(t):
    field = "val" + "ues"
    return getattr(t, field)["x"] > 1


def nested_lambda(t):
    def probe():
        return t.get("x", 0)
    return probe() > 1


def uses_random(t):
    return random.random() < 0.5


def prints(t):
    print(t)
    return True


# -- purity-scan branches ----------------------------------------------------

_LAST_SEEN = None


def stores_global(t):
    global _LAST_SEEN
    _LAST_SEEN = t.get("x", 0)
    return True


def _closing_over(value):
    def udf(t):
        return value is not None and t.get("x", 0) > 1
    return udf


closes_over_random = _closing_over(random)
closes_over_math = _closing_over(math)
closes_over_list = _closing_over([1, 2])


def _pure_helper(v):
    return v * 2


def _impure_helper(v):
    print(v)
    return v


def calls_pure_helper(t):
    return _pure_helper(t.get("x", 0)) > 1


def calls_impure_helper(t):
    return _impure_helper(t.get("x", 0)) > 1


def _depth4(v):
    return v


def _depth3(v):
    return _depth4(v)


def _depth2(v):
    return _depth3(v)


def _depth1(v):
    return _depth2(v)


def calls_deep_chain(t):
    return _depth1(t.get("x", 0)) > 1


def countdown(t, n=3):
    return n <= 0 or countdown(t, n - 1)


def _ping(t):
    print(t)
    return _pong(t)


def _pong(t):
    return _ping(t)


def loads_mutator(t):
    seen = []
    seen.append(t.get("x", 0))
    return bool(seen)


def imports_at_call_time(t):
    import math as m
    return m.floor(t.get("x", 0)) > 1


def reads_unresolvable_global(t):
    return t.get("x", 0) > _NOT_DEFINED_ANYWHERE  # noqa: F821


# -- callables without a unique source ----------------------------------------

_EXEC_NAMESPACE: dict = {}
exec("def exec_pure(t):\n    return t.get('x', 0) > 1\n"
     "def exec_prints(t):\n    print(t)\n    return True\n",
     _EXEC_NAMESPACE)
exec_pure = _EXEC_NAMESPACE["exec_pure"]
exec_prints = _EXEC_NAMESPACE["exec_prints"]
twin_x, twin_y = (lambda t: t["x"] > 1), (lambda t: t["y"] > 1)
SOURCELESS = [exec_pure, twin_x, twin_y]


class TestReadSets:
    @pytest.mark.parametrize("fn,expected", [
        (reads_get, {"x"}),
        (reads_subscript, {"y"}),
        (reads_values_dict, {"z"}),
        (reads_contains, {"flag"}),
        (reads_alias, {"speed"}),
        (undeclared_cheater, {"x", "y"}),
    ], ids=["get", "subscript", "values", "contains", "alias", "cheater"])
    def test_inferred_reads(self, fn, expected):
        assert analyze_callable(fn).reads == frozenset(expected)

    def test_metadata_access_is_not_an_attribute_read(self):
        report = analyze_callable(reads_metadata_only)
        assert report.reads == frozenset()
        assert report.proven_pure

    def test_provable_fragment_proves_purity(self):
        for fn in (reads_get, reads_subscript, reads_alias, total_guard):
            report = analyze_callable(fn)
            assert report.purity is Proof.PROVEN, fn
            assert report.determinism is Proof.PROVEN, fn


class TestAdversarialFixtures:
    def test_closure_mutation_blocks_purity(self):
        report = analyze_callable(closure_mutator)
        assert report.purity is not Proof.PROVEN
        assert not report.proven_pure

    def test_computed_getattr_fails_closed_on_reads(self):
        assert analyze_callable(computed_getattr).reads is None

    def test_nested_function_capture_fails_closed_on_reads(self):
        assert analyze_callable(nested_lambda).reads is None

    def test_random_refutes_determinism(self):
        report = analyze_callable(uses_random)
        assert report.determinism is Proof.REFUTED

    def test_io_refutes_purity(self):
        report = analyze_callable(prints)
        assert report.purity is Proof.REFUTED
        # t escapes into print(), so its reads are unknowable.
        assert report.reads is None


class TestPurityScan:
    def test_store_global_refutes_purity(self):
        assert analyze_callable(stores_global).purity is Proof.REFUTED

    @pytest.mark.parametrize("fn,purity,determinism", [
        (closes_over_random, Proof.REFUTED, Proof.REFUTED),
        (closes_over_math, Proof.PROVEN, Proof.PROVEN),
        (closes_over_list, Proof.PROVEN, Proof.UNKNOWN),
    ], ids=["nondet-module", "safe-module", "mutable-value"])
    def test_closure_cell_values(self, fn, purity, determinism):
        report = analyze_callable(fn)
        assert (report.purity, report.determinism) == (purity,
                                                       determinism)

    def test_helper_call_chain(self):
        assert analyze_callable(calls_pure_helper).proven_pure
        assert analyze_callable(
            calls_impure_helper).purity is Proof.REFUTED
        deep = analyze_callable(calls_deep_chain)
        assert (deep.purity, deep.determinism) == (Proof.UNKNOWN,
                                                   Proof.UNKNOWN)
        assert "helper '_depth1': purity unknown" in deep.reasons

    def test_recursion(self):
        assert analyze_callable(countdown).proven_pure

    def test_mutual_recursion_verdict_is_order_free(self):
        # _pong reaches _ping's print through the cycle; analyzing
        # _ping first must not leave _pong a verdict that hides it.
        assert analyze_callable(_ping).purity is Proof.REFUTED
        assert analyze_callable(_pong).purity is Proof.REFUTED

    def test_mutating_method_load(self):
        assert analyze_callable(loads_mutator).purity is Proof.UNKNOWN

    def test_import_at_call_time(self):
        report = analyze_callable(imports_at_call_time)
        assert report.purity is Proof.UNKNOWN
        assert any("imports" in r for r in report.reasons)

    def test_unresolvable_global(self):
        report = analyze_callable(reads_unresolvable_global)
        assert (report.purity, report.determinism) == (Proof.UNKNOWN,
                                                       Proof.UNKNOWN)


class TestSourceless:
    @pytest.mark.parametrize("fn,purity", [
        (exec_pure, Proof.PROVEN), (exec_prints, Proof.REFUTED),
        (twin_x, Proof.PROVEN), (twin_y, Proof.PROVEN),
    ], ids=["exec", "exec-prints", "twin-x", "twin-y"])
    def test_read_set_is_unknown_purity_still_decided(self, fn, purity):
        report = analyze_callable(fn)
        assert report.reads is None
        assert report.purity is purity

    @pytest.mark.parametrize("fn", SOURCELESS, ids=["exec", "twin-x",
                                                    "twin-y"])
    def test_every_consumer_fails_closed(self, fn):
        with pytest.warns(UdfDeclarationWarning):
            wrapped = FuncCondition.wrap(fn, label="sourceless")
        assert wrapped.attributes() == frozenset()
        declared = FuncCondition(fn, ("x",), label="sourceless")
        diags = udf_diagnostics(declared, "plan/select")
        assert [(d.code, d.severity) for d in diags] == [
            ("SEC006", Severity.WARNING)]
        assert condition_verified(declared) is Proof.UNKNOWN


class TestDeclarations:
    def test_verify_declaration_three_values(self):
        covered = FuncCondition(reads_get, ("x",), label="ok")
        cheater = FuncCondition(undeclared_cheater, ("x",), label="cheat")
        opaque = FuncCondition(computed_getattr, ("x",), label="opaque")
        assert verify_declaration(covered) is Proof.PROVEN
        assert verify_declaration(cheater) is Proof.REFUTED
        assert verify_declaration(opaque) is Proof.UNKNOWN

    def test_undeclared_reads(self):
        report = analyze_callable(undeclared_cheater)
        assert report.undeclared(frozenset({"x"})) == frozenset({"y"})
        assert report.undeclared(frozenset({"x", "y"})) == frozenset()

    def test_empty_declaration_warns_at_construction(self):
        with pytest.warns(UdfDeclarationWarning):
            FuncCondition(reads_get, label="undeclared")

    def test_opaque_empty_declaration_warns(self):
        with pytest.warns(UdfDeclarationWarning):
            FuncCondition(computed_getattr, label="opaque")

    def test_trivial_callable_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            FuncCondition(reads_metadata_only, label="metadata")

    def test_wrap_infers_the_declaration(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cond = FuncCondition.wrap(undeclared_cheater, label="wrapped")
        assert cond.attributes() == frozenset({"x", "y"})
        assert verify_declaration(cond) is Proof.PROVEN


class TestConditionVerified:
    def test_udf_free_condition_is_proven(self):
        cond = And([Comparison("x", ">", 1), Not(Comparison("y", "<", 2))])
        assert condition_verified(cond) is Proof.PROVEN

    def test_meet_over_leaves(self):
        proven = FuncCondition(reads_get, ("x",), label="ok")
        cheater = FuncCondition(undeclared_cheater, ("x",), label="cheat")
        opaque = FuncCondition(computed_getattr, ("x",), label="opaque")
        assert condition_verified(proven) is Proof.PROVEN
        assert condition_verified(
            And([proven, Comparison("y", ">", 0)])) is Proof.PROVEN
        assert condition_verified(And([proven, cheater])) is Proof.REFUTED
        assert condition_verified(Not(opaque)) is Proof.UNKNOWN

    def test_registered_udfs_all_prove(self):
        assert registered_udfs()
        for name in registered_udfs():
            cond = named_udf(name)
            assert condition_verified(cond) is Proof.PROVEN, name
            assert cond.effects.proven_pure, name

    def test_select_udf_leaves_carry_their_purity(self):
        proven = named_udf("in_region")
        stateful = FuncCondition(closure_mutator, ("x",), label="stateful")
        cond = And([proven, Not(stateful)])
        assert [udf.effects.proven_pure
                for udf in condition_udfs(cond)] == [True, False]


class TestDiagnostics:
    def _diags(self, cond, **kwargs):
        return udf_diagnostics(cond, "plan/select", **kwargs)

    def test_sec006_error_on_undeclared_read(self):
        cond = FuncCondition(undeclared_cheater, ("x",), label="cheat")
        diags = self._diags(cond)
        assert [d.code for d in diags] == ["SEC006"]
        assert diags[0].severity is Severity.ERROR
        assert "'y'" in diags[0].message

    def test_sec006_warning_trusts_unverifiable_declaration(self):
        cond = FuncCondition(computed_getattr, ("x",), label="opaque")
        diags = self._diags(cond)
        assert [d.code for d in diags] == ["SEC006"]
        assert diags[0].severity is Severity.WARNING

    def test_sec007_on_refuted_purity_or_determinism(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            noisy = FuncCondition(prints, label="noisy")
        rng = FuncCondition(uses_random, (), label="rng")
        assert "SEC007" in [d.code for d in self._diags(noisy)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rng_diags = self._diags(rng)
        assert "SEC007" in [d.code for d in rng_diags]

    def test_sec007_silent_on_unknown_purity(self):
        # UNKNOWN purity is not reportable: flagging every unprovable
        # callable would drown real findings.
        cond = FuncCondition(closure_mutator, ("x",), label="maybe")
        assert "SEC007" not in [d.code for d in self._diags(cond)]

    def test_sec008_needs_concrete_governed_overlap(self):
        cond = FuncCondition(undeclared_cheater, ("x",), label="cheat")
        facts = StreamFacts(known=True,
                            attr_scoped={"cars": frozenset({"y"})},
                            schemas={"cars": ("x", "y")})
        diags = self._diags(cond, facts=facts, streams=["cars"])
        assert {d.code for d in diags} == {"SEC006", "SEC008"}
        sec008 = next(d for d in diags if d.code == "SEC008")
        assert sec008.severity is Severity.ERROR
        # No attribute-scoped sps on the read attribute: no SEC008.
        unscoped = StreamFacts(known=True,
                               attr_scoped={"cars": frozenset({"z"})},
                               schemas={"cars": ("x", "y", "z")})
        codes = {d.code
                 for d in self._diags(cond, facts=unscoped,
                                      streams=["cars"])}
        assert "SEC008" not in codes

    def test_verified_udf_emits_nothing(self):
        assert self._diags(named_udf("in_region")) == []
        cond = FuncCondition(reads_get, ("x",), label="ok")
        assert self._diags(cond) == []


class TestStrictRegistration:
    def _dsms(self):
        dsms = DSMS()
        dsms.register_stream(StreamSchema("cars", ("x", "y", "speed")))
        return dsms

    def test_undeclared_read_rejected_strict(self):
        dsms = self._dsms()
        bad = FuncCondition(undeclared_cheater, ("x",), label="cheat")
        with pytest.raises(PlanAnalysisError) as excinfo:
            dsms.register_query("q", ScanExpr("cars").select(bad),
                                roles=["police"], analyze="strict")
        assert "SEC006" in [d.code for d in excinfo.value.report.errors]

    def test_declared_correct_udf_registers_strict(self):
        dsms = self._dsms()
        dsms.register_query("q", ScanExpr("cars").select(
            named_udf("in_region")), roles=["police"], analyze="strict")


class TestRewriteFlip:
    CTX = RewriteContext(policy_streams=frozenset({"cars"}))

    def _forms(self, cond):
        root = ShieldExpr(SelectExpr(ScanExpr("cars"), cond),
                          (frozenset({"police"}),))
        return [repr(f) for f in equivalent_forms(root, self.CTX)]

    @staticmethod
    def _select_pushed(forms):
        return any(f.index("σ") < f.index("ψ")
                   for f in forms if "σ" in f and "ψ" in f)

    def test_proven_udf_passes_commute_select_shield(self):
        assert self._select_pushed(self._forms(named_udf("in_region")))

    def test_unproven_udf_refuses_commute_select_shield(self):
        cheater = FuncCondition(undeclared_cheater, ("x",), label="cheat")
        opaque = FuncCondition(computed_getattr, ("x",), label="opaque")
        assert not self._select_pushed(self._forms(cheater))
        assert not self._select_pushed(self._forms(opaque))


class TestZeroFalsePositives:
    UDF_CODES = {"SEC006", "SEC007", "SEC008"}

    @pytest.mark.parametrize("pattern", [
        "examples/plans/*.json", "tests/verify/cases/*.json"])
    def test_corpus_is_clean(self, pattern):
        paths = sorted(REPO.glob(pattern))
        assert paths
        for path in paths:
            codes = {d.code for d in lint_file(str(path)).diagnostics}
            assert not codes & self.UDF_CODES, path.name

    def test_udf_example_plan_references_registered_udf(self):
        plan = REPO / "examples" / "plans" / "shielded-udf-select.json"
        assert "bpm_critical" in plan.read_text()
        assert udf_entry("bpm_critical").attributes == frozenset(
            {"beats_per_min"})
