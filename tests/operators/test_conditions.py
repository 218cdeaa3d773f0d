"""Tests for selection/join condition objects."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.operators.conditions import (And, Comparison, FuncCondition, Not,
                                        Or, TrueCondition)
from repro.operators.select import Select
from repro.stream.batch import TupleBatch
from repro.stream.tuples import DataTuple


def tup(**values):
    return DataTuple("s", 0, values, 0.0)


class TestComparison:
    @pytest.mark.parametrize("op,value,expected", [
        ("=", 5, True), ("==", 5, True), ("!=", 5, False),
        ("<>", 5, False), ("<", 6, True), ("<=", 5, True),
        (">", 4, True), (">=", 6, False),
    ])
    def test_operators(self, op, value, expected):
        assert Comparison("x", op, value)(tup(x=5)) is expected

    def test_attribute_vs_attribute(self):
        condition = Comparison("x", "=", "y", rhs_attribute=True)
        assert condition(tup(x=3, y=3))
        assert not condition(tup(x=3, y=4))

    def test_missing_attribute_is_false(self):
        assert not Comparison("missing", "=", 1)(tup(x=1))

    def test_type_error_is_false(self):
        assert not Comparison("x", "<", 5)(tup(x="string"))

    def test_unknown_operator_rejected(self):
        with pytest.raises(PlanError):
            Comparison("x", "LIKE", 1)

    def test_attributes_footprint(self):
        assert Comparison("x", "=", 1).attributes() == frozenset({"x"})
        both = Comparison("x", "=", "y", rhs_attribute=True)
        assert both.attributes() == frozenset({"x", "y"})


class TestCombinators:
    def test_and(self):
        condition = Comparison("x", ">", 1) & Comparison("x", "<", 5)
        assert condition(tup(x=3))
        assert not condition(tup(x=7))

    def test_or(self):
        condition = Comparison("x", "=", 1) | Comparison("x", "=", 2)
        assert condition(tup(x=2))
        assert not condition(tup(x=3))

    def test_not(self):
        condition = ~Comparison("x", "=", 1)
        assert condition(tup(x=2))
        assert not condition(tup(x=1))

    def test_and_flattens(self):
        a, b, c = (Comparison("x", "=", i) for i in range(3))
        condition = And((And((a, b)), c))
        assert len(condition.parts) == 3

    def test_conjuncts(self):
        a = Comparison("x", ">", 1)
        b = Comparison("y", "<", 2)
        assert And((a, b)).conjuncts() == [a, b]
        assert a.conjuncts() == [a]

    def test_attribute_union(self):
        condition = Comparison("x", "=", 1) & Comparison("y", "=", 2)
        assert condition.attributes() == frozenset({"x", "y"})
        condition = Or((Comparison("x", "=", 1), Comparison("z", "=", 2)))
        assert condition.attributes() == frozenset({"x", "z"})
        assert Not(Comparison("w", "=", 0)).attributes() == frozenset({"w"})


class TestSpecial:
    def test_true_condition(self):
        assert TrueCondition()(tup(x=0))
        assert TrueCondition().attributes() == frozenset()

    def test_func_condition(self):
        condition = FuncCondition(lambda t: t.values["x"] % 2 == 0,
                                  attributes=("x",), label="even")
        assert condition(tup(x=4))
        assert not condition(tup(x=3))
        assert condition.attributes() == frozenset({"x"})


# -- run kernels: ``filter`` is the per-tuple loop, whatever it runs -------

OPS = ("=", "==", "!=", "<>", "<", "<=", ">", ">=")
#: Everything a wire value can be, plus what compares oddly: ``None``,
#: ``NaN``, ``True == 1 == 1.0``, strings and lists next to numbers (a
#: ``TypeError`` for the ordering operators).
VALUES = st.one_of(
    st.none(), st.just(float("nan")), st.booleans(),
    st.integers(-2, 2), st.sampled_from([-1.5, 0.0, 1.0, 2.5]),
    st.sampled_from(["", "a", "1"]),
    st.lists(st.integers(0, 1), max_size=2))
#: A run whose tuples carry ``x``/``y`` or miss them, types mixed.
RUNS = st.lists(
    st.fixed_dictionaries({}, optional={"x": VALUES, "y": VALUES}),
    max_size=8,
).map(lambda rows: [DataTuple("s", tid, row, float(tid))
                    for tid, row in enumerate(rows)])
COMPARISONS = st.one_of(
    st.builds(Comparison, st.sampled_from(["x", "y"]),
              st.sampled_from(OPS), VALUES),
    st.builds(Comparison, st.sampled_from(["x", "y"]),
              st.sampled_from(OPS), st.sampled_from(["x", "y", "z"]),
              rhs_attribute=st.just(True)))

#: Tids the UDF leaf was called with, in call order.
CALLS: list = []


def _logged_udf(item):
    CALLS.append(item.tid)
    return item.tid % 3 != 0


LOGGED = FuncCondition(_logged_udf, attributes=("x",), label="logged")
CONDITIONS = st.recursive(
    st.one_of(COMPARISONS, st.just(LOGGED), st.just(TrueCondition())),
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(And),
        st.lists(inner, min_size=1, max_size=3).map(Or),
        inner.map(Not)),
    max_leaves=6)


def loop(condition, run):
    """The reference: one ``__call__`` per tuple, in run order."""
    return [item for item in run if condition(item)]


def same_tuples(left, right):
    return len(left) == len(right) and all(
        a is b for a, b in zip(left, right))


class TestFilterIsTheLoop:
    @given(condition=COMPARISONS, run=RUNS)
    def test_comparison_kernel(self, condition, run):
        assert same_tuples(condition.filter(run), loop(condition, run))

    @given(condition=CONDITIONS, run=RUNS)
    def test_nests_with_a_udf_inside(self, condition, run):
        CALLS.clear()
        expected = loop(condition, run)
        expected_calls = CALLS.copy()
        CALLS.clear()
        assert same_tuples(condition.filter(run), expected)
        assert CALLS == expected_calls

    def test_filter_returns_a_new_list(self):
        run = [tup(x=1), tup(x=2)]
        for condition in (Comparison("x", ">", 0), TrueCondition(),
                          Comparison("x", ">", 0) & Comparison("x", "<", 9)):
            assert condition.filter(run) == run
            assert condition.filter(run) is not run

    def test_none_constant_matches_nothing(self):
        run = [tup(x=1), tup(x=None), tup()]
        for op in OPS:
            condition = Comparison("x", op, None)
            assert condition.filter(run) == loop(condition, run) == []

    @pytest.mark.parametrize("wrap", [
        lambda udf: udf,
        lambda udf: And((Comparison("x", ">=", 0), udf)),
        lambda udf: And((udf, Comparison("x", ">=", 0))),
        lambda udf: Or((Comparison("x", ">", 4), udf)),
        lambda udf: Not(udf),
    ], ids=["bare", "and-after", "and-before", "or", "not"])
    def test_raising_udf_aborts_at_the_same_tuple(self, wrap):
        def raising(item):
            CALLS.append(item.tid)
            if item.tid == 3:
                raise ValueError("boom")
            return True

        condition = wrap(FuncCondition(raising, attributes=("x",)))
        run = [DataTuple("s", tid, {"x": tid}, float(tid))
               for tid in range(6)]
        CALLS.clear()
        with pytest.raises(ValueError):
            loop(condition, run)
        expected_calls = CALLS.copy()
        CALLS.clear()
        with pytest.raises(ValueError):
            condition.filter(run)
        assert CALLS == expected_calls
        assert expected_calls[-1] == 3

    def test_mixed_type_run_compares_each_tuple_at_most_twice(self):
        """Hostile flood: floats and strings alternate under ``x > 900``.
        The kernel's ``TypeError`` retry must be invisible in what is
        delivered and bounded in work — counted, not clocked."""

        class CountedFloat(float):
            compared = 0

            def __gt__(self, other):
                self.compared += 1
                return float.__gt__(self, other)

        class CountedStr(str):
            compared = 0

            def __gt__(self, other):
                self.compared += 1
                return str.__gt__(self, other)

        values = [CountedFloat(890 + i) if i % 2 == 0 else CountedStr(i)
                  for i in range(40)]
        run = [DataTuple("s", tid, {"x": value}, float(tid))
               for tid, value in enumerate(values)]
        condition = Comparison("x", ">", 900)
        out = Select(condition).process_batch(TupleBatch(run))
        assert [t.tid for t in out[0].tuples] == [
            t.tid for t in run if t.tid % 2 == 0 and t.tid > 10]
        counts = [value.compared for value in values]
        assert max(counts) == 2  # the retry ran ...
        assert min(counts) >= 1  # ... and nothing was skipped
        for value in values:
            value.compared = 0
        assert same_tuples(out[0].tuples, loop(condition, run))
        assert [value.compared for value in values] == [1] * len(values)
