"""Tests for role universes and the set/bitmap role-set encodings."""

import pytest

from repro.baselines.store_and_probe import StoreAndProbeEnforcer
from repro.baselines.tuple_embedded import TupleEmbeddedEnforcer
from repro.core.bitmap import RoleBitmap, RoleUniverse, role_set
from repro.errors import AccessControlError
from repro.operators.shield import SecurityShield


class TestRoleUniverse:
    def test_registration_is_idempotent(self):
        universe = RoleUniverse()
        first = universe.register("C")
        second = universe.register("C")
        assert first == second == 0

    def test_ids_are_ordered_by_registration(self):
        universe = RoleUniverse(["a", "b", "c"])
        assert [universe.id_of(r) for r in ("a", "b", "c")] == [0, 1, 2]
        assert universe.roles() == ("a", "b", "c")

    def test_name_round_trip(self):
        universe = RoleUniverse(["x"])
        assert universe.name_of(universe.id_of("x")) == "x"

    def test_unknown_role_raises(self):
        with pytest.raises(AccessControlError):
            RoleUniverse().id_of("ghost")
        with pytest.raises(AccessControlError):
            RoleUniverse().name_of(3)

    def test_empty_name_rejected(self):
        with pytest.raises(AccessControlError):
            RoleUniverse().register("")

    def test_sort_key_registers_lazily(self):
        universe = RoleUniverse()
        assert universe.sort_key("new") == 0
        assert "new" in universe


class TestRoleSet:
    """The set encoding is a plain frozenset, built by ``role_set``."""

    def test_emptiness_and_bool(self):
        assert role_set(()) == frozenset()
        assert not role_set(())
        assert role_set(["x"])

    def test_string_treated_as_single_role(self):
        assert role_set("doctor") == frozenset({"doctor"})
        assert SecurityShield("CD").predicate == frozenset({"CD"})
        assert SecurityShield("CD", conjuncts=["C", "D"]).conjuncts == (
            frozenset({"C"}), frozenset({"D"}))
        assert TupleEmbeddedEnforcer("CD").roles == frozenset({"CD"})
        assert StoreAndProbeEnforcer("CD").roles == frozenset({"CD"})


class TestRoleBitmap:
    def test_round_trip_names(self):
        universe = RoleUniverse()
        bitmap = RoleBitmap(universe, ["C", "D", "ND"])
        assert frozenset(bitmap) == frozenset({"C", "D", "ND"})
        assert len(bitmap) == 3

    def test_bitwise_ops(self):
        universe = RoleUniverse()
        a = RoleBitmap(universe, ["C", "D"])
        b = RoleBitmap(universe, ["D", "E"])
        assert set(a & b) == {"D"}
        assert set(a | b) == {"C", "D", "E"}
        assert set(a - b) == {"C"}
        assert not a.isdisjoint(b)
        assert a.isdisjoint(RoleBitmap(universe, ["E"]))

    def test_cross_encoding_ops(self):
        universe = RoleUniverse()
        bitmap = RoleBitmap(universe, ["C", "D"])
        plain = frozenset(["D", "E"])
        assert set(bitmap & plain) == {"D"}
        assert not bitmap.isdisjoint(plain)
        assert not plain.isdisjoint(bitmap)
        assert plain.isdisjoint(RoleBitmap(universe, ["C"]))

    def test_set_and_bitmap_equal_when_same_roles(self):
        universe = RoleUniverse()
        assert frozenset(RoleBitmap(universe, ["a", "b"])) \
            == frozenset(["a", "b"])

    def test_contains(self):
        universe = RoleUniverse()
        bitmap = RoleBitmap(universe, ["C"])
        assert "C" in bitmap
        assert "D" not in bitmap

    def test_different_universes_rejected(self):
        a = RoleBitmap(RoleUniverse(), ["x"])
        b = RoleBitmap(RoleUniverse(), ["x"])
        with pytest.raises(AccessControlError):
            _ = a & b
        with pytest.raises(AccessControlError):
            a.isdisjoint(b)

    def test_registers_roles_in_universe(self):
        universe = RoleUniverse()
        RoleBitmap(universe, ["new_role"])
        assert "new_role" in universe
