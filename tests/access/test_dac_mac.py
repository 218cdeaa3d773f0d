"""Tests for the DAC and MAC models mapped onto sps."""

import pytest

from repro.access.dac import DACModel, user_principal
from repro.access.mac import DEFAULT_LEVELS, MACModel, level_principal
from repro.access.model import Subject
from repro.core.punctuation import SecurityPunctuation
from repro.errors import AccessControlError
from repro.operators.shield import SecurityShield
from repro.stream.tuples import DataTuple


class TestDAC:
    def test_principal_naming(self):
        assert user_principal("alice") == "user:alice"
        with pytest.raises(AccessControlError):
            user_principal("")

    def test_principals_for(self):
        model = DACModel()
        model.add_user("alice")
        assert model.principals_for(Subject("alice")) == frozenset(
            {"user:alice"})

    def test_unknown_user_rejected(self):
        model = DACModel()
        with pytest.raises(AccessControlError):
            model.principals_for(Subject("ghost"))

    def test_dac_enforcement_via_sps(self):
        """A grant to alice lets alice — and only alice — through."""
        model = DACModel()
        model.add_user("alice")
        model.add_user("bob")
        sp = SecurityPunctuation.grant([user_principal("alice")], ts=0.0)
        t = DataTuple("s", 1, {"v": 1}, 1.0)

        alice_shield = SecurityShield(model.principals_for(Subject("alice")))
        assert [e for e in (alice_shield.process(sp)
                            + alice_shield.process(t))
                if isinstance(e, DataTuple)]

        bob_shield = SecurityShield(model.principals_for(Subject("bob")))
        assert not (bob_shield.process(sp) + bob_shield.process(t))


class TestMAC:
    def test_default_lattice(self):
        model = MACModel()
        assert model.dominates("top_secret", "secret")
        assert model.dominates("secret", "secret")
        assert not model.dominates("confidential", "secret")

    def test_unknown_level_rejected(self):
        model = MACModel()
        with pytest.raises(AccessControlError):
            model.dominates("secret", "super_duper_secret")
        with pytest.raises(AccessControlError):
            model.set_clearance("u", "nope")

    def test_clearance_management(self):
        model = MACModel()
        model.set_clearance("alice", "secret")
        assert model.clearance_of("alice") == "secret"
        with pytest.raises(AccessControlError):
            model.clearance_of("bob")

    def test_principals_for_classification_upward_closure(self):
        model = MACModel()
        principals = model.principals_for_classification("secret")
        assert principals == frozenset({
            level_principal("secret"), level_principal("top_secret")})

    def test_duplicate_levels_rejected(self):
        with pytest.raises(AccessControlError):
            MACModel(("a", "a"))

    def test_mac_enforcement_matches_dominance(self):
        """sp principal sets reproduce exactly clearance >= class."""
        model = MACModel()
        for clearance in DEFAULT_LEVELS:
            model.set_clearance(f"user_{clearance}", clearance)
        for classification in DEFAULT_LEVELS:
            object_principals = frozenset(
                model.principals_for_classification(classification))
            for clearance in DEFAULT_LEVELS:
                subject = Subject(f"user_{clearance}")
                allowed = not object_principals.isdisjoint(
                    model.principals_for(subject))
                assert allowed == model.dominates(clearance, classification)
