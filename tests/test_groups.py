"""Countable affine group presentations and their bounded enumeration."""

from fractions import Fraction

import pytest

from quasifolds.errors import EnumerationCapError
from quasifolds.exact import AffineElement, Trit, qa
from quasifolds.groups import (FiniteMatrixGroup, GeneratedGroup,
                               RationalTranslations, TranslationLattice,
                               enumerate_group, membership_status,
                               orbit_witness)


def zalpha():
    return TranslationLattice(((qa(1),), (qa(0, 1),)))


class TestTranslationLattice:
    def test_enumeration_count_and_determinism(self):
        lat = zalpha()
        elems = lat.enumerate(1)
        assert len(elems) == 9
        assert elems == lat.enumerate(1)
        assert all(g.is_translation for g in elems)

    def test_enumeration_dedups_dependent_generators(self):
        dep = TranslationLattice(((qa(1),), (qa(2),)))  # 2 = 2·1
        elems = dep.enumerate(2)
        assert len(set(elems)) == len(elems)

    def test_contains_value_certified(self):
        lat = zalpha()
        assert lat.contains_value((qa(5, -7),)) is Trit.TRUE
        assert lat.contains_value((qa(Fraction(1, 2)),)) is Trit.FALSE
        assert lat.contains_value((qa(0, Fraction(1, 2)),)) is Trit.FALSE

    def test_contains_value_dependent_generators(self):
        dep = TranslationLattice(((qa(2),), (qa(3),)))  # spans Z
        assert dep.contains_value((qa(1),)) is Trit.TRUE
        assert dep.contains_value((qa(Fraction(1, 2)),)) is Trit.FALSE

    def test_membership_respects_bound(self):
        lat = zalpha()
        vec, status = lat.membership((qa(2, 1),), 2)
        assert status is Trit.TRUE and vec == [2, 1]
        vec, status = lat.membership((qa(9, 0),), 2)
        assert status is Trit.UNKNOWN and vec is None
        vec, status = lat.membership((qa(Fraction(1, 3)),), 10)
        assert status is Trit.FALSE

    def test_orbit_status(self):
        lat = zalpha()
        witness, status = lat.orbit_status((qa(0),), (qa(1, 1),), 1)
        assert status is Trit.TRUE
        assert witness.apply((qa(0),)) == (qa(1, 1),)
        _, status = lat.orbit_status((qa(0),), (qa(0, Fraction(1, 2)),), 5)
        assert status is Trit.FALSE
        _, status = lat.orbit_status((qa(0),), (qa(7, 0),), 2)
        assert status is Trit.UNKNOWN

    def test_is_dense(self):
        assert zalpha().is_dense  # rank 2 > dimension 1
        assert not TranslationLattice(((qa(1),),)).is_dense
        # dependent generators: three spanning rank 2, two spanning Z
        assert TranslationLattice(((qa(1),), (qa(0, 1),), (qa(2, 3),))).is_dense
        assert not TranslationLattice(((qa(2),), (qa(3),))).is_dense

    def test_enumeration_cap(self):
        lat = TranslationLattice(tuple((qa(1 if i == j else 0),)
                                       for j in range(1)
                                       for i in range(1)))
        with pytest.raises(EnumerationCapError):
            lat.enumerate(10 ** 9)


class TestRationalTranslations:
    def test_height_ordered_line(self):
        rat = RationalTranslations(1)
        elems = rat.enumerate(2)
        values = [g.b[0] for g in elems]
        assert values[0] == qa(0)
        assert qa(Fraction(1, 2)) in values and qa(-2) in values
        assert qa(Fraction(1, 3)) not in values  # height 3 > bound 2

    def test_orbit_status(self):
        rat = RationalTranslations(1)
        _, status = rat.orbit_status((qa(0),), (qa(0, 1),), 4)
        assert status is Trit.FALSE  # α component is an obstruction
        w, status = rat.orbit_status((qa(0),), (qa(Fraction(1, 2)),), 2)
        assert status is Trit.TRUE and w.b[0] == qa(Fraction(1, 2))
        _, status = rat.orbit_status((qa(0),), (qa(Fraction(1, 50)),), 3)
        assert status is Trit.UNKNOWN

    def test_dense(self):
        assert RationalTranslations(1).is_dense


class TestFiniteMatrixGroup:
    def test_reflection_group(self):
        grp = FiniteMatrixGroup((AffineElement.identity(1),
                                 AffineElement.linear(((Fraction(-1),),))))
        assert len(grp.enumerate(1)) == 2
        _, status = grp.orbit_status((qa(1),), (qa(-1),), 1)
        assert status is Trit.TRUE
        _, status = grp.orbit_status((qa(1),), (qa(2),), 1)
        assert status is Trit.FALSE  # complete search certifies absence

    def test_closure_required(self):
        rot = AffineElement.linear(((Fraction(0), Fraction(-1)),
                                    (Fraction(1), Fraction(0))))
        with pytest.raises(ValueError):
            FiniteMatrixGroup((AffineElement.identity(2), rot))  # not closed


class TestGeneratedGroup:
    def test_bfs_words(self):
        g = GeneratedGroup((AffineElement.translation((qa(1),)),))
        elems = g.enumerate(2)
        values = {e.b[0] for e in elems}
        assert values == {qa(-2), qa(-1), qa(0), qa(1), qa(2)}
        # breadth-first: word length, then letter order (generator, inverse)
        assert [str(e) for e in elems] == ['t[0]', 't[1]', 't[-1]', 't[2]',
                                           't[-2]']

    def test_never_certifies_absence(self):
        g = GeneratedGroup((AffineElement.translation((qa(1),)),))
        _, status = g.orbit_status((qa(0),), (qa(0, 1),), 3)
        assert status is Trit.UNKNOWN


class TestHelpers:
    def test_membership_status(self):
        lat = zalpha()
        assert membership_status(
            lat, AffineElement.translation((qa(1, 1),)), 2) is Trit.TRUE
        assert membership_status(
            lat, AffineElement.translation((qa(Fraction(1, 2)),)), 2) is Trit.FALSE
        assert membership_status(
            lat, AffineElement.linear(((Fraction(2),),)), 2) is Trit.FALSE

    def test_enumerate_group_and_orbit_witness(self):
        lat = zalpha()
        elems = enumerate_group(lat, 1)
        assert len(elems) == 9
        w = orbit_witness((qa(0),), (qa(1, -1),), lat, 1)
        assert w is not None and w.apply((qa(0),)) == (qa(1, -1),)
        assert orbit_witness((qa(0),), (qa(5, 5),), lat, 1) is None
