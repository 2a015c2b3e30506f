"""The canonical form of linear-part entries: an int when the entry is
integral, a Fraction with denominator > 1 otherwise.  Both forms of one value
compare, hash and print alike, so every route that builds an AffineElement
must give an element equal, hash-equal and byte-equal to one built from the
all-Fraction matrix."""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from quasifolds.atlas import Chart, Interval, _overlap_box
from quasifolds.exact import (AffineElement, QAlpha, _affine,
                              affine_from_point_images, qa)
from quasifolds.groups import TranslationLattice

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)
# integral entries drawn often, in both forms
entries = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(Fraction),
                    small_fractions)
values = st.builds(QAlpha, small_fractions, small_fractions)


def fractions_of(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def det(m):
    if len(m) == 1:
        return m[0][0]
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def product(a, b):
    n = len(a)
    return tuple(tuple(sum((a[i][t] * b[t][j] for t in range(n)), Fraction(0))
                       for j in range(n)) for i in range(n))


def inverse(m):
    d = det(m)
    if len(m) == 1:
        return ((1 / d,),)
    return ((m[1][1] / d, -m[0][1] / d), (-m[1][0] / d, m[0][0] / d))


def times(a, x):
    return tuple(sum((v.scale(c) for c, v in zip(row, x)), QAlpha())
                 for row in a)


def oracle(a, b):
    """The element with the all-Fraction matrix of a, unchecked."""
    return _affine(fractions_of(a), tuple(b))


@st.composite
def elements(draw, n):
    """(rows, b): an invertible n×n linear part with entries as drawn, and a
    translation part."""
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=n, max_size=n)
                .filter(lambda r: det(fractions_of(r)) != 0))
    return rows, tuple(draw(values) for _ in range(n))


def assert_canonical_and_equal(el, want):
    for row in el.a:
        for x in row:
            assert type(x) is int or (type(x) is Fraction
                                      and x.denominator != 1), x
    assert all(type(x) is Fraction for row in want.a for x in row)
    assert el == want and want == el and hash(el) == hash(want)
    assert str(el) == str(want)
    assert json.dumps(el.to_json()) == json.dumps(want.to_json())


class TestCanonicalEntries:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2).flatmap(
        lambda n: st.tuples(elements(n), elements(n))))
    def test_every_route_builds_the_canonical_form(self, pair):
        (a, b), (a2, b2) = pair
        el = AffineElement(a, b)
        want = oracle(a, b)
        assert_canonical_and_equal(el, want)
        n = len(b)
        one = [[int(i == j) for j in range(n)] for i in range(n)]
        assert_canonical_and_equal(AffineElement.identity(n),
                                   oracle(one, [QAlpha()] * n))
        assert_canonical_and_equal(AffineElement.translation(b),
                                   oracle(one, b))
        assert_canonical_and_equal(AffineElement.linear(a),
                                   oracle(a, [QAlpha()] * n))
        assert_canonical_and_equal(AffineElement.from_json(want.to_json()),
                                   want)
        # the origin (k = −1) and the unit vectors, sent by the oracle
        pts = [tuple(qa(int(i == k)) for i in range(n)) for k in range(-1, n)]
        assert_canonical_and_equal(
            affine_from_point_images(pts, [want.apply(p) for p in pts]), want)
        fa = fractions_of(a)
        inv = inverse(fa)
        assert_canonical_and_equal(
            el.invert(), oracle(inv, [-x for x in times(inv, b)]))
        fa2 = fractions_of(a2)
        assert_canonical_and_equal(
            el.compose(AffineElement(a2, b2)),
            oracle(product(fa, fa2), [x + y for x, y in zip(times(fa, b2), b)]))


class TestExactReciprocals:
    def test_one_dimensional_inverse_is_a_fraction_not_a_float(self):
        x = AffineElement.linear(((3,),)).invert().a[0][0]
        assert type(x) is Fraction and x == Fraction(1, 3)

    def test_overlap_box_preimage_ends_are_exact(self):
        # m: x ↦ 3x + 1 sends (e − 1)/3 to e: the preimage of dst's domain
        # lies inside src's, so the box is that preimage exactly
        lat = TranslationLattice(((1,),))
        src = Chart("src", lat, (Interval(qa(-10), qa(10)),))
        dst = Chart("dst", lat, (Interval(qa(0), qa(5, 1)),))
        m = AffineElement(((3,),), (qa(1),))
        (box,) = _overlap_box(src, dst, m)
        third = Fraction(1, 3)
        assert type(box.lo) is QAlpha and type(box.hi) is QAlpha
        assert box.lo == (qa(0) - qa(1)).scale(third) == qa(Fraction(-1, 3))
        assert box.hi == (qa(5, 1) - qa(1)).scale(third) == qa(Fraction(4, 3),
                                                                 third)
        # a negative scale swaps the ends
        flip = AffineElement(((-3,),), (qa(1),))
        (box,) = _overlap_box(src, dst, flip)
        assert (box.lo, box.hi) == (qa(Fraction(-4, 3), -third), qa(third))
