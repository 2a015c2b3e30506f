"""One operation may share word searches among its points.

On a domain-free atlas the word search from a point depends only on the
point's chart and the bound, so `fiber_over`, `arrows_from` and
`arrows_between` accept a `words` dict that one operation shares among its
searches, and `generate_germs` and `source_probe` share one per call;
`quotient_witness`, `quotient_witness_right`, `surjectivity_probe` and
`source_probe` take one that the morita command shares among its loops.
Each test here compares a shared search with the same searches made one by
one: the results must be equal tuples in the same order.  An atlas with domains
must leave the dict empty, and no call may leave state on the groupoid.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quasifolds.atlas import Atlas, Chart, StructureGroupoid, Transition
from quasifolds.bimodule import (BiAtlas, LinkingGerm, class_map,
                                 generate_germs, left_act,
                                 quotient_witness, quotient_witness_right,
                                 right_act, source_probe, surjectivity_probe)
from quasifolds.catalog import (duplicated_biatlas, reflection_orbifold_atlas,
                                t_alpha_duplicated_atlas, two_scale_biatlas,
                                two_scale_lattice, z_alpha_lattice)
from quasifolds.exact import AffineElement, qa
from quasifolds.groupoid import NebulaPoint


def germs_one_search_each(bi, word_length):
    """`generate_germs` with its own word search for every left arrow."""
    seen = {}
    for seed in bi.seeds:
        for g in bi.left_groupoid().fiber_over(seed.src, word_length):
            z1 = left_act(g, seed)
            for gp in bi.right_groupoid().arrows_from(class_map(z1),
                                                      word_length):
                seen.setdefault(right_act(z1, gp))
    return tuple(seen)


def source_probe_one_search_each(bi, point, bound):
    """`source_probe` with its own word search for every call it makes."""
    left = bi.left_groupoid()
    for seed in bi.seeds:
        for g in left.fiber_over(seed.src, bound):
            if g.src == point:
                return left_act(g, seed)
        arrows = left.arrows_between(point, seed.src, bound)
        if arrows:
            return left_act(arrows[0], seed)
    return None


def state_of(groupoid):
    """What a call could leave behind on the groupoid."""
    return {k: (id(v), repr(v)) for k, v in vars(groupoid).items()}


def identity_biatlas(atlas, chart, x):
    """The atlas linked to itself by the identity germ at chart:(x)."""
    seed = LinkingGerm(NebulaPoint(chart, (x,)), AffineElement.identity(1),
                       chart)
    return BiAtlas(atlas, atlas, (seed,))


def t_alpha_duplicated_biatlas():
    return identity_biatlas(t_alpha_duplicated_atlas(), "a", qa(0))


def reflection_biatlas():
    return identity_biatlas(reflection_orbifold_atlas(), "fold", qa(1))


def grid(chart, scale=Fraction(1)):
    return [NebulaPoint(chart, (qa(scale * n, scale * m),))
            for n in range(-2, 3) for m in range(-2, 3)]


def check_shared_searches(groupoid, points, bound):
    """Every fiber and every arrow set between points, searched with one
    shared dict, equals the same search made alone; returns the dict."""
    before = state_of(groupoid)
    words = {}
    for v in points:
        assert (groupoid.fiber_over(v, bound, words=words)
                == groupoid.fiber_over(v, bound))
        assert (groupoid.arrows_from(v, bound, words=words)
                == groupoid.arrows_from(v, bound))
        for w in points[:3]:
            assert (groupoid.arrows_between(v, w, bound, words=words)
                    == groupoid.arrows_between(v, w, bound))
        assert state_of(groupoid) == before
    return words


class TestGenerateGerms:
    @pytest.mark.parametrize("make, lengths", [
        (duplicated_biatlas, (1, 2, 3)),
        (two_scale_biatlas, (1, 2, 3)),
        (t_alpha_duplicated_biatlas, (1,)),
        (reflection_biatlas, (1, 2, 3)),
    ])
    def test_same_germs_in_the_same_order(self, make, lengths):
        bi = make()
        groupoids = (bi.left_groupoid(), bi.right_groupoid())
        before = [state_of(g) for g in groupoids]
        for length in lengths:
            assert generate_germs(bi, length) == \
                germs_one_search_each(bi, length)
            assert [state_of(g) for g in groupoids] == before


class TestSourceProbe:
    @pytest.mark.parametrize("make, chart, bound", [
        (duplicated_biatlas, "main", 2),
        (two_scale_biatlas, "main", 2),
        (t_alpha_duplicated_biatlas, "b", 1),
    ])
    def test_same_germ(self, make, chart, bound):
        bi = make()
        before = state_of(bi.left_groupoid())
        for point in grid(chart):
            assert source_probe(bi, point, bound) == \
                source_probe_one_search_each(bi, point, bound)
            assert state_of(bi.left_groupoid()) == before

    def test_same_germ_with_domains(self):
        bi = reflection_biatlas()
        for x in (qa(1), qa(-2), qa(Fraction(5, 2)), qa(0, 1)):
            point = NebulaPoint("fold", (x,))
            assert source_probe(bi, point, 2) == \
                source_probe_one_search_each(bi, point, 2)


class TestWitnessesAndProbes:
    """Witnesses and probes over many germ pairs share one dict, as the
    morita command's loops do, and answer as they do alone."""

    @pytest.mark.parametrize("make", [duplicated_biatlas, two_scale_biatlas,
                                      t_alpha_duplicated_biatlas,
                                      reflection_biatlas])
    def test_same_answers(self, make):
        bi = make()
        groupoids = (bi.left_groupoid(), bi.right_groupoid())
        before = [state_of(g) for g in groupoids]
        germs = generate_germs(bi, 1)[:12]
        words = {}
        for z in germs:
            for zp in germs:
                for witness in (quotient_witness, quotient_witness_right):
                    assert witness(bi, z, zp, 2, words=words) == \
                        witness(bi, z, zp, 2)
        for z in germs:
            t = class_map(z)
            assert surjectivity_probe(bi, t, 2, words=words) == \
                surjectivity_probe(bi, t, 2)
            assert source_probe(bi, z.src, 2, words=words) == \
                source_probe(bi, z.src, 2)
        assert [state_of(g) for g in groupoids] == before
        if make is reflection_biatlas:  # an atlas with domains
            assert words == {}
        else:
            assert {key[0] for key in words} == set(groupoids)

    def test_witnesses_are_found(self):
        # the comparison above must not pass on empty answers alone
        bi = duplicated_biatlas()
        germs = generate_germs(bi, 1)
        words = {}
        found = [quotient_witness(bi, z, zp, 2, words=words)[1]
                 for z in germs[:9] for zp in germs[:9]]
        assert "constructed" in found and "classes-differ" in found


class TestSharedDict:
    @pytest.mark.parametrize("make, side, chart, scale", [
        (duplicated_biatlas, "left", "main", Fraction(1)),
        (two_scale_biatlas, "right", "half", Fraction(1, 2)),
    ])
    def test_biatlas_charts(self, make, side, chart, scale):
        bi = make()
        groupoid = getattr(bi, f"{side}_groupoid")()
        words = check_shared_searches(groupoid, grid(chart, scale), 2)
        # one search per (groupoid, chart, bound), kept as tuples
        assert list(words) == [(groupoid, chart, 2)]
        assert all(isinstance(s, tuple) for s in words.values())

    def test_two_charts(self):
        groupoid = StructureGroupoid(t_alpha_duplicated_atlas())
        points = grid("a")[:6] + grid("b")[:6]
        words = check_shared_searches(groupoid, points, 2)
        assert sorted(key[1] for key in words) == ["a", "b"]

    def test_one_dict_for_two_groupoids(self):
        bi = two_scale_biatlas()
        left, right = bi.left_groupoid(), bi.right_groupoid()
        words = {}
        v = NebulaPoint("main", (qa(1, 1),))
        w = NebulaPoint("half", (qa(Fraction(1, 2)),))
        assert left.fiber_over(v, 2, words=words) == left.fiber_over(v, 2)
        assert right.fiber_over(w, 2, words=words) == right.fiber_over(w, 2)
        assert set(words) == {(left, "main", 2), (right, "half", 2)}

    def test_atlas_with_domains_leaves_the_dict_empty(self):
        groupoid = StructureGroupoid(reflection_orbifold_atlas())
        points = [NebulaPoint(c, (qa(x),)) for c in ("fold", "away")
                  for x in (1, 2, Fraction(3, 2))]
        assert check_shared_searches(groupoid, points, 2) == {}


coeff = st.integers(min_value=-2, max_value=2)
half = st.builds(Fraction, coeff, st.sampled_from([1, 2]))


@st.composite
def lattice_atlases(draw):
    """A domain-free atlas of one to three charts sharing one lattice, glued
    by transitions x ↦ ±x + c, which carry the lattice onto itself."""
    lattice = draw(st.sampled_from([z_alpha_lattice, two_scale_lattice]))()
    ids = ["c0", "c1", "c2"][:draw(st.integers(1, 3))]
    transitions = draw(st.lists(
        st.builds(lambda src, dst, sign, n, m: Transition(
            src, dst, AffineElement(((Fraction(sign),),), (qa(n, m),))),
            st.sampled_from(ids), st.sampled_from(ids),
            st.sampled_from([1, -1]), half, coeff),
        max_size=3))
    atlas = Atlas(tuple(Chart(c, lattice, None) for c in ids),
                  tuple(transitions))
    points = draw(st.lists(
        st.builds(lambda c, n, m: NebulaPoint(c, (qa(n, m),)),
                  st.sampled_from(ids), half, coeff),
        min_size=1, max_size=4))
    return atlas, points


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=lattice_atlases(), bound=st.integers(1, 2))
def test_lattice_atlas_shares_its_searches(case, bound):
    atlas, points = case
    groupoid = StructureGroupoid(atlas)
    words = check_shared_searches(groupoid, points, bound)
    assert {key[1] for key in words} == {p.chart for p in points}
