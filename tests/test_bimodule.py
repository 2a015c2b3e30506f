"""Tests for linking germs between two atlases of one quasifold: the
two-sided groupoid actions, the class map, quotient witnesses, and the
bounded germ generator."""

from fractions import Fraction

import pytest

from quasifolds.bimodule import (BiAtlas, LinkingGerm, class_map,
                                 generate_germs, invert_germ, left_act,
                                 quotient_witness, quotient_witness_right,
                                 right_act, source_probe, surjectivity_probe)
from quasifolds.catalog import (duplicated_biatlas, get_biatlas,
                                t_alpha_atlas, two_scale_atlas,
                                two_scale_biatlas)
from quasifolds.errors import (InconsistentTransitionError, NotComposableError,
                               QuasifoldError)
from quasifolds.exact import AffineElement, qa
from quasifolds.groupoid import Arrow, NebulaPoint, arrow_compose, arrow_invert


def pt(x, chart="main"):
    return NebulaPoint(chart, (x,))


def t(x):
    return AffineElement.translation((x,))


def arrow_into(x, target, chart="main"):
    """Arrow from x to target by the unique connecting translation."""
    return Arrow(pt(x, chart), t(target - x), chart)


class TestLinkingGerm:
    def test_target_applies_the_map(self):
        z = LinkingGerm(pt(qa(1, 1)), t(qa(-1)), "main")
        assert z.trg == pt(qa(0, 1))

    def test_json_round_trip(self):
        z = LinkingGerm(pt(qa(0)), AffineElement(((Fraction(1, 2),),), (qa(0),)),
                        "half")
        assert LinkingGerm.from_json(z.to_json()) == z

    def test_str_mentions_both_ends(self):
        z = LinkingGerm(pt(qa(0)), t(qa(1)), "other")
        assert "other" in str(z)


class TestBiAtlasConstruction:
    def test_builtin_biatlases_build(self):
        for name in ("duplicated", "two-scale"):
            assert get_biatlas(name) is not None

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_biatlas("no-such")

    def test_needs_a_seed(self):
        with pytest.raises(QuasifoldError):
            BiAtlas(t_alpha_atlas(), t_alpha_atlas(), ())

    def test_incompatible_seed_rejected(self):
        # Conjugating t_1 by x ↦ x/3 gives t_{1/3} ∉ Z + αZ.
        third = AffineElement(((Fraction(1, 3),),), (qa(0),))
        seed = LinkingGerm(pt(qa(0)), third, "main")
        with pytest.raises(InconsistentTransitionError):
            BiAtlas(t_alpha_atlas(), t_alpha_atlas(), (seed,))

    def test_halving_needs_the_half_scale_chart(self):
        halve = AffineElement(((Fraction(1, 2),),), (qa(0),))
        seed = LinkingGerm(pt(qa(0)), halve, "main")
        # Into the plain T_α atlas the conjugate t_{1/2} escapes the group…
        with pytest.raises(InconsistentTransitionError):
            BiAtlas(t_alpha_atlas(), t_alpha_atlas(), (seed,))
        # …but into the half-scale chart it is accepted.
        ok = BiAtlas(t_alpha_atlas(), two_scale_atlas(),
                     (LinkingGerm(pt(qa(0)), halve, "half"),))
        assert ok.seeds[0].dst_chart == "half"

    def test_inverse_swaps_sides(self):
        bi = two_scale_biatlas()
        inv = bi.inverse()
        assert inv.seeds[0].src.chart == "half"
        assert inv.seeds[0].dst_chart == "main"
        back = inv.inverse()
        assert back.seeds == bi.seeds


class TestActions:
    def setup_method(self):
        self.bi = duplicated_biatlas()
        self.z = self.bi.seeds[0]

    def test_left_unit_law(self):
        assert left_act(Arrow.unit(self.z.src), self.z) == self.z

    def test_right_unit_law(self):
        assert right_act(self.z, Arrow.unit(self.z.trg)) == self.z

    def test_left_action_moves_source(self):
        g = arrow_into(qa(1, 1), qa(0))
        moved = left_act(g, self.z)
        assert moved.src == pt(qa(1, 1))
        assert moved.trg == self.z.trg  # class untouched

    def test_right_action_moves_class(self):
        gp = arrow_into(qa(0), qa(0, 1))
        moved = right_act(self.z, gp)
        assert moved.src == self.z.src
        assert class_map(moved) == pt(qa(0, 1))

    def test_left_action_is_associative(self):
        g = arrow_into(qa(1), qa(0))            # 1 → 0
        h = arrow_into(qa(1, 1), qa(1))         # 1+α → 1
        lhs = left_act(h, left_act(g, self.z))
        rhs = left_act(arrow_compose(h, g), self.z)
        assert lhs == rhs

    def test_right_action_is_associative(self):
        gp = arrow_into(qa(0), qa(0, 1))        # 0 → α
        gq = arrow_into(qa(0, 1), qa(1, 1))     # α → 1+α
        lhs = right_act(right_act(self.z, gp), gq)
        rhs = right_act(self.z, arrow_compose(gp, gq))
        assert lhs == rhs

    def test_actions_commute(self):
        g = arrow_into(qa(2), qa(0))
        gp = arrow_into(qa(0), qa(0, -1))
        lhs = left_act(g, right_act(self.z, gp))
        rhs = right_act(left_act(g, self.z), gp)
        assert lhs == rhs

    def test_left_endpoint_mismatch(self):
        g = arrow_into(qa(1), qa(2))  # lands at 2, not at src(z) = 0
        with pytest.raises(NotComposableError):
            left_act(g, self.z)

    def test_right_endpoint_mismatch(self):
        gp = arrow_into(qa(1), qa(0))  # departs from 1, not from trg(z) = 0
        with pytest.raises(NotComposableError):
            right_act(self.z, gp)

    def test_inverse_symmetry(self):
        g = arrow_into(qa(1, -1), qa(0))
        lhs = invert_germ(left_act(g, self.z))
        rhs = right_act(invert_germ(self.z), arrow_invert(g))
        assert lhs == rhs

    def test_invert_is_involutive(self):
        z = left_act(arrow_into(qa(2, 1), qa(0)), self.z)
        assert invert_germ(invert_germ(z)) == z
        assert invert_germ(z).src == z.trg
        assert invert_germ(z).trg == z.src


class TestQuotientWitness:
    def setup_method(self):
        self.bi = duplicated_biatlas()
        self.z = self.bi.seeds[0]

    def test_left_related_germs_are_witnessed(self):
        zp = left_act(arrow_into(qa(1, 1), qa(0)), self.z)
        g, cert = quotient_witness(self.bi, self.z, zp, bound=2)
        assert cert == "constructed"
        assert left_act(g, self.z) == zp

    def test_classes_differ(self):
        zp = right_act(self.z, arrow_into(qa(0), qa(0, 1)))
        g, cert = quotient_witness(self.bi, self.z, zp, bound=2)
        assert g is None and cert == "classes-differ"

    def test_inconclusive_at_small_bound(self):
        zp = left_act(arrow_into(qa(5, 5), qa(0)), self.z)
        g, cert = quotient_witness(self.bi, self.z, zp, bound=2)
        assert g is None and cert == "inconclusive-at-bound"
        g, cert = quotient_witness(self.bi, self.z, zp, bound=10)
        assert cert == "constructed" and left_act(g, self.z) == zp

    def test_right_witness(self):
        zp = right_act(self.z, arrow_into(qa(0), qa(1)))
        gp, cert = quotient_witness_right(self.bi, self.z, zp, bound=2)
        assert cert == "constructed"
        assert right_act(self.z, gp) == zp

    def test_right_witness_sources_differ(self):
        zp = left_act(arrow_into(qa(1), qa(0)), self.z)
        gp, cert = quotient_witness_right(self.bi, self.z, zp, bound=2)
        assert gp is None and cert == "sources-differ"

    def test_two_scale_witness(self):
        bi = two_scale_biatlas()
        z = bi.seeds[0]
        zp = left_act(arrow_into(qa(1), qa(0)), z)
        g, cert = quotient_witness(bi, z, zp, bound=2)
        assert cert == "constructed"
        assert left_act(g, z) == zp


class TestProbes:
    def test_surjectivity_probe_hits_requested_class(self):
        bi = duplicated_biatlas()
        target = pt(qa(1, 1))
        z = surjectivity_probe(bi, target, bound=3)
        assert z is not None
        assert class_map(z) == target

    def test_surjectivity_probe_out_of_reach(self):
        bi = duplicated_biatlas()
        assert surjectivity_probe(bi, pt(qa(7, 7)), bound=1) is None

    def test_source_probe_hits_requested_source(self):
        bi = duplicated_biatlas()
        z = source_probe(bi, pt(qa(0, -1)), bound=2)
        assert z is not None
        assert z.src == pt(qa(0, -1))

    def test_two_scale_probe(self):
        bi = two_scale_biatlas()
        target = NebulaPoint("half", (qa(Fraction(1, 2)),))
        z = surjectivity_probe(bi, target, bound=2)
        assert z is not None
        assert class_map(z) == target


class TestGenerateGerms:
    def test_word_length_one_inventory(self):
        bi = duplicated_biatlas()
        germs = generate_germs(bi, word_length=1)
        # 9 left words t_{n+αm}, |n|,|m| ≤ 1, × 9 right words, all distinct.
        assert len(germs) == 81
        keys = {(z.src, z.map, z.dst_chart) for z in germs}
        assert len(keys) == 81

    def test_germs_compose_back_to_seed_class_relations(self):
        bi = duplicated_biatlas()
        seed = bi.seeds[0]
        for z in generate_germs(bi, word_length=1):
            if z.src == seed.src:
                gp, cert = quotient_witness_right(bi, seed, z, bound=2)
                assert cert == "constructed"

    def test_cap_enforced(self):
        bi = duplicated_biatlas()
        with pytest.raises(QuasifoldError):
            generate_germs(bi, word_length=2, max_count=10)

    def test_two_scale_germs_are_valid(self):
        bi = two_scale_biatlas()
        for z in generate_germs(bi, word_length=1):
            assert z.dst_chart == "half"
            assert z.trg == class_map(z)


def test_source_probe_falls_back_to_arrows_between():
    """On the duplicated bi-atlas at bound 1 no arrow of the seed's fiber
    starts at main:2, so the germ comes from `arrows_between(point, seed
    source)`, the probe's second route."""
    bi = duplicated_biatlas()
    point = pt(qa(2))
    (seed,) = bi.seeds
    assert not [g for g in bi.left_groupoid().fiber_over(seed.src, 1)
                if g.src == point]
    z = source_probe(bi, point, bound=1)
    assert str(z) == "main:(2) =t[-2]=> main"
    assert z.src == point and z.trg == seed.trg
