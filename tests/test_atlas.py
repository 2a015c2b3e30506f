"""Atlases, structure groupoids, bounded point equality, the circle functor."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasifolds.atlas import (Atlas, Chart, CircleArrow, Interval,
                              QuasifoldPointHandle, StructureGroupoid,
                              Transition, _overlap_sample, build_groupoid,
                              circle_arrow_compose, circle_arrow_invert,
                              phi_arrow, phi_object)
from quasifolds.catalog import (get_atlas, get_biatlas,
                                rational_quotient_atlas,
                                reflection_orbifold_atlas, t_alpha_atlas,
                                t_alpha_duplicated_atlas, two_scale_lattice,
                                z_alpha_lattice)
from quasifolds.errors import (InconsistentTransitionError, NotComposableError,
                               QuasifoldError)
from quasifolds.exact import AffineElement, Trit, qa
from quasifolds.groupoid import Arrow, NebulaPoint, arrow_compose, arrow_invert
from quasifolds.groups import (Coset, FiniteMatrixGroup, GeneratedGroup,
                               RationalTranslations, TranslationLattice)


def pt(x, chart="main"):
    return NebulaPoint(chart, (x,))


def _fibonacci_near_tie():
    """F_144·α − F_143 ≈ −8e-31, inside the default witness's margin."""
    fib = [0, 1]
    while len(fib) <= 144:
        fib.append(fib[-1] + fib[-2])
    return qa(-fib[143], fib[144])


class TestAtlasValidation:
    def test_duplicate_chart_ids_rejected(self):
        lat = z_alpha_lattice()
        with pytest.raises(QuasifoldError):
            Atlas((Chart("c", lat, None), Chart("c", lat, None)))

    def test_dense_group_needs_global_domain(self):
        with pytest.raises(QuasifoldError):
            Chart("c", z_alpha_lattice(), (Interval(qa(0), qa(1)),))

    def test_incompatible_transition_rejected(self):
        lat = z_alpha_lattice()
        # Conjugating t_1 by x ↦ x/3 gives t_{1/3}, which escapes Z+αZ.
        bad = AffineElement.linear(((Fraction(1, 3),),))
        atlas = Atlas((Chart("a", lat, None), Chart("b", lat, None)),
                      (Transition("a", "b", bad),))
        with pytest.raises(InconsistentTransitionError):
            build_groupoid(atlas)

    @pytest.mark.parametrize("build", [build_groupoid, StructureGroupoid])
    @pytest.mark.parametrize("src_group, bad", [
        # the atlas above: t_1 conjugates by x ↦ x/3 to t_1/3 ∉ Z+αZ
        (z_alpha_lattice(), AffineElement.linear(((Fraction(1, 3),),))),
        # the identity carries t_1/2 ∈ Q to t_1/2 ∉ Z+αZ; accepted, this
        # atlas would make b:0 and b:1/2 the same point
        (RationalTranslations(1), AffineElement.identity(1)),
    ], ids=["third", "rational-into-lattice"])
    def test_every_construction_checks_transitions(self, build, src_group,
                                                   bad):
        atlas = Atlas((Chart("a", src_group, None),
                       Chart("b", z_alpha_lattice(), None)),
                      (Transition("a", "b", bad),))
        with pytest.raises(InconsistentTransitionError):
            build(atlas)

    def test_rational_chart_into_a_halved_lattice_chart_is_refused(self):
        """q → h = x ↦ −3x conjugates t_1/k ∈ Q to t_−3/k, which lies in
        ½(Z+αZ) for k = 1, 2, 3, so a sample of Q misses it; accepted, the
        atlas would make h:0 and h:3/4 the same point, though 3/4 is not
        in ½(Z+αZ)."""
        half = two_scale_lattice()
        atlas = Atlas((Chart("q", RationalTranslations(1)),
                       Chart("h", half)),
                      (Transition("q", "h",
                                  AffineElement.linear(((Fraction(-3),),))),))
        assert half.contains_value((qa(Fraction(3, 4)),)) is Trit.FALSE
        with pytest.raises(InconsistentTransitionError):
            StructureGroupoid(atlas)

    def test_identity_self_transitions_are_dropped(self):
        lat = z_alpha_lattice()
        shift = AffineElement.translation((qa(1),))
        atlas = Atlas((Chart("a", lat), Chart("b", lat)),
                      (Transition("a", "a", AffineElement.identity(1)),
                       Transition("a", "b", AffineElement.identity(1)),
                       Transition("b", "b", shift)))
        assert atlas.transitions == (
            Transition("a", "b", AffineElement.identity(1)),
            Transition("b", "b", shift))
        assert Atlas((Chart("a", lat),)).transitions == ()

    def test_builtin_atlases_build(self):
        for name in ("t-alpha", "t-alpha-duplicated", "reflection-orbifold",
                     "rational-quotient"):
            assert build_groupoid(get_atlas(name)) is not None


class TestWorkedExample:
    """The irrational-torus groupoid at τ = 0 with unit bound."""

    def setup_method(self):
        self.g = build_groupoid(t_alpha_atlas())
        self.zero = pt(qa(0))

    def test_assembly_is_the_nine_by_nine_table(self):
        report = self.g.isotropy_and_assembly(self.zero, 1)
        assert len(report.blocks) == 1
        chart, objects, arrows = report.blocks[0]
        assert chart == "main"
        expected = {qa(n, m) for n in (-1, 0, 1) for m in (-1, 0, 1)}
        assert {o[0] for o in objects} == expected
        assert len(arrows) == 81
        # brute-force cross-check of the arrow set
        got = {(a.src.coords[0], a.map.b[0]) for a in arrows}
        want = {(qa(n, m), qa(n2, m2))
                for n in (-1, 0, 1) for m in (-1, 0, 1)
                for n2 in (-1, 0, 1) for m2 in (-1, 0, 1)}
        assert got == want

    def test_fiber_over_zero(self):
        fiber = self.g.fiber_over(self.zero, 1)
        assert len(fiber) == 9
        assert all(a.trg == self.zero for a in fiber)
        sources = {a.src.coords[0] for a in fiber}
        assert sources == {qa(n, m) for n in (-1, 0, 1) for m in (-1, 0, 1)}

    def test_arrows_between(self):
        arrows = self.g.arrows_between(self.zero, pt(qa(2, 3)), 3)
        assert [a.map.b[0] for a in arrows] == [qa(2, 3)]

    def test_isotropy_is_trivial(self):
        report = self.g.isotropy_and_assembly(self.zero, 1)
        assert len(report.isotropy) == 1
        assert report.isotropy[0].is_unit


class TestBoundedEquality:
    def setup_method(self):
        self.g = build_groupoid(t_alpha_atlas())

    def test_equal_within_bound(self):
        assert self.g.same_point(pt(qa(0)), pt(qa(1, 1)), 1) is Trit.TRUE

    def test_certified_not_equal(self):
        assert self.g.same_point(pt(qa(0)), pt(qa(0, Fraction(1, 2))), 2) \
            is Trit.FALSE

    def test_unknown_beyond_bound(self):
        assert self.g.same_point(pt(qa(0)), pt(qa(30, 30)), 2) is Trit.UNKNOWN

    def test_iff_with_arrows_within_bound(self):
        # zero false positives / negatives within the bound
        cases = [(pt(qa(0)), pt(qa(1, -1)), 2),
                 (pt(qa(0)), pt(qa(0, Fraction(1, 3))), 2),
                 (pt(qa(Fraction(1, 2))), pt(qa(Fraction(5, 2), 1)), 2)]
        for x, y, bound in cases:
            has_arrow = bool(self.g.arrows_between(x, y, bound))
            status = self.g.same_point(x, y, bound)
            assert has_arrow == (status is Trit.TRUE)

    def test_handles(self):
        h0 = QuasifoldPointHandle(self.g, pt(qa(0)))
        h1 = QuasifoldPointHandle(self.g, pt(qa(3, -2)))
        assert h0.same_as(h1, 3) is Trit.TRUE
        h2 = QuasifoldPointHandle(self.g, pt(qa(Fraction(1, 5))))
        assert h0.same_as(h2, 3) is Trit.FALSE

    def test_handle_bound_zero_is_not_the_default(self):
        h0 = QuasifoldPointHandle(self.g, pt(qa(0)))
        h3 = QuasifoldPointHandle(self.g, pt(qa(3, 3)))
        assert h0.same_as(h3, 0) is Trit.UNKNOWN
        assert h0.same_as(h3, 0) is self.g.same_point(h0.point, h3.point, 0)
        assert h0.same_as(h3) is Trit.TRUE  # default bound 3


class TestDuplicatedAtlas:
    def test_cross_copy_equality_and_connections(self):
        g = build_groupoid(t_alpha_duplicated_atlas())
        a0 = NebulaPoint("a", (qa(0),))
        b0 = NebulaPoint("b", (qa(0),))
        assert g.same_point(a0, b0, 1) is Trit.TRUE
        report = g.isotropy_and_assembly(a0, 1)
        assert [(cid, len(objs), len(arrows))
                for cid, objs, arrows in report.blocks] == \
            [("a", 9, 81), ("b", 9, 81)]
        assert len(report.connections) == 1

    def test_cross_copy_not_equal_certified(self):
        g = build_groupoid(t_alpha_duplicated_atlas())
        assert g.same_point(NebulaPoint("a", (qa(0),)),
                            NebulaPoint("b", (qa(0, Fraction(1, 2)),)),
                            2) is Trit.FALSE

    def test_arrow_order_is_pinned(self):
        # discovery order and bytes of the word search, pinned across changes
        g = build_groupoid(t_alpha_duplicated_atlas())
        arrows = g.arrows_from(NebulaPoint("a", (qa(0),)), 2)
        text = "\n".join(str(a) for a in arrows)
        assert len(arrows) == 250
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == \
            "becf2d9a5e743389"


def per_state_arrows(g, v, w, bound):
    """arrows_between with one orbit decision per search state: the oracle
    for the decisions it skips."""
    group = g.atlas.chart(w.chart).group
    maps = {}
    for chart_id, m, _ in g._states_from(v, bound):
        if chart_id != w.chart:
            continue
        gamma, status = group.orbit_status(m.apply(v.coords), w.coords, bound)
        if status is Trit.TRUE:
            maps.setdefault(gamma.compose(m))
    return tuple(Arrow(v, full, w.chart) for full in maps)


def reflected_torus_atlas():
    # x ↦ −x normalises Z+αZ: words mix two linear parts and many layers
    flip = AffineElement.linear(((Fraction(-1),),))
    return Atlas((Chart("main", z_alpha_lattice()),),
                 (Transition("main", "main", flip),))


def _oracle_cases():
    # (name, groupoid, source, targets): the targets give connected,
    # certified-disconnected and, where the group admits them, beyond-bound
    # pairs
    half = Fraction(1, 2)
    duplicated, two_scale = get_biatlas("duplicated"), get_biatlas("two-scale")
    torus = [pt(qa(2, 3)), pt(qa(1, -1)), pt(qa(0, half)),
             pt(qa(Fraction(1, 5))), pt(qa(30, 30))]
    return [
        ("t-alpha", build_groupoid(t_alpha_atlas()), pt(qa(0)), torus),
        ("t-alpha-duplicated", build_groupoid(t_alpha_duplicated_atlas()),
         pt(qa(0), "a"),
         [pt(qa(1, 1), "b"), pt(qa(-1, 2), "a"), pt(qa(0, half), "b"),
          pt(qa(30), "b")]),
        ("reflection-orbifold", build_groupoid(reflection_orbifold_atlas()),
         pt(qa(1), "fold"),
         [pt(qa(-1), "fold"), pt(qa(1), "away"), pt(qa(2), "fold"),
          pt(qa(Fraction(5, 2)), "away")]),
        ("rational-quotient", build_groupoid(rational_quotient_atlas()),
         pt(qa(0)), [pt(qa(half)), pt(qa(0, 1)), pt(qa(Fraction(7, 5)))]),
        ("reflected-torus", build_groupoid(reflected_torus_atlas()),
         pt(qa(half)), [pt(qa(Fraction(-1, 2), 1)), pt(qa(Fraction(5, 2))),
                        pt(qa(0, half)), pt(qa(Fraction(61, 2), 30))]),
        ("duplicated-left", duplicated.left_groupoid(), pt(qa(0)), torus),
        ("duplicated-right", duplicated.right_groupoid(), pt(qa(0)), torus),
        ("two-scale-left", two_scale.left_groupoid(), pt(qa(0)), torus),
        ("two-scale-right", two_scale.right_groupoid(), pt(qa(0), "half"),
         [pt(qa(half, 1), "half"), pt(qa(0, Fraction(1, 3)), "half"),
          pt(qa(15), "half")]),
    ]


class TestArrowsBetweenMatchesPerStateSearch:
    @pytest.mark.parametrize("bound", [0, 1, 2, 3])
    def test_same_arrows_in_the_same_order(self, bound):
        for name, g, v, targets in _oracle_cases():
            for w in targets:
                assert g.arrows_between(v, w, bound) == \
                    per_state_arrows(g, v, w, bound), (name, str(w), bound)

    def test_cases_cover_every_verdict(self):
        for name, g, v, targets in _oracle_cases():
            verdicts = {g.same_point(v, w, 2) for w in targets}
            want = {Trit.TRUE, Trit.FALSE}
            if not isinstance(g.atlas.charts[0].group, FiniteMatrixGroup):
                want.add(Trit.UNKNOWN)
            assert verdicts == want, name


class TestOrbitDecisionCount:
    """A translation chart decides once per linear part and once per
    certified-FALSE group layer; other group kinds decide every state."""

    def _count(self, monkeypatch, g, v, w, bound):
        calls = []
        kind = type(g.atlas.chart(w.chart).group)
        original = kind.orbit_status

        def counting(self, x, y, b):
            calls.append(x)
            return original(self, x, y, b)

        monkeypatch.setattr(kind, "orbit_status", counting)
        arrows = g.arrows_between(v, w, bound)
        monkeypatch.undo()
        return arrows, len(calls)

    def _layers(self, g, v, w, bound):
        return {base for chart_id, _, base in g._states_from(v, bound)
                if chart_id == w.chart}

    def test_connected_pair_decides_once(self, monkeypatch):
        g = build_groupoid(t_alpha_atlas())
        v = pt(qa(0))
        assert len(g._states_from(v, 3)) == 49
        arrows, decisions = self._count(monkeypatch, g, v, pt(qa(2, 3)), 3)
        assert len(arrows) == 1 and decisions == 1

    def test_connected_pair_decides_once_per_linear_part(self, monkeypatch):
        g = build_groupoid(reflected_torus_atlas())
        arrows, decisions = self._count(monkeypatch, g, pt(qa(Fraction(1, 2))),
                                        pt(qa(Fraction(3, 2))), 2)
        assert [a.map.a[0][0] for a in arrows] == [1, -1]
        assert decisions == 2

    @pytest.mark.parametrize("atlas, v, w", [
        (t_alpha_atlas, pt(qa(0)), pt(qa(0, Fraction(1, 2)))),
        (t_alpha_duplicated_atlas, pt(qa(0), "a"),
         pt(qa(0, Fraction(1, 2)), "b")),
        (reflected_torus_atlas, pt(qa(Fraction(1, 2))),
         pt(qa(0, Fraction(1, 3)))),
    ])
    def test_disconnected_pair_decides_once_per_layer(self, monkeypatch,
                                                      atlas, v, w):
        g = build_groupoid(atlas())
        for bound in (1, 3):
            arrows, decisions = self._count(monkeypatch, g, v, w, bound)
            assert arrows == ()
            assert decisions == len(self._layers(g, v, w, bound))
        assert g.same_point(v, w, 1) is Trit.FALSE

    @pytest.mark.parametrize("w", [pt(qa(-1), "fold"), pt(qa(2), "fold")])
    def test_finite_group_decides_every_state(self, monkeypatch, w):
        g = build_groupoid(reflection_orbifold_atlas())
        v = pt(qa(1), "fold")
        _, decisions = self._count(monkeypatch, g, v, w, 2)
        assert decisions == sum(chart_id == w.chart
                                for chart_id, _, _ in g._states_from(v, 2))


class TestUncertifiableSamePoint:
    """Where no coset certificate exists, absence is UNKNOWN, never FALSE."""

    def test_generated_group_chart(self):
        shift = AffineElement.translation((qa(1),))
        g = build_groupoid(Atlas((Chart("main", GeneratedGroup((shift,))),)))
        assert g.same_point(pt(qa(0)), pt(qa(Fraction(1, 2))), 2) \
            is Trit.UNKNOWN
        assert g.same_point(pt(qa(0)), pt(qa(1)), 2) is Trit.TRUE
        assert g._reachable_cosets(pt(qa(0))) is None

    def test_coset_walk_that_never_closes(self):
        # x ↦ 2x and its inverse keep adding generators 2^k: the walk does
        # not close within ROUTE_CAP, so 1/3 (not dyadic) stays UNKNOWN
        doubling = AffineElement.linear(((Fraction(2),),))
        g = build_groupoid(Atlas(
            (Chart("main", TranslationLattice(((qa(1),),))),),
            (Transition("main", "main", doubling),)))
        assert g._reachable_cosets(pt(qa(0))) is None
        assert g.same_point(pt(qa(0)), pt(qa(Fraction(1, 3))), 1) \
            is Trit.UNKNOWN
        assert g.same_point(pt(qa(0)), pt(qa(Fraction(1, 2))), 1) is Trit.TRUE


class TestReflectionOrbifold:
    def setup_method(self):
        self.g = build_groupoid(reflection_orbifold_atlas())

    def test_isotropy_at_fixed_point(self):
        report = self.g.isotropy_and_assembly(NebulaPoint("fold", (qa(0),)), 1)
        assert len(report.isotropy) == 2

    def test_reflection_identifies_mirror_points(self):
        one = NebulaPoint("fold", (qa(1),))
        minus = NebulaPoint("fold", (qa(-1),))
        assert self.g.same_point(one, minus, 1) is Trit.TRUE
        assert self.g.same_point(one, NebulaPoint("fold", (qa(2),)), 2) \
            is Trit.FALSE

    def test_cross_chart_equality(self):
        assert self.g.same_point(NebulaPoint("fold", (qa(1),)),
                                 NebulaPoint("away", (qa(1),)), 2) is Trit.TRUE

    def test_domain_respected(self):
        with pytest.raises(QuasifoldError):
            self.g.require_point(NebulaPoint("away", (qa(0),)))


class TestRationalQuotient:
    def test_dense_orbit_decisions(self):
        g = build_groupoid(rational_quotient_atlas())
        x = NebulaPoint("main", (qa(0),))
        assert g.same_point(x, NebulaPoint("main", (qa(Fraction(1, 2)),)), 2) \
            is Trit.TRUE
        assert g.same_point(x, NebulaPoint("main", (qa(0, 1),)), 3) \
            is Trit.FALSE


class TestMixedRationalLatticeCoset:
    """A coset ℚᵐ + ℤ-span(gens) contains d exactly when d's α-part lies in
    the ℤ-span of the generators' α-parts."""

    def setup_method(self):
        atlas = Atlas((Chart("q", RationalTranslations(1)),
                       Chart("z", TranslationLattice(((qa(1),),)))),
                      (Transition("z", "q", AffineElement.identity(1)),))
        self.g = build_groupoid(atlas)

    def test_irrational_offsets_are_certified_false(self):
        for v, w in ((pt(qa(0), "z"), pt(qa(0, 1), "z")),
                     (pt(qa(0), "q"), pt(qa(0, 1), "q")),
                     (pt(qa(0), "z"), pt(qa(3, 1), "q"))):
            assert self.g.same_point(v, w, 2) is Trit.FALSE

    def test_reachable_points_are_never_false(self):
        assert self.g.same_point(pt(qa(0), "z"), pt(qa(Fraction(1, 2)), "z"),
                                 2) is Trit.TRUE
        # reachable through ℚ, but not within bound 2
        assert self.g.same_point(pt(qa(0, 1), "z"),
                                 pt(qa(Fraction(1, 3), 1), "q"), 2) \
            is Trit.UNKNOWN

    def test_generators_with_alpha_parts(self):
        coset = Coset((qa(0),), ((qa(1, 1),), (qa(0, 2),)), True)
        assert coset.contains_point((qa(Fraction(1, 2), 1),)) is True
        assert coset.contains_point((qa(Fraction(-5, 3), 3),)) is True
        assert coset.contains_point((qa(7),)) is True
        assert coset.contains_point((qa(0, Fraction(1, 2)),)) is False


coeff = st.integers(min_value=-3, max_value=3)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


class TestGroupoidLaws:
    @given(n1=coeff, m1=coeff, n2=coeff, m2=coeff, xn=coeff, xm=coeff)
    @settings(max_examples=60, deadline=None)
    def test_composition_matches_index_addition(self, n1, m1, n2, m2, xn, xm):
        x = qa(xn, xm)
        a = Arrow(pt(x), AffineElement.translation((qa(n1, m1),)), "main")
        b = Arrow(a.trg, AffineElement.translation((qa(n2, m2),)), "main")
        c = arrow_compose(a, b)
        assert c.map.b[0] == qa(n1 + n2, m1 + m2)

    @given(n=coeff, m=coeff)
    @settings(max_examples=40, deadline=None)
    def test_fiber_arrows_compose_into_fiber(self, n, m):
        g = build_groupoid(t_alpha_atlas())
        fiber = g.fiber_over(pt(qa(n, m)), 1)
        for a in fiber[:3]:
            for b in g.fiber_over(a.src, 1)[:3]:
                combined = arrow_compose(b, a)
                assert combined.trg == pt(qa(n, m))


class TestCircleFunctor:
    def test_phi_on_objects_is_mod_one(self):
        assert phi_object(qa(Fraction(5, 2), -3)) == qa(Fraction(1, 2), -3)

    def test_phi_absorbs_integer_translations(self):
        a = Arrow(pt(qa(0)), AffineElement.translation((qa(4, 0),)), "main")
        ca = phi_arrow(a)
        assert ca.rot == qa(0, 0)

    def test_phi_is_functorial(self):
        a = Arrow(pt(qa(0)), AffineElement.translation((qa(1, 2),)), "main")
        b = Arrow(a.trg, AffineElement.translation((qa(-2, 1),)), "main")
        lhs = phi_arrow(arrow_compose(a, b))
        rhs = circle_arrow_compose(phi_arrow(a), phi_arrow(b))
        assert lhs == rhs

    @given(x=rationals, y=rationals, t=rationals, u=rationals)
    @settings(max_examples=60, deadline=None)
    def test_phi_commutes_with_inversion(self, x, y, t, u):
        a = Arrow(pt(qa(x, y)), AffineElement.translation((qa(t, u),)), "main")
        assert phi_arrow(arrow_invert(a)) == circle_arrow_invert(phi_arrow(a))

    @given(x=rationals, y=rationals, t=rationals, u=rationals)
    @settings(max_examples=60, deadline=None)
    def test_an_arrow_times_its_inverse_is_the_unit(self, x, y, t, u):
        c = CircleArrow(qa(x, y), qa(t, u))
        unit = circle_arrow_compose(c, circle_arrow_invert(c))
        assert unit.src == c.src and unit.rot == qa(0)

    def test_circle_arrows_compose_only_at_matching_points(self):
        u = CircleArrow(qa(0), qa(0, 1))
        v = CircleArrow(qa(Fraction(1, 2)), qa(0, 1))
        with pytest.raises(NotComposableError):
            circle_arrow_compose(u, v)


class TestHalfBoundedOverlap:
    """A transition is refused when no sample point of its source domain
    lands in its target domain.  The midpoint and quarter points of the
    source domain are tried first (on a half-bounded side, the interval's
    midpoint, one unit inside its finite end); when they all miss and the
    map's linear part is diagonal, the midpoint of the exact overlap box
    dom(src) ∩ m⁻¹(dom(dst))."""

    TRIVIAL = FiniteMatrixGroup((AffineElement.identity(1),))

    def test_midpoint_of_half_bounded_intervals(self):
        assert Interval(lo=qa(0)).midpoint() == qa(1)
        assert Interval(hi=qa(0)).midpoint() == qa(-1)

    def atlas(self, dst_domain, m=AffineElement.identity(1),
              src_domain=Interval(lo=qa(0))):
        return Atlas((Chart("right", self.TRIVIAL, (src_domain,)),
                      Chart("left", self.TRIVIAL, (dst_domain,))),
                     (Transition("right", "left", m),))

    def test_empty_overlap_sample_is_refused(self):
        with pytest.raises(InconsistentTransitionError,
                           match="empty overlap sample"):
            StructureGroupoid(self.atlas(Interval(hi=qa(0))))

    def test_sample_inside_the_target_is_accepted(self):
        StructureGroupoid(self.atlas(Interval(lo=qa(Fraction(1, 2)))))

    def test_overlap_within_one_unit_of_the_end_is_found(self):
        # (0, ∞) ∩ (−∞, 1): every domain sample is 1, on the target's end
        StructureGroupoid(self.atlas(Interval(hi=qa(1))))
        assert _overlap_sample(
            Chart("right", self.TRIVIAL, (Interval(lo=qa(0)),)),
            Chart("left", self.TRIVIAL, (Interval(hi=qa(1)),)),
            AffineElement.identity(1)) == (qa(Fraction(1, 2)),)

    def test_reflection_into_a_half_line_is_found(self):
        # x ↦ −x carries (0, ½) into (−½, ∞); the domain sample 1 goes to −1
        StructureGroupoid(self.atlas(Interval(lo=qa(Fraction(-1, 2))),
                                     AffineElement.linear([[-1]])))

    def test_near_tie_counts_as_no_sample(self):
        # the box is (0, x) with x ≈ −8e-31: its midpoint cannot be placed
        # against 0, and the transition is refused, not left to raise
        x = _fibonacci_near_tie()
        with pytest.raises(InconsistentTransitionError,
                           match="empty overlap sample"):
            StructureGroupoid(self.atlas(Interval(hi=x)))

    def test_diagonal_map_in_two_dimensions(self):
        trivial = FiniteMatrixGroup((AffineElement.identity(2),))
        right = (Interval(lo=qa(0)), Interval(lo=qa(0)))
        m = AffineElement(((2, 0), (0, -1)), (qa(0), qa(3)))
        # image of (0, ∞)² is (0, ∞) × (−∞, 3); the target asks for
        # (−∞, 1) × (2.5, ∞), so the overlap is (0, ½) × (0, ½)
        left = (Interval(hi=qa(1)), Interval(lo=qa(Fraction(5, 2))))
        atlas = Atlas((Chart("right", trivial, right),
                       Chart("left", trivial, left)),
                      (Transition("right", "left", m),))
        StructureGroupoid(atlas)
        assert _overlap_sample(atlas.chart("right"), atlas.chart("left"),
                               m) == (qa(Fraction(1, 4)), qa(Fraction(1, 4)))

    ends = st.one_of(st.none(), st.fractions(-4, 4, max_denominator=4))

    @settings(max_examples=150, deadline=None)
    @given(ends, ends, ends, ends,
           st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                            Fraction(-1, 3)]),
           st.fractions(-3, 3, max_denominator=3))
    def test_builds_exactly_when_the_overlap_is_nonempty(
            self, lo, hi, dlo, dhi, s, b):
        if lo is not None and hi is not None and lo >= hi:
            lo = None
        if dlo is not None and dhi is not None and dlo >= dhi:
            dhi = None
        # the image of (lo, hi) under x ↦ s·x + b, met with (dlo, dhi)
        img = [None if e is None else s * e + b for e in (lo, hi)]
        if s < 0:
            img.reverse()
        low = max((e for e in (img[0], dlo) if e is not None), default=None)
        high = min((e for e in (img[1], dhi) if e is not None), default=None)
        nonempty = low is None or high is None or low < high
        atlas = self.atlas(Interval(*(None if e is None else qa(e)
                                      for e in (dlo, dhi))),
                           AffineElement(((s,),), (qa(b),)),
                           Interval(*(None if e is None else qa(e)
                                      for e in (lo, hi))))
        if nonempty:
            StructureGroupoid(atlas)
        else:
            with pytest.raises(InconsistentTransitionError,
                               match="empty overlap sample"):
                StructureGroupoid(atlas)
