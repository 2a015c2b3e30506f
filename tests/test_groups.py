"""Countable affine group presentations and their bounded enumeration."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasifolds import groups
from quasifolds.errors import (DimensionMismatchError, EnumerationCapError,
                               InconsistentTransitionError, QuasifoldError)
from quasifolds.exact import AffineElement, QAlpha, Trit, qa, solve_linear
from quasifolds.groups import (FiniteMatrixGroup, GeneratedGroup,
                               RationalTranslations, TranslationLattice,
                               enumerate_group, membership_status,
                               orbit_witness, require_intertwines)


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


# -- an oracle for lattice membership that shares no code with the basis --

def _generator_system(gens, d):
    """Σ_i c_i·g_i = d as rational equations in the c_i: the p-part of each
    coordinate gives a row, then the q-part of each."""
    n = len(d)
    rows = ([[g[j].p for g in gens] for j in range(n)]
            + [[g[j].q for g in gens] for j in range(n)])
    return rows, [v.p for v in d] + [v.q for v in d]


def _det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:]
                                           for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def _divisors(rows):
    """(rank, gcd of the rank×rank minors) of an integer matrix."""
    for r in range(min(len(rows), len(rows[0])), 0, -1):
        minors = [_det([[rows[i][j] for j in cols] for i in sub])
                  for sub in itertools.combinations(range(len(rows)), r)
                  for cols in itertools.combinations(range(len(rows[0])), r)]
        if any(minors):
            return r, math.gcd(*minors)
    return 0, 1


def _as_integer_rows(vectors):
    vecs = [[v.p for v in vec] + [v.q for v in vec] for vec in vectors]
    den = math.lcm(*[x.denominator for vec in vecs for x in vec])
    return [[int(x * den) for x in vec] for vec in vecs]


def oracle_contains(gens, d) -> Trit:
    """The generator system solved over Q; when the generators are dependent,
    d is in the lattice iff adding it keeps the rank and the gcd of the
    rank-size minors (the lattice index over that gcd is 1)."""
    status, sol = solve_linear(*_generator_system(gens, d))
    if status == "none":
        return Trit.FALSE
    if status == "unique":
        return Trit.TRUE if all(c.denominator == 1 for c in sol) else Trit.FALSE
    rows = _as_integer_rows(list(gens) + [d])
    same = _divisors(rows[:-1]) == _divisors(rows)
    return Trit.TRUE if same else Trit.FALSE


def brute_force_witnesses(gens, d, bound):
    """Every coefficient tuple within the bound that recombines to d."""
    out = []
    for tup in itertools.product(range(-bound, bound + 1), repeat=len(gens)):
        vec = tuple(sum((g[j].scale(c) for c, g in zip(tup, gens)), QAlpha())
                    for j in range(len(d)))
        if vec == tuple(d):
            out.append(list(tup))
    return out


_small = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
_value = st.builds(QAlpha, _small, _small)


@st.composite
def lattice_queries(draw):
    n = draw(st.integers(1, 2))
    k = draw(st.integers(1, 4))
    gens = []
    for _ in range(k):
        kind = draw(st.sampled_from(("free", "free", "zero", "dependent")))
        if kind == "zero":
            gens.append(tuple(QAlpha() for _ in range(n)))
        elif kind == "dependent" and gens:
            # an integer or half-integer combination of earlier generators
            cs = draw(st.lists(st.sampled_from((Fraction(1, 2), -1, 1, 2)),
                               min_size=len(gens), max_size=len(gens)))
            gens.append(tuple(sum((g[j].scale(c) for c, g in zip(cs, gens)),
                                  QAlpha()) for j in range(n)))
        else:
            gens.append(tuple(draw(_value) for _ in range(n)))
    # a lattice point, a point of the Q-span off the lattice (perhaps), a
    # nudged lattice point, or any vector
    cs = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
    mode = draw(st.sampled_from(("in", "fraction", "nudge", "any")))
    if mode == "fraction":
        cs[draw(st.integers(0, k - 1))] += draw(
            st.sampled_from((Fraction(1, 2), Fraction(-1, 3))))
    d = tuple(sum((g[j].scale(c) for c, g in zip(cs, gens)), QAlpha())
              for j in range(n))
    if mode == "nudge":
        d = tuple(v + draw(_value) for v in d)
    elif mode == "any":
        d = tuple(draw(_value) for _ in range(n))
    return tuple(gens), d, draw(st.integers(0, 2))


class TestLatticeBasisAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(lattice_queries())
    def test_contains_membership_and_density(self, case):
        gens, d, bound = case
        lat = TranslationLattice(gens)
        expected = oracle_contains(gens, d)
        assert lat.contains_value(d) is expected
        assert lat.is_dense == (_divisors(_as_integer_rows(gens))[0]
                                > len(d))
        coords, status = lat.membership(d, bound)
        if expected is Trit.FALSE:
            assert (coords, status) == (None, Trit.FALSE)
            return
        witnesses = brute_force_witnesses(gens, d, bound)
        if status is Trit.TRUE:
            assert coords in witnesses
        else:
            assert (coords, status) == (None, Trit.UNKNOWN)
            assert witnesses == []
        status_q, sol = solve_linear(*_generator_system(gens, d))
        if status_q == "unique":
            # independent generators: the coordinates are the unique solution
            assert (status is Trit.TRUE) == (max(map(abs, sol)) <= bound)
        else:
            assert (status is Trit.TRUE) == bool(witnesses)


@st.composite
def lattices_and_values(draw):
    """A lattice of rank 1–3 in dimension 1 or 2 (zero and repeated
    generators allowed), an enumeration bound and a few vectors."""
    n = draw(st.integers(1, 2))
    vector = st.tuples(*[_value] * n)
    gens = draw(st.lists(st.one_of(vector, st.just((QAlpha(),) * n)),
                         min_size=1, max_size=3))
    if len(gens) < 3 and draw(st.booleans()):
        gens.append(gens[0])
    return (TranslationLattice(tuple(gens)), draw(st.integers(0, 2)),
            draw(st.lists(vector, max_size=4)))


class TestLatticeSoundness:
    @settings(max_examples=150, deadline=None)
    @given(lattices_and_values())
    def test_enumeration_membership_and_certified_false_agree(self, case):
        lat, bound, drawn = case
        elems = lat.enumerate(bound)
        for g in elems:
            assert g.is_translation
            assert lat.contains_value(g.b) is Trit.TRUE
            coords, status = lat.membership(g.b, bound)
            assert status is Trit.TRUE
            assert tuple(sum((v[j].scale(c) for c, v in
                              zip(coords, lat.generators)), QAlpha())
                         for j in range(lat.dimension)) == g.b
            assert brute_force_witnesses(lat.generators, g.b, bound)
        translations = {g.b for g in elems}
        for d in drawn:
            if lat.contains_value(d) is Trit.FALSE:
                assert d not in translations
                assert brute_force_witnesses(lat.generators, d, 2) == []


class TestLatticeBasisIsCached:
    def test_one_basis_and_one_solve_per_query(self, monkeypatch):
        solves, bases = [], []
        solve, z_basis = groups.solve_linear, groups._z_basis
        monkeypatch.setattr(groups, "solve_linear",
                            lambda *a: solves.append(1) or solve(*a))
        monkeypatch.setattr(groups, "_z_basis",
                            lambda v: bases.append(1) or z_basis(v))
        dep = TranslationLattice(((qa(2),), (qa(3),), (qa(0, 1),)))
        assert dep.is_dense
        assert (len(bases), len(solves)) == (1, 0)  # the basis needs no solve
        for i, d in enumerate(((qa(1),), (qa(Fraction(1, 2)),), (qa(4, -1),))):
            dep.contains_value(d)
            assert len(solves) == 2 * i + 1
            dep.membership(d, 2)
            assert len(solves) == 2 * i + 2
        dep.orbit_status((qa(0),), (qa(1, 1),), 2)
        assert (len(bases), len(solves)) == (1, 7)

    def test_dimension_is_checked(self):
        with pytest.raises(DimensionMismatchError):
            zalpha().contains_value((qa(1), qa(0)))

    def test_refuses_dimension_zero(self):
        with pytest.raises(DimensionMismatchError):
            TranslationLattice(((),))


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

    @pytest.mark.parametrize("dimension", [0, -1, 2.7, "2", True, None])
    def test_refuses_a_dimension_that_is_not_a_positive_int(self, dimension):
        with pytest.raises(QuasifoldError):
            RationalTranslations(dimension)

    def test_refuses_a_dimension_whose_square_passes_the_size_cap(self):
        largest = math.isqrt(groups.SIZE_CAP)
        assert RationalTranslations(largest).dimension == largest
        for d in (largest + 1, 10 ** 9):
            with pytest.raises(QuasifoldError, match="size cap"):
                RationalTranslations(d)

    @pytest.mark.parametrize("bound", [1, 2])
    def test_estimate_of_a_large_dimension_is_refused(self, bound):
        with pytest.raises(EnumerationCapError):
            RationalTranslations(math.isqrt(groups.SIZE_CAP)).enumerate(bound)


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


# ---------------------------------------------------------------------------
# the intertwining spot-check shared by transitions and linking seeds
# ---------------------------------------------------------------------------

INTERTWINING_GROUPS = {
    "Z+aZ": zalpha(),
    "half(Z+aZ)": TranslationLattice(((qa(Fraction(1, 2)),),
                                      (qa(0, Fraction(1, 2)),))),
    "Z": TranslationLattice(((qa(1),),)),
    "dependent": TranslationLattice(((qa(1),), (qa(0, 1),), (qa(1, 1),))),
    "Q": RationalTranslations(1),
    "reflection": FiniteMatrixGroup((AffineElement.identity(1),
                                     AffineElement.linear(((Fraction(-1),),)))),
    "trivial": FiniteMatrixGroup((AffineElement.identity(1),)),
    "<t1>": GeneratedGroup((AffineElement.translation((qa(1),)),)),
}
MAPS = [AffineElement(((Fraction(a),),), (b,))
        for a in (1, -1, 2, Fraction(1, 2), Fraction(1, 3), -3)
        for b in (qa(0), qa(0, 1), qa(Fraction(1, 2)))]


def _raises(check) -> bool:
    try:
        check()
    except InconsistentTransitionError:
        return True
    return False


def _enumerated_check(m, src, dst):
    """The earlier transition check, kept as an oracle: conjugate every
    element of src.enumerate(1), ask membership at bound 4, raise on FALSE."""
    inv = m.invert()
    for gamma in src.enumerate(1):
        if membership_status(dst, m.compose(gamma).compose(inv),
                             4) is Trit.FALSE:
            raise InconsistentTransitionError(f"{gamma} escapes")


def test_intertwining_check_agrees_with_the_enumerated_check():
    """The check refuses whatever the enumerated check refuses.  It differs
    only where the source is Q: Q passes into Q alone, while the enumerated
    check sees only Q's height-1 elements t_0, t_±1, which can conjugate
    into a lattice and never leave the bounded search of <t1>."""
    cases = differences = 0
    for (src_name, src), (dst_name, dst), m in itertools.product(
            INTERTWINING_GROUPS.items(), INTERTWINING_GROUPS.items(), MAPS):
        new = _raises(lambda: require_intertwines(m, src, dst, "map"))
        old = _raises(lambda: _enumerated_check(m, src, dst))
        cases += 1
        assert new or not old, (src_name, dst_name, m)
        if src_name == "Q":
            assert new == (dst_name != "Q"), (dst_name, m)
        else:
            assert new == old, (src_name, dst_name, m)
        differences += new != old
    assert cases == 1152
    # Q into a lattice: 12 maps of 18 conjugate t_±1 into each lattice but
    # half(Z+aZ), which takes 15; Q into <t1>: all 18
    assert differences == 3 * 12 + 15 + 18


# each rule of require_intertwines against brute-force enumeration: the
# generated sources add an infinite dihedral group and a finite group given
# by a generator
BRUTE_SOURCES = dict(INTERTWINING_GROUPS, **{
    "<t1, -x>": GeneratedGroup((AffineElement.translation((qa(1),)),
                                AffineElement.linear(((Fraction(-1),),)))),
    "<1-x>": GeneratedGroup((AffineElement(((Fraction(-1),),), (qa(1),)),)),
    "<ta>": GeneratedGroup((AffineElement.translation((qa(0, 1),)),)),
})
# elements of each source kind that the brute force conjugates: every
# element of a finite group, short words or lattice combinations, and the
# rationals of height at most 6 for Q (denominators no map scale clears)
SOURCE_BOUND = {TranslationLattice: 1, FiniteMatrixGroup: 0,
                GeneratedGroup: 2, RationalTranslations: 6}
# targets enumerated far enough that every conjugate met below with small
# coefficients is found when it is a member: |coefficient| <= 12 in each
# generator, heights up to 18, words of up to 8 letters
TARGET_BOUND = {TranslationLattice: 12, FiniteMatrixGroup: 0,
                GeneratedGroup: 8, RationalTranslations: 18}


def _kind(group) -> str:
    return type(group).__name__


def test_intertwining_rules_against_brute_force():
    """For every (source kind, target kind) pair: the check refuses exactly
    when some enumerated source element conjugates outside the enumerated
    target, except where the rule says otherwise —

    * a Q source is refused by every target but Q, although its enumerated
      elements of bounded height may all conjugate into a lattice;
    * a generated target certifies no FALSE, so it refuses only a Q source
      (a brute-force escape from it is not a certificate);
    * a source kind with no sample passes unchecked.
    """
    members = {name: set(g.enumerate(TARGET_BOUND[type(g)]))
               for name, g in BRUTE_SOURCES.items()}
    outcomes = {}
    for (src_name, src), (dst_name, dst), m in itertools.product(
            BRUTE_SOURCES.items(), BRUTE_SOURCES.items(), MAPS):
        inv = m.invert()
        escapes = [g for g in src.enumerate(SOURCE_BOUND[type(src)])
                   if m.compose(g).compose(inv) not in members[dst_name]]
        refused = _raises(lambda: require_intertwines(m, src, dst, "map"))
        if isinstance(src, RationalTranslations):
            want = not isinstance(dst, RationalTranslations)
        elif isinstance(dst, GeneratedGroup):
            want = False
        else:
            want = bool(escapes)
        assert refused == want, (src_name, dst_name, m)
        assert escapes or not refused, (src_name, dst_name, m)  # sound
        outcomes.setdefault((_kind(src), _kind(dst)), set()).add(refused)
    kinds = {_kind(g) for g in BRUTE_SOURCES.values()}
    assert set(outcomes) == set(itertools.product(kinds, kinds))
    # both answers occur wherever the rule leaves a choice; a finite group
    # holds no nonzero translation, so it refuses every lattice
    for (src_kind, dst_kind), seen in outcomes.items():
        if src_kind == "RationalTranslations":
            assert seen == {dst_kind != "RationalTranslations"}
        elif dst_kind == "GeneratedGroup":
            assert seen == {False}
        elif (src_kind, dst_kind) == ("TranslationLattice",
                                      "FiniteMatrixGroup"):
            assert seen == {True}
        else:
            assert seen == {True, False}, (src_kind, dst_kind)


def test_a_source_kind_without_a_sample_passes_unchecked():
    class Opaque(groups.GroupPresentation):
        dimension = 1

    m = AffineElement.linear(((Fraction(2),),))
    for dst in INTERTWINING_GROUPS.values():
        require_intertwines(m, Opaque(), dst, "map")


class TestFiniteMatrixGroupConstruction:
    def test_refuses_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            FiniteMatrixGroup((AffineElement.identity(1),
                               AffineElement.identity(1)))

    def test_refuses_a_missing_identity(self):
        with pytest.raises(ValueError, match="identity"):
            FiniteMatrixGroup((AffineElement.linear(((Fraction(-1),),)),))

    def test_refuses_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            FiniteMatrixGroup((AffineElement.identity(1),
                               AffineElement.identity(2)))

    def test_refuses_non_closure_under_composition(self):
        # closed under inversion (t₋₁ = t₁⁻¹), but t₁∘t₁ = t₂ is missing
        t1 = AffineElement.translation((qa(1),))
        with pytest.raises(ValueError, match="composition"):
            FiniteMatrixGroup((AffineElement.identity(1), t1, t1.invert()))


def test_rational_translations_in_the_plane_enumerate_in_product_order():
    """The height-1 line values are 0, -1, 1, and the plane takes their
    product in that order."""
    line = (0, -1, 1)
    assert RationalTranslations(2).enumerate(1) == tuple(
        AffineElement.translation((qa(x), qa(y)))
        for x, y in itertools.product(line, repeat=2))
    assert [g.b for g in RationalTranslations(2).enumerate(1)][:4] == [
        (qa(0), qa(0)), (qa(0), qa(-1)), (qa(0), qa(1)), (qa(-1), qa(0))]
