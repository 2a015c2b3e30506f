"""The exact core checks each fact once, at the public constructors, and
trusts group closure afterwards.  Property tests pit every trusted fast path
against the checked path it replaces; regression guards pin down that the
checks stay where they belong."""

import copy
import math
import pickle
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quasifolds.exact as exact
import quasifolds.groups as groups
from quasifolds import bimodule
from quasifolds.algebra import (AlgebraElement, CircleModel, LineModel,
                                convolve_closed_form, convolve_general,
                                involute, random_circle_element,
                                random_line_element)
from quasifolds.catalog import (duplicated_biatlas, two_scale_biatlas,
                                two_scale_lattice, z_alpha_lattice)
from quasifolds.coefficients import PiecewisePoly, TrigPoly
from quasifolds.errors import (EnumerationCapError, QuasifoldError,
                               SupportEscapesSubgroupError)
from quasifolds.exact import (AffineElement, AlphaWitness, QAlpha,
                              default_witness, mat_mul, qa)
from quasifolds.groupoid import Arrow, NebulaPoint, arrow_compose
from quasifolds.groups import (GeneratedGroup, RationalTranslations,
                               TranslationLattice, breadth_first)

PROPERTY = settings(max_examples=60, deadline=None)

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
nonzero = fractions.filter(lambda f: f != 0)
qalphas = st.builds(QAlpha, fractions, fractions)
# parts with more digits than the witness evaluates at
big_fractions = st.fractions(max_denominator=10 ** 30).filter(
    lambda f: abs(f.numerator) < 10 ** 80)
big_qalphas = st.builds(QAlpha, big_fractions, big_fractions)


@st.composite
def affine_elements(draw, n):
    """Valid maps through the public constructor; in 1-D half of them are
    translations, which take their own fast path."""
    b = tuple(draw(qalphas) for _ in range(n))
    if n == 1:
        s = Fraction(1) if draw(st.booleans()) else draw(nonzero)
        return AffineElement(((s,),), b)
    # [[d1, 0], [c1, d2]]·[[1, c2], [0, 1]] is invertible for d1, d2 ≠ 0
    d1, d2 = draw(nonzero), draw(nonzero)
    c1, c2 = draw(fractions), draw(fractions)
    return AffineElement(((d1, d1 * c2), (c1, c1 * c2 + d2)), b)


pairs = st.integers(1, 2).flatmap(
    lambda n: st.tuples(affine_elements(n), affine_elements(n)))


def _checked(r: AffineElement) -> AffineElement:
    return AffineElement(r.a, r.b)


# ---------------------------------------------------------------------------
# affine maps: trusted compose / invert / apply against the checked path
# ---------------------------------------------------------------------------

class TestAffineFastPaths:
    @PROPERTY
    @given(pairs)
    def test_compose_equals_checked_rebuild(self, xy):
        x, y = xy
        r = x.compose(y)
        assert r == _checked(r) and hash(r) == hash(_checked(r))
        assert r.a == mat_mul(x.a, y.a)
        assert r.b == x.apply(y.b)

    @PROPERTY
    @given(pairs)
    def test_invert_equals_checked_rebuild(self, xy):
        x, _ = xy
        r = x.invert()
        assert r == _checked(r) and hash(r) == hash(_checked(r))
        assert r.a == exact.mat_inv(x.a)
        assert x.compose(r).is_identity and r.compose(x).is_identity

    @PROPERTY
    @given(pairs, st.data())
    def test_apply_matches_linear_formula(self, xy, data):
        x, _ = xy
        v = tuple(data.draw(qalphas) for _ in range(x.n))
        want = tuple(
            sum((v[j].scale(x.a[i][j]) for j in range(x.n)), QAlpha())
            + x.b[i] for i in range(x.n))
        assert x.apply(v) == want


# ---------------------------------------------------------------------------
# word searches: one hash per state, one target per arrow
# ---------------------------------------------------------------------------

def _routes(x: AffineElement) -> list:
    """x and maps equal to it, each built by another constructor route."""
    same = [x, _checked(x), exact._affine(x.a, x.b),
            AffineElement.from_json(x.to_json()),
            x.invert().invert(),
            AffineElement.identity(x.n).compose(x),
            x.compose(AffineElement.identity(x.n))]
    if x.is_translation:
        same.append(AffineElement.translation(x.b))
    if all(v.is_zero for v in x.b):
        same.append(AffineElement.linear(x.a))
    return same


_SIGNED = AffineElement(((Fraction(-3, 7), Fraction(2)),
                         (Fraction(1, 3), Fraction(-5, 2))),
                        (qa(Fraction(-1, 2), -3), qa(4, Fraction(-2, 9))))


class TestAffineHashIsCached:
    @PROPERTY
    @given(pairs)
    @example((_SIGNED, _SIGNED.invert()))
    @example((AffineElement.linear(((Fraction(-1, 6),),)),
              AffineElement.translation((qa(Fraction(-5, 4), 2),))))
    def test_hash_is_the_pair_hash_on_every_route(self, xy):
        x, y = xy
        built = (_routes(x) + _routes(x.compose(y)) + _routes(x.invert())
                 + [AffineElement.translation(x.b), AffineElement.linear(x.a),
                    AffineElement.identity(x.n)])
        for e in built:
            assert hash(e) == hash((e.a, e.b))
        for same in (_routes(x), _routes(x.compose(y))):
            assert len({hash(e) for e in same}) == 1
            assert all(e == same[0] for e in same)

    def test_second_hash_is_the_stored_value(self, monkeypatch):
        x = AffineElement(((Fraction(2, 3),),), (qa(Fraction(1, 2), -1),))
        first = hash(x)
        calls = []
        real = exact._part_hash
        monkeypatch.setattr(exact, "_part_hash",
                            lambda n, d: calls.append(1) or real(n, d))
        assert hash(x) == first == x._hash
        assert calls == []
        y = exact._affine(x.a, x.b)  # a fresh instance computes its own
        assert hash(y) == first and calls == [1]


class _Counted:
    """A search state equal by value, tagged with the order it was made in,
    counting calls of __hash__."""

    hashes = 0

    def __init__(self, value, tag):
        self.value, self.tag = value, tag

    def __eq__(self, other):
        return self.value == other.value

    def __hash__(self):
        _Counted.hashes += 1
        return hash(self.value)


def _two_probe_breadth_first(start, step, depth):
    """breadth_first as it was: `in`, then `add`, for every candidate."""
    out, seen = [], set()
    for state in start:
        if state not in seen:
            seen.add(state)
            out.append(state)
    frontier = list(out)
    for _ in range(depth):
        new = []
        for state in frontier:
            for cand in step(state):
                if cand not in seen:
                    seen.add(cand)
                    out.append(cand)
                    new.append(cand)
        if not new:
            return out, True
        frontier = new
    return out, False


class TestOneProbePerCandidate:
    @PROPERTY
    @given(st.lists(st.lists(st.integers(0, 7), max_size=5), min_size=8,
                    max_size=8),
           st.lists(st.integers(0, 7), min_size=1, max_size=4),
           st.integers(0, 5))
    def test_breadth_first_equals_the_two_probe_loop(self, edges, start, depth):
        """Same states, same order, same flag and the same (first-made)
        object for each state; steps revisit states and repeat them."""
        def run(search):
            made = []

            def new(value):
                made.append(value)
                return _Counted(value, len(made))

            states, closed = search([new(v) for v in start],
                                    lambda c: (new(v) for v in edges[c.value]),
                                    depth)
            return [(c.value, c.tag) for c in states], closed, len(made)

        _Counted.hashes = 0
        got = run(breadth_first)
        assert _Counted.hashes == got[2]  # one hash per candidate made
        assert got == run(_two_probe_breadth_first)

    @pytest.mark.parametrize("make", [duplicated_biatlas, two_scale_biatlas])
    def test_generate_germs_keeps_order_and_first_germs(self, make):
        bi = make()
        seen = {}
        for seed in bi.seeds:
            for g in bi.left_groupoid().fiber_over(seed.src, 1):
                z1 = bimodule.left_act(g, seed)
                for gp in bi.right_groupoid().arrows_from(
                        bimodule.class_map(z1), 1):
                    z2 = bimodule.right_act(z1, gp)
                    seen.setdefault((z2.src, z2.map, z2.dst_chart), z2)
        germs = bimodule.generate_germs(bi, 1)
        assert germs == tuple(seen.values())
        assert len(germs) == 81

    def test_generate_germs_cap(self):
        bi = duplicated_biatlas()
        assert len(bimodule.generate_germs(bi, 1, max_count=81)) == 81
        with pytest.raises(QuasifoldError, match="exceeded 80"):
            bimodule.generate_germs(bi, 1, max_count=80)


class TestArrowTargetIsKept:
    def test_trg_applies_the_map_once(self, monkeypatch):
        calls = []
        real = AffineElement.apply
        monkeypatch.setattr(AffineElement, "apply",
                            lambda m, x: calls.append(1) or real(m, x))
        m = AffineElement(((Fraction(1, 2),),), (qa(1, 1),))
        for cls in (Arrow, bimodule.LinkingGerm):
            calls.clear()
            a = cls(NebulaPoint("c", (qa(2),)), m, "d")
            assert a.trg == NebulaPoint("d", (qa(2, 1),))
            assert a.trg is a.trg
            back = Arrow(a.trg, m.invert(), "c")
            assert arrow_compose(a, back).is_unit  # reads a.trg again
            assert calls == [1]

    def test_equality_and_hash_ignore_the_kept_target(self):
        src = NebulaPoint("c", (qa(Fraction(-1, 3), 2),))
        m = AffineElement.translation((qa(1),))
        read = Arrow(src, m, "c")
        read.trg
        fresh = Arrow(src, m, "c")
        assert read == fresh and hash(read) == hash(fresh)
        assert len({read, fresh}) == 1
        assert read.to_json() == fresh.to_json()


# ---------------------------------------------------------------------------
# QAlpha: slot-cached hash, trusted arithmetic, Decimal evaluation
# ---------------------------------------------------------------------------

class TestQAlphaFastPaths:
    @PROPERTY
    @given(fractions, fractions)
    def test_hash_and_equality_agree_across_inputs(self, p, q):
        forms = [QAlpha(p, q), qa(p, q), QAlpha.parse(str(QAlpha(p, q)))]
        if p.denominator == 1 and q.denominator == 1:
            forms.append(QAlpha(int(p), int(q)))
        for x in forms:
            assert x == forms[0]
            assert hash(x) == hash(forms[0]) == hash((p, q))
            assert hash(x) == hash(x)  # served from the slot the second time

    @PROPERTY
    @given(qalphas, qalphas, fractions)
    def test_arithmetic_equals_public_construction(self, x, y, r):
        floor = x.p.numerator // x.p.denominator
        for got, want in ((x + y, QAlpha(x.p + y.p, x.q + y.q)),
                          (x - y, QAlpha(x.p - y.p, x.q - y.q)),
                          (-x, QAlpha(-x.p, -x.q)),
                          (x.scale(r), QAlpha(x.p * r, x.q * r)),
                          (x * r, QAlpha(x.p * r, x.q * r)),
                          (x.mod1(), QAlpha(x.p - floor, x.q))):
            assert got == want and hash(got) == hash(want)
            assert type(got.p) is Fraction and type(got.q) is Fraction

    @PROPERTY
    @given(st.one_of(qalphas, big_qalphas),
           st.sampled_from(["golden", "silver", "negated"]))
    def test_evaluate_matches_local_context_division(self, x, which):
        silver = AlphaWitness.from_decimal_string("0.41421356237309504880")
        w = {"golden": default_witness(), "silver": silver,
             "negated": default_witness().negated()}[which]
        with localcontext() as ctx:
            ctx.prec = w.digits + 10
            want = (Decimal(x.p.numerator) / Decimal(x.p.denominator)
                    + (Decimal(x.q.numerator) / Decimal(x.q.denominator))
                    * w.value)
        got = w.evaluate(x)
        assert got == want and str(got) == str(want)

    def test_slots_leave_no_instance_dict(self):
        assert not hasattr(qa(1, 2), "__dict__")


# ---------------------------------------------------------------------------
# QAlpha: the integer triple is a normal form on every route
# ---------------------------------------------------------------------------

def assert_normal(x: QAlpha):
    a, b, d = x.triple
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (x.p, x.q) == (Fraction(a, d), Fraction(b, d))


class TestNormalForm:
    @PROPERTY
    @given(st.one_of(fractions, big_fractions), st.one_of(fractions, big_fractions))
    def test_construction_and_parse(self, p, q):
        for x in (QAlpha(p, q), qa(p, q), QAlpha.parse(str(QAlpha(p, q)))):
            assert_normal(x)
            assert x.triple == QAlpha(p, q).triple
            assert (x.p, x.q) == (p, q)

    @PROPERTY
    @given(qalphas, qalphas, fractions, st.integers(-6, 6))
    def test_arithmetic_results(self, x, y, r, n):
        results = [x + y, x - y, y - x, -x, x.scale(r), x.scale(-r),
                   x.scale(n), x.scale(0), x * r, r * x, x * n, x * qa(r),
                   qa(r) * x, x.mod1(), (-x).mod1(), x + n, n - x]
        for got in results:
            assert_normal(got)
        assert x.scale(0).triple == (0, 0, 1)

    @PROPERTY
    @given(qalphas, qalphas)
    def test_equal_values_have_equal_triples(self, x, y):
        same = (x.p, x.q) == (y.p, y.q)
        assert (x == y) == same == (x.triple == y.triple)
        # the same value reached by two routes
        z = (x + y) - y
        assert z.triple == x.triple and hash(z) == hash(x)

    @PROPERTY
    @given(st.one_of(qalphas, big_qalphas))
    def test_hash_is_the_pair_hash(self, x):
        assert hash(x) == hash((x.p, x.q))

    @PROPERTY
    @given(qalphas)
    def test_pickle_and_deepcopy_round_trip(self, x):
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x),
                  copy.copy(x)):
            assert y == x and y.triple == x.triple and hash(y) == hash(x)

    def test_immutable(self):
        x = qa(Fraction(1, 2), 3)
        for name in ("p", "q", "triple", "_t", "_hash", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
        with pytest.raises(AttributeError):
            del x._t
        assert x.triple == (1, 6, 2)


def test_hot_operations_build_no_fraction(monkeypatch):
    """`+`, `-`, `==`, a second hash, integer `scale` and `mod1` run on the
    integer triple alone."""
    xs = [qa(Fraction(7, 2), Fraction(-1, 3)), qa(5, -2), qa(Fraction(-9, 4)),
          qa(0, Fraction(5, 6))]
    for x in xs:
        hash(x)
    built = []
    original_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    if hasattr(Fraction, "_from_coprime_ints"):
        original_coprime = Fraction._from_coprime_ints.__func__

        def counting_coprime(cls, *args):
            built.append(args)
            return original_coprime(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(counting_coprime))
    assert Fraction(1, 2) and built  # the counter sees constructions
    built.clear()
    for x in xs:
        for y in xs:
            x + y, x - y, x == y
        hash(x), x.scale(3), x.scale(-2), x.scale(0), x.mod1(), -x
    assert built == []


# ---------------------------------------------------------------------------
# groups: memoised enumeration
# ---------------------------------------------------------------------------

generators = st.lists(st.tuples(qalphas), min_size=1, max_size=3)


class TestEnumerationMemo:
    @PROPERTY
    @given(generators, st.integers(0, 2))
    def test_lattice_memo_equals_fresh_group(self, gens, bound):
        g = TranslationLattice(tuple(gens))
        first = g.enumerate(bound)
        assert g.enumerate(bound) is first
        assert first == TranslationLattice(tuple(gens)).enumerate(bound)

    @PROPERTY
    @given(st.lists(affine_elements(1), min_size=1, max_size=2),
           st.integers(0, 2))
    def test_generated_memo_equals_fresh_group(self, gens, bound):
        g = GeneratedGroup(tuple(gens))
        first = g.enumerate(bound)
        assert g.enumerate(bound) is first
        assert first == GeneratedGroup(tuple(gens)).enumerate(bound)

    def test_rational_memo_equals_fresh_group(self):
        g = RationalTranslations(1)
        assert g.enumerate(3) is g.enumerate(3)
        assert g.enumerate(3) == RationalTranslations(1).enumerate(3)

    def test_same_bound_returns_the_same_tuple(self):
        g = z_alpha_lattice()
        assert g.enumerate(3) is g.enumerate(3)

    def test_over_cap_bound_raises_every_time(self):
        g = z_alpha_lattice()
        for _ in range(2):
            with pytest.raises(EnumerationCapError):
                g.enumerate(g.hard_cap + 1)
            with pytest.raises(ValueError):
                g.enumerate(-1)

    def test_results_beyond_the_memo_cap_are_not_kept(self, monkeypatch):
        monkeypatch.setattr(groups, "MEMO_CAP", 9)
        g = z_alpha_lattice()
        assert g.enumerate(0) is g.enumerate(0)  # 1 element: kept
        first = g.enumerate(1)  # 1 + 9 elements would exceed the cap of 9
        assert g.enumerate(1) is not first
        assert g.enumerate(1) == first == z_alpha_lattice().enumerate(1)


# ---------------------------------------------------------------------------
# algebra: closure-built keys against the checked public constructor
# ---------------------------------------------------------------------------

MODELS = {
    "z-alpha": LineModel(z_alpha_lattice()),
    "two-scale": LineModel(two_scale_lattice()),
    "circle-full": CircleModel("full"),
    "circle-rational": CircleModel("rational"),
    "circle-alpha": CircleModel("alpha"),
}


def _element(model, rng):
    if isinstance(model, LineModel):
        return random_line_element(rng, model, n_keys=4, degree=2)
    return random_circle_element(rng, model, n_keys=4, n_modes=2)


def _rebuilt(e: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(e.model, e.support)


class TestClosureBuiltElements:
    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(sorted(MODELS)), st.integers(0, 2 ** 32))
    def test_closure_results_equal_checked_rebuild(self, name, seed):
        model = MODELS[name]
        rng = random.Random(seed)
        f, g = _element(model, rng), _element(model, rng)
        product = convolve_closed_form(f, g)
        built = [product, involute(f), f + g, f.scale(2 - 1j), f - f]
        for e in built:
            assert e == _rebuilt(e)
        assert product.keys() == convolve_general(f, g).keys()


# ---------------------------------------------------------------------------
# regression guards (timing-free)
# ---------------------------------------------------------------------------

def test_closed_form_product_makes_no_lattice_solves(monkeypatch):
    calls = []
    original = exact.solve_linear

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(groups, "solve_linear", counting)
    monkeypatch.setattr(exact, "solve_linear", counting)
    model = LineModel(z_alpha_lattice())
    coeff = PiecewisePoly((qa(0), qa(1), qa(2)), ((1.0, 0.5), (0.25j,)))
    keys = [qa(0), qa(1), qa(0, 1), qa(-2, 1), qa(1, -2)]
    f = AlgebraElement(model, tuple((k, coeff) for k in keys))
    g = AlgebraElement(model, tuple((k + qa(1, 1), coeff) for k in keys))
    assert len(f.support) == len(g.support) == 5
    assert calls, "the public constructor must still check membership"
    calls.clear()
    convolve_closed_form(f, g)
    assert not calls


def test_off_lattice_key_still_raises_at_public_constructor():
    model = LineModel(z_alpha_lattice())
    coeff = random_line_element(random.Random(0), model).support[0][1]
    with pytest.raises(SupportEscapesSubgroupError):
        AlgebraElement(model, ((qa(0, Fraction(1, 2)), coeff),))


@pytest.mark.parametrize("model, element", [
    (LineModel(z_alpha_lattice()), random_line_element),
    (CircleModel("full"), random_circle_element),
])
def test_algebra_axioms_make_no_certified_comparisons(monkeypatch, model,
                                                      element):
    # Products, sums, scalings, involutions and distances of built elements
    # decide no order: a certified comparison on this path would also show
    # up in the benchmark's traced algebra workloads, which expect none.
    calls = []
    original = AlphaWitness.compare

    def counting(self, x, y=None):
        calls.append(1)
        return original(self, x, y)

    rng = random.Random(7)
    f, g, h = (element(rng, model) for _ in range(3))
    monkeypatch.setattr(AlphaWitness, "compare", counting)
    fg, gh = convolve_closed_form(f, g), convolve_closed_form(g, h)
    distances = [
        convolve_closed_form(fg, h).distance(convolve_closed_form(f, gh)),
        involute(fg).distance(convolve_closed_form(involute(g), involute(f))),
        involute(involute(f)).distance(f),
        convolve_closed_form(f + g.scale(2 - 1j), h).distance(
            convolve_closed_form(f, h) + gh.scale(2 - 1j)),
        convolve_general(f, g).distance(fg),
    ]
    assert max(distances) < 1e-9
    assert not calls


@pytest.mark.parametrize("model, element", [
    (LineModel(z_alpha_lattice()), random_line_element),
    (CircleModel("full"), random_circle_element),
])
def test_algebra_axioms_still_make_public_coefficient_constructions(
        monkeypatch, model, element):
    # The benchmark's traced algebra workloads expect some public
    # PiecewisePoly/TrigPoly constructions (their `coefficients.new` count)
    # on this path; building every result through the trusted helpers would
    # drop that count to none without failing anything else here.
    calls = []
    rng = random.Random(7)
    f, g, h = (element(rng, model) for _ in range(3))
    for cls in (PiecewisePoly, TrigPoly):
        def counting(self, original=cls.__post_init__):
            calls.append(1)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    fg, gh = convolve_closed_form(f, g), convolve_closed_form(g, h)
    convolve_closed_form(fg, h).distance(convolve_closed_form(f, gh))
    involute(fg).distance(convolve_closed_form(involute(g), involute(f)))
    involute(involute(f)).distance(f)
    convolve_closed_form(f + g.scale(2 - 1j), h).distance(
        convolve_closed_form(f, h) + gh.scale(2 - 1j))
    convolve_general(f, g).distance(fg)
    assert calls
