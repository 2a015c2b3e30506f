"""Tests for the counting-measure convolution *-algebras: models, the two
convolution routes, the involution, the rotation relation, and the matrix
representation of the rational circle algebra."""

import cmath
import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasifolds.algebra import (REPRESENTATION_PRODUCT_ORDER, AlgebraElement,
                                CircleModel, ComplexMatrix, LineModel,
                                convolve_closed_form, convolve_general, delta,
                                involute, matrix_representation,
                                random_circle_element, random_line_element,
                                rotation_relation)
from quasifolds.algebra import _normal_support
from quasifolds.coefficients import PiecewisePoly, TrigPoly
from quasifolds.errors import (MixedCoefficientKindError, QuasifoldError,
                               SupportEscapesSubgroupError)
from quasifolds.atlas import build_groupoid
from quasifolds.exact import (AlphaWitness, default_witness, qa,
                              set_default_witness)
from quasifolds.catalog import reflection_orbifold_atlas, z_alpha_lattice
from quasifolds.groupoid import NebulaPoint

W = default_witness()


def line_model():
    return LineModel(z_alpha_lattice())


def bump(lo, hi, c=1.0):
    return PiecewisePoly.constant_on(lo, hi, c)


class TestModels:
    def test_line_key_must_lie_in_group(self):
        m = line_model()
        assert m.canonical_key(qa(2, -1)) == qa(2, -1)
        with pytest.raises(SupportEscapesSubgroupError):
            m.canonical_key(qa(Fraction(1, 2)))

    def test_circle_key_is_mod_one(self):
        m = CircleModel("full")
        assert m.canonical_key(qa(Fraction(7, 2), 3)) == qa(Fraction(1, 2), 3)

    def test_rational_circle_rejects_alpha(self):
        m = CircleModel("rational")
        assert m.canonical_key(qa(Fraction(5, 3))) == qa(Fraction(2, 3))
        with pytest.raises(SupportEscapesSubgroupError):
            m.canonical_key(qa(0, 1))

    def test_alpha_circle_rejects_rational(self):
        m = CircleModel("alpha")
        assert m.canonical_key(qa(0, -2)) == qa(0, -2)
        with pytest.raises(SupportEscapesSubgroupError):
            m.canonical_key(qa(Fraction(1, 2), 1))

    def test_unknown_subgroup(self):
        with pytest.raises(QuasifoldError):
            CircleModel("dyadic")

    def test_coefficient_kind_enforced(self):
        with pytest.raises(MixedCoefficientKindError):
            delta(CircleModel("full"), qa(0), bump(qa(0), qa(1)))
        with pytest.raises(MixedCoefficientKindError):
            delta(line_model(), qa(0), TrigPoly.one())

    def test_mixed_models_refuse_to_combine(self):
        f = delta(CircleModel("rational"), qa(Fraction(1, 2)), TrigPoly.one())
        g = delta(CircleModel("full"), qa(Fraction(1, 2)), TrigPoly.one())
        with pytest.raises(MixedCoefficientKindError):
            f + g


class TestElementBasics:
    def test_duplicate_keys_merge(self):
        m = CircleModel("full")
        f = AlgebraElement(m, ((qa(0, 1), TrigPoly.mode(1)),
                               (qa(1, 1), TrigPoly.mode(2))))
        assert len(f.support) == 1
        assert f.coeff(qa(0, 1)).as_dict() == {1: 1 + 0j, 2: 1 + 0j}

    def test_zero_coefficients_pruned(self):
        m = CircleModel("full")
        f = AlgebraElement(m, ((qa(0), TrigPoly()),))
        assert f.is_zero

    def test_support_sorted(self):
        m = CircleModel("full")
        f = AlgebraElement(m, ((qa(Fraction(1, 2)), TrigPoly.one()),
                               (qa(Fraction(1, 4)), TrigPoly.one())))
        assert f.keys() == (qa(Fraction(1, 4)), qa(Fraction(1, 2)))

    def test_missing_coeff_is_zero(self):
        f = delta(CircleModel("full"), qa(0, 1), TrigPoly.one())
        assert f.coeff(qa(0, 2)).is_zero

    def test_linear_ops(self):
        m = CircleModel("full")
        f = delta(m, qa(0, 1), TrigPoly.one())
        g = delta(m, qa(0, 1), TrigPoly.mode(1))
        h = f + g.scale(2j)
        assert h.coeff(qa(0, 1)).as_dict() == {0: 1 + 0j, 1: 2j}
        assert (h - h).is_zero

    def test_line_subtraction(self):
        m = line_model()
        f = delta(m, qa(1, 1), bump(qa(0), qa(1), 2.0))
        assert (f - f).is_zero


class TestOverflowedProducts:
    """t·δ₀ with t = 1e200 on modes 0 and 1: f·f and (2f)·f overflow to inf,
    and their coefficient distance is inf − inf = NaN."""

    @staticmethod
    def products():
        f = delta(CircleModel("full"), qa(0),
                  TrigPoly(((0, 1e200), (1, 1e200))))
        return f * f, f.scale(2) * f

    def test_nan_coefficient_distance_makes_the_element_distance_nan(self):
        a, b = self.products()
        ((_, ca),), ((_, cb),) = a.support, b.support
        assert math.isnan(ca.distance(cb))
        assert math.isnan(a.distance(b)) and math.isnan(b.distance(a))
        assert not a.allclose(b, 1e-9)

    def test_a_nan_key_is_not_hidden_by_the_other_keys(self):
        a, b = self.products()
        extra = delta(CircleModel("full"), qa(0, 1), TrigPoly.one())
        assert math.isnan((a + extra).distance(b + extra.scale(3)))

    @pytest.mark.parametrize("model", ["line", "circle"])
    def test_a_nan_in_one_coefficient_is_not_hidden(self, model):
        """a = 1e200·δ₀ against b = (1, 1e200) and c = (1, 2e200): the
        products agree in their first coefficient and are inf − inf = NaN
        apart in their second, and b ≠ c."""
        if model == "line":
            m = line_model()

            def coeff(*c):
                return PiecewisePoly((qa(0), qa(1)), (c,))
        else:
            m = CircleModel("full")

            def coeff(*c):
                return TrigPoly(tuple(enumerate(c)))
        a, b, c = (delta(m, qa(0), coeff(*x))
                   for x in ((1e200,), (1, 1e200), (1, 2e200)))
        ((_, ab),), ((_, ac),) = (a * b).support, (a * c).support
        assert math.isnan(ab.distance(ac)) and not ab.allclose(ac, 1e-9)
        assert math.isnan((a * b).distance(a * c))
        assert not (a * b).allclose(a * c, 1e-9)

    def test_overflow_is_silent_on_both_routes(self):
        f = self.products()[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.products()
            convolve_general(f, f)
            convolve_closed_form(f, f)


class TestConvolutionRoutes:
    def test_delta_product_on_circle(self):
        m = CircleModel("full")
        f = delta(m, qa(Fraction(1, 3)), TrigPoly.one())
        g = delta(m, qa(Fraction(1, 2)), TrigPoly.one())
        prod = f * g
        assert prod.keys() == (qa(Fraction(5, 6)),)

    def test_delta_product_on_line_shifts_coefficient(self):
        m = line_model()
        f = delta(m, qa(1), bump(qa(0), qa(1)))
        g = delta(m, qa(0, 1), bump(qa(0), qa(2)))
        prod = f * g
        assert prod.keys() == (qa(1, 1),)
        # f's bump is evaluated at x + α, so its support slides down to
        # [−α, 1−α]; the product then clips to the overlap with g's [0, 2].
        c = prod.coeff(qa(1, 1))
        assert c.support() == (qa(0), qa(1, -1))

    @pytest.mark.parametrize("seed", range(5))
    def test_routes_agree_on_circle(self, seed):
        rng = random.Random(seed)
        for subgroup in ("rational", "alpha", "full"):
            m = CircleModel(subgroup)
            f = random_circle_element(rng, m)
            g = random_circle_element(rng, m)
            a, b = convolve_general(f, g), convolve_closed_form(f, g)
            assert a.keys() == b.keys()
            assert a.distance(b) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_routes_agree_on_line(self, seed):
        rng = random.Random(100 + seed)
        m = line_model()
        f = random_line_element(rng, m)
        g = random_line_element(rng, m)
        a, b = convolve_general(f, g), convolve_closed_form(f, g)
        assert a.keys() == b.keys()
        assert a.distance(b) < 1e-12

    def test_circle_unit(self):
        m = CircleModel("full")
        one = delta(m, qa(0), TrigPoly.one())
        rng = random.Random(7)
        f = random_circle_element(rng, m)
        assert (one * f).allclose(f, 1e-12)
        assert (f * one).allclose(f, 1e-12)

    def test_associativity(self):
        rng = random.Random(11)
        m = CircleModel("full")
        f, g, h = (random_circle_element(rng, m) for _ in range(3))
        assert ((f * g) * h).allclose(f * (g * h), 1e-9)
        lm = line_model()
        u, v, w = (random_line_element(rng, lm) for _ in range(3))
        assert ((u * v) * w).allclose(u * (v * w), 1e-9)

    def test_bilinearity(self):
        rng = random.Random(13)
        m = CircleModel("full")
        f, g, h = (random_circle_element(rng, m) for _ in range(3))
        assert ((f + g) * h).allclose(f * h + g * h, 1e-9)
        assert (f * (g + h)).allclose(f * g + f * h, 1e-9)
        assert (f.scale(2j) * g).allclose((f * g).scale(2j), 1e-9)


class TestInvolution:
    def test_star_is_involutive(self):
        rng = random.Random(17)
        for m, rand in ((CircleModel("full"), random_circle_element),
                        (line_model(), random_line_element)):
            f = rand(rng, m)
            assert involute(involute(f)).allclose(f, 1e-12)

    def test_star_reverses_products(self):
        rng = random.Random(19)
        for m, rand in ((CircleModel("full"), random_circle_element),
                        (line_model(), random_line_element)):
            f, g = rand(rng, m), rand(rng, m)
            assert (f * g).star().allclose(g.star() * f.star(), 1e-9)

    def test_star_is_conjugate_linear(self):
        rng = random.Random(23)
        m = CircleModel("full")
        f, g = random_circle_element(rng, m), random_circle_element(rng, m)
        lhs = (f.scale(2 + 1j) + g).star()
        rhs = f.star().scale(2 - 1j) + g.star()
        assert lhs.allclose(rhs, 1e-12)

    def test_star_negates_keys(self):
        m = CircleModel("full")
        f = delta(m, qa(Fraction(1, 3), 1), TrigPoly.mode(1))
        assert f.star().keys() == ((-qa(Fraction(1, 3), 1)).mod1(),)

    def test_delta_star_on_line(self):
        m = line_model()
        f = delta(m, qa(1), bump(qa(0), qa(1), 1j))
        fs = f.star()
        assert fs.keys() == (qa(-1),)
        c = fs.coeff(qa(-1))
        # conj(f_1(x − 1)) lives on [1, 2] with conjugated value.
        assert c.support() == (qa(1), qa(2))
        assert c.eval(1.5) == pytest.approx(-1j)


class TestRotationRelation:
    def test_lambda_matches_reference(self):
        rep = rotation_relation(max_power=3)
        assert rep["lambda_error"] < 1e-12
        assert rep["relation_residual"] < 1e-12
        assert rep["power_residual"] < 1e-9

    def test_lambda_is_exp_minus_two_pi_i_alpha(self):
        rep = rotation_relation()
        alpha = W.to_float(qa(0, 1))
        assert rep["lambda"] == pytest.approx(cmath.exp(-2j * math.pi * alpha))

    def test_negated_witness_flips_lambda(self):
        set_default_witness(W.negated())
        rep = rotation_relation()
        alpha = W.to_float(qa(0, 1))
        assert rep["lambda"] == pytest.approx(cmath.exp(+2j * math.pi * alpha))
        assert rep["relation_residual"] < 1e-12


class TestDefaultWitnessSwitch:
    """Every order decision follows the default witness: models and
    groupoids keep no α of their own."""

    SILVER = AlphaWitness.from_decimal_string("0.41421356237309504880")

    @pytest.mark.parametrize("silver", [False, True])
    def test_line_product_and_fold_chart_follow_alpha(self, silver):
        # built before the switch: nothing may keep the α it was built under
        model = line_model()
        fold = build_groupoid(reflection_orbifold_atlas())
        if silver:
            set_default_witness(self.SILVER)
        half = delta(model, qa(0), bump(qa(0), qa(Fraction(1, 2))))
        up_to_alpha = delta(model, qa(0), bump(qa(0), qa(0, 1)))
        ((_, c),) = (half * up_to_alpha).support
        # min(1/2, α): α ≈ 0.414 under silver, ≈ 0.618 under golden
        assert c.support() == (qa(0), qa(0, 1) if silver else qa(Fraction(1, 2)))
        five_alpha = NebulaPoint("fold", (qa(0, 5),))  # fold chart is (−3, 3)
        if silver:
            assert fold.require_point(five_alpha) == five_alpha
        else:
            with pytest.raises(QuasifoldError):
                fold.require_point(five_alpha)


class TestComplexMatrix:
    def test_identity(self):
        eye = ComplexMatrix.identity(3)
        m = ComplexMatrix(((1, 2j), (3, 4)))
        assert (ComplexMatrix.identity(2) @ m - m).sup_norm() == 0

    def test_matmul(self):
        a = ComplexMatrix(((1, 2), (3, 4)))
        b = ComplexMatrix(((0, 1), (1, 0)))
        assert (a @ b).rows == ((2, 1), (4, 3))

    def test_conjugate_transpose(self):
        a = ComplexMatrix(((1 + 1j, 2), (3j, 4)))
        assert a.conjugate_transpose().rows == ((1 - 1j, -3j), (2, 4))

    def test_sup_norm(self):
        a = ComplexMatrix(((3, -4j),))
        assert a.sup_norm() == 4.0

    def test_sup_norm_keeps_a_nan_wherever_it_sits(self):
        assert math.isnan(ComplexMatrix(((1.0, math.nan),)).sup_norm())
        assert math.isnan(ComplexMatrix(((math.nan, 1.0),)).sup_norm())
        assert math.isnan(ComplexMatrix(((2.0,), (complex(1, math.nan),))
                                        ).sup_norm())


class TestMatrixRepresentation:
    def test_product_order_constant(self):
        assert REPRESENTATION_PRODUCT_ORDER == "reversed"

    def test_reversed_order_multiplicative(self):
        rng = random.Random(29)
        m = CircleModel("rational")
        for p in (2, 3, 4, 6):
            for _ in range(5):
                f = random_circle_element(rng, m, denominator=p)
                g = random_circle_element(rng, m, denominator=p)
                for z in (0.0, 0.31, 0.77):
                    lhs = matrix_representation(f * g, p, z)
                    rhs = matrix_representation(g, p, z) @ matrix_representation(f, p, z)
                    assert (lhs - rhs).sup_norm() < 1e-9

    def test_forward_order_fails(self):
        rng = random.Random(31)
        m = CircleModel("rational")
        f = random_circle_element(rng, m, denominator=3)
        g = random_circle_element(rng, m, denominator=3)
        lhs = matrix_representation(f * g, 3, 0.2)
        wrong = matrix_representation(f, 3, 0.2) @ matrix_representation(g, 3, 0.2)
        assert (lhs - wrong).sup_norm() > 1e-6

    def test_p_equals_one_is_pointwise(self):
        rng = random.Random(37)
        m = CircleModel("rational")
        f = random_circle_element(rng, m, denominator=1)
        g = random_circle_element(rng, m, denominator=1)
        z = 0.41
        lhs = matrix_representation(f * g, 1, z).rows[0][0]
        rhs = f.coeff(qa(0)).eval(z) * g.coeff(qa(0)).eval(z)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_star_is_conjugate_transpose(self):
        rng = random.Random(41)
        m = CircleModel("rational")
        f = random_circle_element(rng, m, denominator=4)
        for z in (0.0, 0.13):
            a = matrix_representation(f.star(), 4, z)
            b = matrix_representation(f, 4, z).conjugate_transpose()
            assert (a - b).sup_norm() < 1e-12

    def test_support_must_divide(self):
        m = CircleModel("rational")
        f = delta(m, qa(Fraction(1, 3)), TrigPoly.one())
        with pytest.raises(SupportEscapesSubgroupError):
            matrix_representation(f, 2)

    def test_needs_rational_circle(self):
        f = delta(CircleModel("full"), qa(0), TrigPoly.one())
        with pytest.raises(QuasifoldError):
            matrix_representation(f, 2)
        g = delta(line_model(), qa(0), bump(qa(0), qa(1)))
        with pytest.raises(QuasifoldError):
            matrix_representation(g, 2)


class TestSupportOrder:
    """`_normal_support` sorts by integers over the keys' common denominator;
    the order must be exactly that of `QAlpha.sort_key`, the pair (p, q)."""

    ints = st.integers(-2 ** 70, 2 ** 70) | st.integers(-3, 3)
    dens = st.integers(1, 2 ** 70) | st.sampled_from([1, 2, 3, 6, 2 ** 64 + 1])
    keys = st.builds(lambda a, b, c, d: qa(Fraction(a, b), Fraction(c, d)),
                     ints, dens, ints, dens)

    @staticmethod
    def check(entries: dict):
        want = tuple(sorted(((k, c) for k, c in entries.items()
                             if not c.is_zero),
                            key=lambda e: e[0].sort_key()))
        assert _normal_support(entries) == want

    @settings(max_examples=300, deadline=None)
    @given(st.lists(keys, max_size=12))
    @example([qa(Fraction(1, 3)), qa(Fraction(1, 2)), qa(0, Fraction(-1, 6)),
              qa(Fraction(-1, 2**64 + 1), 1), qa(Fraction(-1, 2**64), 1),
              qa(Fraction(-1, 2**64), Fraction(1, 3))])
    def test_matches_sort_key(self, ks):
        self.check({k: TrigPoly.one() for k in ks})

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9),
                              st.booleans()), max_size=12))
    def test_line_keys_and_zero_coefficients(self, triples):
        # line keys n + mα have d = 1; zero coefficients drop out
        self.check({qa(n, m): bump(qa(0), qa(1), 1.0 if live else 0.0)
                    if live else PiecewisePoly.zero()
                    for n, m, live in triples})

    @pytest.mark.parametrize("subgroup", ["rational", "alpha", "full"])
    def test_circle_elements(self, subgroup):
        rng = random.Random(2201)
        model = CircleModel(subgroup)
        for _ in range(20):
            f = random_circle_element(rng, model, n_keys=6, denominator=12,
                                      alpha_span=5)
            g = random_circle_element(rng, model, n_keys=4, denominator=10)
            for e in (f, f * g, f + g, involute(f)):
                assert e.keys() == tuple(sorted(e.keys(),
                                                key=lambda k: k.sort_key()))
                self.check(dict(e.support))
