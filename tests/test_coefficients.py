"""Tests for the coefficient spaces: trigonometric polynomials on the circle
and piecewise polynomials with exact breakpoints on the line."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasifolds.coefficients import PiecewisePoly, TrigPoly
from quasifolds.errors import QuasifoldError
from quasifolds.exact import default_witness, qa

W = default_witness()
XS = [0.0, 0.17, 0.5, 0.731, 0.98]


def trig(d):
    return TrigPoly.from_dict(d)


small_coeff = st.complex_numbers(min_magnitude=0.0, max_magnitude=3.0,
                                 allow_nan=False, allow_infinity=False)
small_trig = st.dictionaries(st.integers(-4, 4), small_coeff, max_size=4).map(trig)


class TestTrigPolyBasics:
    def test_modes_sorted_and_zero_pruned(self):
        f = TrigPoly(((3, 1 + 0j), (-1, 2j), (0, 0j)))
        assert f.modes == ((-1, 2j), (3, 1 + 0j))

    def test_round_trip_dict(self):
        d = {2: 1 - 1j, -5: 0.25}
        assert trig(d).as_dict() == d

    def test_one_and_mode(self):
        assert TrigPoly.one().eval(0.37) == pytest.approx(1.0)
        f = TrigPoly.mode(2)
        x = 0.21
        assert f.eval(x) == pytest.approx(cmath.exp(2j * math.pi * 2 * x))

    def test_is_zero(self):
        assert TrigPoly().is_zero
        assert (trig({1: 1}) + trig({1: -1})).is_zero
        assert not trig({0: 1e-30}).is_zero

    def test_degree(self):
        assert trig({-3: 1, 2: 1}).degree() == 3
        assert TrigPoly().degree() == 0


class TestTrigPolyOperations:
    def test_add_matches_pointwise(self):
        f, g = trig({0: 1, 2: 1j}), trig({-1: 2, 2: 1})
        for x in XS:
            assert (f + g).eval(x) == pytest.approx(f.eval(x) + g.eval(x))

    def test_mul_matches_pointwise(self):
        f, g = trig({1: 1 + 1j, -2: 0.5}), trig({0: 2, 3: -1j})
        for x in XS:
            assert (f * g).eval(x) == pytest.approx(f.eval(x) * g.eval(x))

    def test_mul_adds_degrees(self):
        assert (trig({2: 1}) * trig({3: 1})).modes == ((5, (1 + 0j)),)

    def test_scale(self):
        f = trig({1: 1, -1: 1})
        assert f.scale(2j).eval(0.3) == pytest.approx(2j * f.eval(0.3))

    def test_conjugate_matches_pointwise(self):
        f = trig({1: 1 + 2j, -3: 0.5j, 0: -1})
        for x in XS:
            assert f.conjugate().eval(x) == pytest.approx(f.eval(x).conjugate())

    def test_rotate_is_argument_shift(self):
        f = trig({1: 1 + 2j, -2: 3, 0: 1j})
        t = 0.37
        for x in XS:
            assert f.rotate(t).eval(x) == pytest.approx(f.eval(x + t))

    def test_rotate_by_zero_is_identity(self):
        f = trig({1: 1, 4: -2j})
        assert f.rotate(0.0).allclose(f, 1e-15)

    def test_sup_bound_dominates_samples(self):
        f = trig({1: 1 + 1j, -2: 2, 5: -0.5j})
        sup = f.sup_bound()
        for x in [k / 97 for k in range(97)]:
            assert abs(f.eval(x)) <= sup + 1e-12

    def test_distance_and_allclose(self):
        f, g = trig({1: 1}), trig({1: 1 + 1e-13, 2: 5e-14})
        assert f.distance(g) < 1e-12
        assert f.allclose(g, 1e-12)
        assert not f.allclose(trig({1: 2}), 1e-12)

    @given(small_trig, small_trig, small_trig)
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, f, g, h):
        assert ((f * g) * h).allclose(f * (g * h), 1e-7)
        assert (f * (g + h)).allclose(f * g + f * h, 1e-7)
        assert (f + g).allclose(g + f, 1e-12)

    def test_json_round_trip(self):
        f = trig({3: 1 - 2j, -1: 0.125})
        assert TrigPoly.from_json(f.to_json()) == f

    @pytest.mark.parametrize("c", [complex("inf"), complex(0, float("nan")),
                                   complex(float("-inf"), 1.0)])
    def test_non_finite_coefficients_rejected(self, c):
        with pytest.raises(QuasifoldError):
            TrigPoly(((0, c),))
        with pytest.raises(QuasifoldError):
            TrigPoly.from_json({"kind": "trig",
                                "modes": {"2": [c.real, c.imag]}})


class TestPiecewisePolyBasics:
    def test_shape_validation(self):
        with pytest.raises(QuasifoldError):
            PiecewisePoly((qa(0), qa(1), qa(2)), ((1.0,),))
        with pytest.raises(QuasifoldError):
            PiecewisePoly((), ((1.0,),))

    def test_constant_on(self):
        f = PiecewisePoly.constant_on(qa(0), qa(1), 2 + 1j)
        assert f.eval(0.5) == 2 + 1j
        assert f.eval(1.5) == 0
        assert f.eval(-0.5) == 0

    def test_zero(self):
        z = PiecewisePoly.zero()
        assert z.is_zero
        assert z.support() is None
        assert z.eval(0.3) == 0

    def test_support_and_degree(self):
        f = PiecewisePoly((qa(0), qa(1, 1)), ((1.0, 0.0, 2.0),))
        assert f.support() == (qa(0), qa(1, 1))
        assert f.degree() == 2

    def test_interpolate_linear_hits_values(self):
        breaks = [qa(0), qa(Fraction(1, 2)), qa(1)]
        f = PiecewisePoly.interpolate_linear(breaks, [0.0, 1.0, 0.0])
        assert f.eval(0.25) == pytest.approx(0.5)
        assert f.eval(0.5) == pytest.approx(1.0)
        assert f.eval(0.75) == pytest.approx(0.5)


class TestPiecewisePolyShift:
    def test_shift_is_exact_on_breakpoints(self):
        f = PiecewisePoly.constant_on(qa(0), qa(1), 1.0)
        s = qa(0, 1)  # shift by α, exactly
        g = f.shift_arg(s)
        assert g.breakpoints == (qa(0, -1), qa(1, -1))
        assert g.pieces == f.pieces

    def test_shift_matches_pointwise(self):
        breaks = [qa(0), qa(Fraction(1, 3)), qa(1)]
        f = PiecewisePoly.interpolate_linear(breaks, [0.0, 2.0, 0.0])
        s = qa(Fraction(1, 7), -1)
        g = f.shift_arg(s)
        sf = W.to_float(s)
        for x in [0.05, 0.4, 0.9]:
            assert g.eval(x - sf) == pytest.approx(f.eval(x), abs=1e-9)

    def test_double_shift_cancels_exactly(self):
        f = PiecewisePoly.constant_on(qa(0, 1), qa(1, 1), 3.0)
        s = qa(Fraction(2, 3), 5)
        assert f.shift_arg(s).shift_arg(-s) == f


class TestPiecewisePolyArithmetic:
    def test_add_same_grid(self):
        f = PiecewisePoly.constant_on(qa(0), qa(1), 1.0)
        g = PiecewisePoly.constant_on(qa(0), qa(1), 2.0)
        assert (f + g).eval(0.5) == 3.0

    def test_add_merges_grids(self):
        f = PiecewisePoly.constant_on(qa(0), qa(1), 1.0)
        g = PiecewisePoly.constant_on(qa(Fraction(1, 2)), qa(Fraction(3, 2)), 1.0)
        h = f + g
        for x, want in [(0.25, 1.0), (0.75, 2.0), (1.25, 1.0), (1.75, 0.0)]:
            assert h.eval(x) == pytest.approx(want)

    def test_add_with_alpha_breakpoints(self):
        f = PiecewisePoly.constant_on(qa(0), qa(0, 1), 1.0)
        g = PiecewisePoly.constant_on(qa(Fraction(1, 2)), qa(1), 1.0)
        h = f + g
        alpha = W.to_float(qa(0, 1))
        for x in [0.1, 0.55, (alpha + 0.5) / 2, 0.99 * alpha]:
            assert h.eval(x) == pytest.approx(f.eval(x) + g.eval(x))

    def test_mul_matches_pointwise(self):
        f = PiecewisePoly.interpolate_linear([qa(0), qa(1)], [0.0, 1.0])
        g = PiecewisePoly.interpolate_linear(
            [qa(Fraction(1, 2)), qa(Fraction(3, 2))], [1.0, 0.0])
        h = f * g
        assert h.degree() == 2
        for x in [0.25, 0.6, 0.9, 1.2]:
            assert h.eval(x) == pytest.approx(f.eval(x) * g.eval(x))

    def test_cancellation_gives_zero(self):
        f = PiecewisePoly.interpolate_linear([qa(0), qa(1, 1)], [1.0, 2.0])
        assert (f + f.scale(-1)).is_zero

    def test_scale_and_conjugate(self):
        f = PiecewisePoly.constant_on(qa(0), qa(1), 1 + 2j)
        assert f.scale(2).eval(0.5) == 2 + 4j
        assert f.conjugate().eval(0.5) == 1 - 2j


class TestPiecewisePolyMetrics:
    def test_max_jump_continuous(self):
        f = PiecewisePoly.interpolate_linear(
            [qa(0), qa(Fraction(1, 2)), qa(1)], [0.0, 1.0, 0.0])
        assert f.max_jump() < 1e-12

    def test_max_jump_indicator(self):
        f = PiecewisePoly.constant_on(qa(0), qa(1), 1.0)
        assert f.max_jump() == pytest.approx(1.0)

    def test_distance_and_allclose(self):
        f = PiecewisePoly.constant_on(qa(0), qa(1), 1.0)
        g = PiecewisePoly.constant_on(qa(0), qa(1), 1.0 + 1e-13)
        assert f.distance(g) < 1e-12
        assert f.allclose(g, 1e-12)
        far = PiecewisePoly.constant_on(qa(0), qa(1), 2.0)
        assert not f.allclose(far, 1e-12)

    def test_distance_sees_disjoint_supports(self):
        f = PiecewisePoly.constant_on(qa(0), qa(1), 1.0)
        g = PiecewisePoly.constant_on(qa(5), qa(6), 1.0)
        assert f.distance(g) == pytest.approx(1.0)

    def test_json_round_trip(self):
        f = PiecewisePoly((qa(0, 1), qa(Fraction(3, 2))), ((1 + 1j, 0.5),))
        assert PiecewisePoly.from_json(f.to_json()) == f

    @pytest.mark.parametrize("c", [float("nan"), float("inf"),
                                   complex(1.0, float("-inf"))])
    def test_non_finite_coefficients_rejected(self, c):
        with pytest.raises(QuasifoldError):
            PiecewisePoly((qa(0), qa(1)), ((c,),))
        with pytest.raises(QuasifoldError):
            PiecewisePoly((qa(0), qa(1), qa(2)), ((1.0,), (0.5, c)))
        with pytest.raises(QuasifoldError):
            PiecewisePoly.from_json(
                {"kind": "piecewise", "breakpoints": ["0", "1"],
                 "pieces": [[[complex(c).real, complex(c).imag]]]})
