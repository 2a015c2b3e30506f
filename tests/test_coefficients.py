"""Tests for the coefficient spaces: trigonometric polynomials on the circle
and piecewise polynomials with exact breakpoints on the line."""

import cmath
import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasifolds import _kernels as K
from quasifolds.coefficients import PiecewisePoly, TrigPoly
from quasifolds.errors import PrecisionInsufficientError, QuasifoldError
from quasifolds.exact import (AlphaWitness, default_witness, qa,
                              set_default_witness)

W = default_witness()
XS = [0.0, 0.17, 0.5, 0.731, 0.98]


def trig(d):
    return TrigPoly.from_dict(d)


small_coeff = st.complex_numbers(min_magnitude=0.0, max_magnitude=3.0,
                                 allow_nan=False, allow_infinity=False)
small_trig = st.dictionaries(st.integers(-4, 4), small_coeff, max_size=4).map(trig)


def _fibonacci_near_tie():
    """F_144·α − F_143 ≈ −8e-31, inside the golden witness's margin around 0
    though its 60-digit value reads exactly 0."""
    fib = [0, 1]
    while len(fib) <= 144:
        fib.append(fib[-1] + fib[-2])
    return qa(-fib[143], fib[144])


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

    @pytest.mark.parametrize("modes", [
        ((1.5, 1),), (("x", 1),), ((1, 1), (1, 2)), ((0, 1), (3, 0), (3, 2)),
    ])
    def test_mode_indices_must_be_distinct_integers(self, modes):
        with pytest.raises(QuasifoldError):
            TrigPoly(modes)

    @pytest.mark.parametrize("keys", [("1.5",), ("x",), ("1", "01")])
    def test_json_mode_keys_must_be_distinct_integers(self, keys):
        with pytest.raises(QuasifoldError):
            TrigPoly.from_json({"kind": "trig",
                                "modes": {k: [1.0, 0.0] for k in keys}})

    @pytest.mark.parametrize("c", [complex("inf"), complex(0, float("nan")),
                                   complex(float("-inf"), 1.0)])
    def test_non_finite_coefficients_rejected(self, c):
        with pytest.raises(QuasifoldError):
            TrigPoly(((0, c),))
        with pytest.raises(QuasifoldError):
            TrigPoly.from_json({"kind": "trig",
                                "modes": {"2": [c.real, c.imag]}})


_parts = st.sampled_from((0.0, -0.0, 1e-320, math.nan, math.inf, -math.inf))


class TestPiecewisePolyBasics:
    def test_shape_validation(self):
        with pytest.raises(QuasifoldError):
            PiecewisePoly((qa(0), qa(1), qa(2)), ((1.0,),))
        with pytest.raises(QuasifoldError):
            PiecewisePoly((), ((1.0,),))
        with pytest.raises(QuasifoldError):
            PiecewisePoly((qa(0),), ())

    @pytest.mark.parametrize("breaks", [
        (qa(1), qa(0)), (qa(0), qa(0)), (qa(0, 1), qa(1), qa(Fraction(1, 2))),
    ])
    def test_breakpoints_must_increase(self, breaks):
        pieces = tuple((1.0,) for _ in breaks[1:])
        with pytest.raises(QuasifoldError):
            PiecewisePoly(breaks, pieces)

    def test_breakpoint_order_near_a_tie_raises(self):
        x = _fibonacci_near_tie()
        with pytest.raises(PrecisionInsufficientError):
            PiecewisePoly((x, qa(0), qa(1)), ((1,), (1,)))

    def test_rational_breakpoints_are_converted(self):
        f = PiecewisePoly((0, Fraction(1, 2), 1), ((1,), (2,)))
        assert f.breakpoints == (qa(0), qa(Fraction(1, 2)), qa(1))
        assert f == PiecewisePoly((qa(0), qa(Fraction(1, 2)), qa(1)),
                                  ((1,), (2,)))
        assert (f * f).eval(0.75) == 4

    @pytest.mark.parametrize("bad", [0.5, "1", None])
    def test_breakpoints_outside_q_alpha_rejected(self, bad):
        with pytest.raises(QuasifoldError):
            PiecewisePoly((qa(0), bad), ((1,),))

    def test_interpolate_linear_rejects_equal_breaks(self):
        with pytest.raises(QuasifoldError):
            PiecewisePoly.interpolate_linear([qa(0), qa(0)], [0.0, 1.0])

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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.builds(complex, _parts, _parts), max_size=3),
                    max_size=3))
    def test_is_zero_matches_the_coefficientwise_definition(self, pieces):
        # pieces outside the constructor's finite range, set directly: NaN is
        # truthy and not == 0, −0.0 is falsy and == 0
        f = object.__new__(PiecewisePoly)
        object.__setattr__(f, "pieces", tuple(map(tuple, pieces)))
        assert f.is_zero is all(all(c == 0 for c in p) for p in f.pieces)

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

    def test_scale_and_conjugate_equal_the_checked_constructor(self):
        f = PiecewisePoly((qa(0), qa(0, 1), qa(1)), ((1 + 2j, -1j), (0.5,)))
        for got in (f.scale(2 - 1j), f.conjugate()):
            assert got == PiecewisePoly(got.breakpoints, got.pieces)


class TestPiecewisePolyMetrics:
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


class TestScale:
    """Both coefficient types scale without re-checking their normal form,
    and both refuse a non-finite result, as their constructors do."""

    @pytest.mark.parametrize("make", [
        TrigPoly.one,
        lambda: PiecewisePoly.constant_on(qa(0), qa(1), 1),
    ], ids=["trig", "piecewise"])
    @pytest.mark.parametrize("s", [float("inf"), complex(0, float("-inf")),
                                   float("nan")])
    def test_non_finite_factor_rejected(self, make, s):
        with pytest.raises(QuasifoldError):
            make().scale(s)

    def test_overflow_rejected(self):
        with pytest.raises(QuasifoldError):
            TrigPoly.mode(3, 1e200).scale(1e200)
        with pytest.raises(QuasifoldError):
            PiecewisePoly.constant_on(qa(0), qa(1), 1e200).scale(1e200)

    @pytest.mark.parametrize("s", [2 - 1j, 0, 1e-200, -1])
    def test_trig_scale_equals_the_checked_constructor(self, s):
        f = trig({-2: 1e-200, 0: 1 + 2j, 5: -0.5j})
        got = f.scale(s)
        assert got == TrigPoly(tuple((k, c * s) for k, c in f.modes))
        assert all(c != 0 for _, c in got.modes)  # zero products pruned


# ---------------------------------------------------------------------------
# the ordered breakpoint walk against the sort-based alignment it replaced
# ---------------------------------------------------------------------------

def _sorted_alignment(f, g):
    """Merged grid and both operands' local coefficients, as aligned by a
    hash-set union, a stable sort on witness values and per-operand
    position dicts."""
    w = default_witness()
    grid = list(f.breakpoints)
    seen = set(grid)
    for b in g.breakpoints:
        if b not in seen:
            seen.add(b)
            grid.append(b)
    grid.sort(key=w.evaluate)
    return grid, _on_grid(f, grid, w), _on_grid(g, grid, w)


def _on_grid(f, grid, w):
    out = []
    pos = {b: i for i, b in enumerate(f.breakpoints)}
    piece = None
    for left in grid[:-1]:
        k = pos.get(left)
        if k is not None:
            piece = k if k < len(f.pieces) else None
        if piece is None:
            out.append(())
            continue
        base, coeffs = f.breakpoints[piece], f.pieces[piece]
        if left == base:
            out.append(tuple(coeffs))
        else:
            out.append(tuple(K.poly_shift(list(coeffs), w.to_float(left - base))))
    return out


def _sorted_op(f, g, add):
    """f + g or f·g under the sort-based alignment, as a _Raw (or the zero
    PiecewisePoly, or an operand returned as it is)."""
    if not f.breakpoints:
        return g if add else PiecewisePoly()
    if not g.breakpoints:
        return f if add else PiecewisePoly()
    grid, mine, theirs = _sorted_alignment(f, g)
    pieces = [tuple(K.poly_add(list(a), list(b))) if add
              else tuple(K.poly_mul(list(a), list(b))) if a and b else ()
              for a, b in zip(mine, theirs)]
    while pieces and all(c == 0 for c in pieces[0]):
        pieces.pop(0)
        grid.pop(0)
    while pieces and all(c == 0 for c in pieces[-1]):
        pieces.pop()
        grid.pop()
    return PiecewisePoly() if not pieces else _Raw(tuple(grid), tuple(pieces))


def _sorted_binary(f, g, add):
    """_bits of f + g or f·g under the sort-based alignment."""
    return _bits(_sorted_op(f, g, add))


def _sorted_distance(f, g):
    if not f.breakpoints and not g.breakpoints:
        return 0.0
    if not f.breakpoints:
        return max((abs(c) for p in g.pieces for c in p), default=0.0)
    if not g.breakpoints:
        return max((abs(c) for p in f.pieces for c in p), default=0.0)
    _, mine, theirs = _sorted_alignment(f, g)
    worst = 0.0
    for a, b in zip(mine, theirs):
        arr = K.poly_add(list(a), K.poly_scale(list(b), -1.0))
        worst = max(worst, max((abs(c) for c in arr), default=0.0))
    return worst


class _Raw:
    """Breakpoints and pieces taken as they are, with no order check: the
    sort-based alignment keeps a grid whose order the witness cannot
    certify."""

    def __init__(self, breakpoints, pieces):
        self.breakpoints, self.pieces = breakpoints, pieces


def _bits(f):
    return (f.breakpoints,
            tuple(tuple((c.real.hex(), c.imag.hex()) for c in p)
                  for p in f.pieces))


small_parts = st.fractions(min_value=-3, max_value=3, max_denominator=4)
small_points = st.builds(qa, small_parts, st.integers(-2, 2))
unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=6)
piece_coeffs = st.lists(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                       allow_infinity=False), max_size=3).map(tuple)


@st.composite
def piecewise_on(draw, points):
    """A PiecewisePoly whose breakpoints are drawn from `points`."""
    bps = sorted(draw(st.sets(points, min_size=2, max_size=5)),
                 key=W.evaluate)
    pieces = draw(st.lists(piece_coeffs, min_size=len(bps) - 1,
                           max_size=len(bps) - 1))
    return PiecewisePoly(tuple(bps), tuple(pieces))


@st.composite
def operand_pairs(draw):
    f = draw(piecewise_on(small_points))
    kind = draw(st.sampled_from(
        ("independent", "shared", "nested", "disjoint", "shifted", "zero")))
    if kind == "independent":
        g = draw(piecewise_on(small_points))
    elif kind == "shared":
        g = draw(piecewise_on(st.one_of(st.sampled_from(f.breakpoints),
                                        small_points)))
    elif kind == "nested":
        i = draw(st.integers(0, len(f.pieces) - 1))
        lo, hi = f.breakpoints[i], f.breakpoints[i + 1]
        g = draw(piecewise_on(unit_fractions.map(
            lambda t: lo + (hi - lo).scale(t))))
    elif kind == "disjoint":
        g = draw(piecewise_on(small_points)).shift_arg(
            qa(draw(st.sampled_from((-12, 12))), draw(st.integers(-1, 1))))
    elif kind == "shifted":
        g = f.shift_arg(draw(small_points))
    else:
        g = PiecewisePoly()
    return (g, f) if draw(st.booleans()) else (f, g)


class TestOrderedWalkMatchesSortedAlignment:
    """Sums, products and distances are bit for bit those of the sort-based
    alignment wherever the breakpoint order is certified."""

    @settings(max_examples=150, deadline=None)
    @given(operand_pairs())
    def test_add_mul_distance_bitwise(self, pair):
        f, g = pair
        assert _bits(f + g) == _sorted_binary(f, g, add=True)
        assert _bits(f * g) == _sorted_binary(f, g, add=False)
        assert f.distance(g).hex() == _sorted_distance(f, g).hex()


class TestBreakpointNearTie:
    """χ[0,1)·χ[x,1) with x = F₁₄₄·α − F₁₄₃ ≈ −8e-31: the 60-digit values of
    0 and x are equal, so the sort-based alignment returns the grid
    [0, x, 1] and support (x, 1) where the true support is (0, 1).  The walk
    refuses the order instead of guessing it."""

    @pytest.mark.parametrize("op", ["add", "mul", "distance"])
    @pytest.mark.parametrize("swap", [False, True])
    def test_walk_raises(self, op, swap):
        f = PiecewisePoly.constant_on(qa(0), qa(1), 1.0)
        g = PiecewisePoly.constant_on(_fibonacci_near_tie(), qa(1), 1.0)
        if swap:
            f, g = g, f
        with pytest.raises(PrecisionInsufficientError):
            {"add": f.__add__, "mul": f.__mul__, "distance": f.distance}[op](g)

    def test_sums_and_distances_answer_exactly_or_raise(self):
        """Random pieces on breakpoints k and x + k (0 ≤ k ≤ 4), never both
        in one operand: under the default witness a sum or distance either
        raises or gives the bits it gives under a 130-digit witness, which
        separates x + k from k."""
        x, precise = _fibonacci_near_tie(), AlphaWitness.golden(digits=130)
        rng = random.Random(8)
        outcomes = set()

        def operand():
            ks = sorted(rng.sample(range(5), rng.randint(2, 4)))
            bps = [qa(k) + (x if rng.random() < 0.5 else qa(0)) for k in ks]
            return PiecewisePoly(bps, [
                [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                 for _ in range(rng.randint(1, 3))] for _ in bps[1:]])

        def results(f, g):
            out = []
            for op, arg in ((f.__add__, g), (g.__add__, f),
                            (f.distance, g), (g.distance, f)):
                try:
                    r = op(arg)
                except PrecisionInsufficientError:
                    out.append(None)
                else:
                    out.append(r.hex() if isinstance(r, float) else _bits(r))
            return out

        for _ in range(120):
            f, g = operand(), operand()
            near = results(f, g)
            set_default_witness(precise)
            separated = results(f, g)
            set_default_witness(W)
            for got, want in zip(near, separated):
                assert want is not None
                if got is not None:
                    assert got == want
                outcomes.add(got is None)
        assert outcomes == {False, True}


def _distance_by_sum(f, g):
    """`PiecewisePoly.distance` as it was computed through the sum kernels:
    max over intervals of abs(poly_add(a, poly_scale(b, −1.0))), and the
    first NaN among them as soon as there is one."""
    _, mine, theirs = f._aligned(g)
    worst = 0.0
    for a, b in zip(mine, theirs):
        for c in K.poly_add(list(a), K.poly_scale(list(b), -1.0)):
            if math.isnan(abs(c)):
                return abs(c)
            worst = max(worst, abs(c))
    return worst


class TestDistanceIsTheSumRoute:
    """`distance` takes the differences directly and returns the float the
    sum-kernel route returned, bit for bit, NaN included: on pieces of
    unequal length, empty pieces, and products whose coefficients overflow
    to inf (so that differences meet inf − inf and 0·inf)."""

    @staticmethod
    def _random(rng, big):
        n = rng.randint(2, 4)
        bps = sorted({qa(Fraction(rng.randint(-6, 6), rng.choice((1, 2))),
                         rng.randint(-1, 1)) for _ in range(n)},
                     key=W.evaluate)
        if len(bps) < 2:
            return PiecewisePoly()
        scale = 1e200 if big else 1.0

        def coeff():
            return complex(rng.choice((0.0, -0.0, rng.uniform(-1, 1))),
                           rng.choice((0.0, rng.uniform(-1, 1)))) * scale

        return PiecewisePoly(tuple(bps), tuple(
            tuple(coeff() for _ in range(rng.randint(0, 4)))
            for _ in range(len(bps) - 1)))

    def test_random_pairs(self):
        rng = random.Random(25)
        saw_inf = saw_nan = False
        for _ in range(400):
            big = rng.random() < 0.5
            f = self._random(rng, big)
            g = self._random(rng, big)
            if big:  # products of 1e200-sized coefficients overflow
                f, g = f * self._random(rng, True), g * self._random(rng, True)
            got, want = f.distance(g), _distance_by_sum(f, g)
            assert struct.pack("d", got) == struct.pack("d", want)
            saw_inf |= got == math.inf
            saw_nan |= math.isnan(got)
        assert saw_inf and saw_nan

    def test_empty_and_unequal_pieces(self):
        f = PiecewisePoly((0, 1, 2), ((), (1.0, 2j, -0.5)))
        g = PiecewisePoly((0, 1, 2), ((3.0,), (1.0,)))
        for x, y in ((f, g), (g, f), (f, PiecewisePoly()), (f, f)):
            assert x.distance(y).hex() == _distance_by_sum(x, y).hex()
        assert f.distance(g) == 3.0
