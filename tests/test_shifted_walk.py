"""The shifted walk and the equal-grid shortcut of `PiecewisePoly._aligned`.

A line product aligns f_a(· + s) with g_s by walking f_a's own breakpoints
with the exact shift s (`_aligned(..., s=s)`), with enclosures computed once
per product, instead of building `f_a.shift_arg(s)` and walking that.  The
first tests compare the two walks: the same grid values, the same live
intervals, the same coefficient bits, and the same exception, under the
golden witness and √2 − 1 at 80 digits, on breakpoints and shifts with no
binary64 enclosure (|a| ≥ 2⁵³ or d ≥ 2⁵³) and on Fibonacci near-tie shifts.
The last tests check that operands with equal breakpoint tuples, which skip
the walk, give the bits of the sort-based oracle for `+`, `*` and
`distance`.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasifolds.coefficients import PiecewisePoly
from quasifolds.errors import PrecisionInsufficientError
from quasifolds.exact import (AlphaWitness, default_witness, qa,
                              set_default_witness)
from test_coefficients import (W, _bits, _fibonacci_near_tie,
                               _sorted_binary, _sorted_distance)
from test_filtered_order import SQRT2_80

TWO_53 = 2 ** 53
NEAR_TIE = _fibonacci_near_tie()

small = st.builds(qa, st.fractions(min_value=-3, max_value=3,
                                   max_denominator=4), st.integers(-2, 2))
# values with no enclosure: a numerator or a denominator past 2⁵³
huge = st.builds(lambda k, m: qa(TWO_53 + k, m), st.integers(-3, 3),
                 st.integers(-1, 1))
fine = st.builds(lambda k: qa(Fraction(k, 2 ** 60)), st.integers(-3, 3))
points = st.one_of(small, huge, fine)
shifts = st.one_of(
    small, huge,
    st.builds(lambda k: qa(TWO_53 + k), st.integers(-2, 2)),
    st.builds(lambda k: NEAR_TIE + qa(k), st.integers(-3, 3)),
    st.builds(lambda k: qa(k) - NEAR_TIE, st.integers(-3, 3)),
    st.just(qa(0)))
pieces = st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                     allow_infinity=False),
                  max_size=3).map(tuple)


@st.composite
def piecewise(draw):
    bps = sorted(draw(st.sets(points, min_size=2, max_size=5)),
                 key=default_witness().evaluate)
    try:
        return PiecewisePoly(tuple(bps), tuple(
            draw(pieces) for _ in range(len(bps) - 1)))
    except PrecisionInsufficientError:  # two drawn points tie at α̂
        return PiecewisePoly()


def walk_bits(walk):
    """The grid, which intervals each operand is live on, and the bits of
    every coefficient, of an `_aligned` result or the exception it raised."""
    try:
        grid, mine, theirs = walk()
    except PrecisionInsufficientError:
        return "raises"
    return (grid, [bool(p) for p in mine], [bool(p) for p in theirs],
            [piece_bits(p) for p in mine], [piece_bits(p) for p in theirs])


def piece_bits(piece) -> tuple:
    return tuple((c.real.hex(), c.imag.hex()) for c in piece)


def both_walks(f, g, s, overlap):
    """(shifted walk, walk of the shifted copy), each with and without the
    caller's enclosures and shift dict."""
    memo = {}
    walk_bits(lambda: f._aligned(g, overlap, s, memo))
    copy = f.shift_arg(s)
    got = [walk_bits(lambda: f._aligned(g, overlap, s=s)),
           walk_bits(lambda: f._aligned(g, overlap, s, memo))]
    want = walk_bits(lambda: copy._aligned(g, overlap))
    assert walk_bits(lambda: copy._aligned(g, overlap, memo={})) == want
    return got, want


WITNESSES = pytest.mark.parametrize("witness", [W, SQRT2_80],
                                    ids=["golden", "sqrt2-80"])


@WITNESSES
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_shifted_walk_is_the_walk_of_the_shifted_copy(witness, data):
    set_default_witness(witness)
    f, g = data.draw(piecewise()), data.draw(piecewise())
    s = data.draw(shifts)
    overlap = data.draw(st.booleans())
    got, want = both_walks(f, g, s, overlap)
    assert got == [want, want]


@pytest.mark.parametrize("k", range(-1, 3))
def test_near_tie_shift_raises_as_the_copy_does(k):
    """f(· + s) with s = k − x, x = F₁₄₄·α − F₁₄₃ ≈ −8e-31: f's breakpoints
    j read j − k + x, within 1e-30 of g's j − k, which the golden witness
    cannot order and a 130-digit witness can."""
    f = PiecewisePoly((qa(0), qa(1), qa(2)), ((1.0, 0.5j), (2.0,)))
    g = PiecewisePoly((qa(-k), qa(1 - k)), ((3.0, -1.0),))
    s = qa(k) - NEAR_TIE
    for overlap in (False, True):
        got, want = both_walks(f, g, s, overlap)
        assert want == "raises" and got == [want, want]
    set_default_witness(AlphaWitness.golden(digits=130))
    for overlap in (False, True):
        got, want = both_walks(f, g, s, overlap)
        assert want != "raises" and got == [want, want]


def test_breakpoints_and_shift_without_enclosures():
    f = PiecewisePoly((qa(TWO_53), qa(TWO_53 + 1), qa(TWO_53 + 3)),
                      ((1.0, 2.0), (0.5j,)))
    g = PiecewisePoly((qa(0), qa(Fraction(1, 2 ** 60)), qa(2)),
                      ((1j,), (1.0, -1.0)))
    s = qa(TWO_53 + 1)  # f(· + s) lives on [−1, 2], breaking at 0 and 2 as g
    assert W.enclose(f.breakpoints[0]) is None and W.enclose(s) is None
    for overlap in (False, True):
        got, want = both_walks(f, g, s, overlap)
        assert want != "raises" and got == [want, want]
        assert want[0] == [qa(-1), qa(0), g.breakpoints[1], qa(2)]


@settings(max_examples=200, deadline=None)
@given(x=points, y=points, s=shifts)
@example(x=qa(1), y=qa(0), s=qa(1) - NEAR_TIE)
def test_order_with_a_shift_is_compare_of_the_difference(x, y, s):
    w = default_witness()
    try:
        want = w.compare(x - s, y)
    except PrecisionInsufficientError:
        with pytest.raises(PrecisionInsufficientError):
            w.order(x, y, w.enclose(x), w.enclose(y), s, w.enclose(s))
        return
    assert w.order(x, y, w.enclose(x), w.enclose(y), s, w.enclose(s)) == want
    assert w.order(x, y, None, None, s, None) == want


# ---------------------------------------------------------------------------
# equal breakpoint tuples: no walk
# ---------------------------------------------------------------------------

any_pieces = st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                         allow_infinity=False),
                      max_size=4).map(tuple)


@st.composite
def equal_grids(draw):
    """Two operands on one breakpoint tuple (equal, not always the same
    object), pieces of any lengths, empty ones included."""
    bps = sorted(draw(st.sets(small, min_size=2, max_size=5)),
                 key=W.evaluate)
    n = len(bps) - 1
    f = PiecewisePoly(tuple(bps), tuple(draw(any_pieces) for _ in range(n)))
    if draw(st.booleans()):
        return f, f
    other = tuple(bps) if draw(st.booleans()) else tuple(
        qa(b.p, b.q) for b in bps)
    return f, PiecewisePoly(other, tuple(draw(any_pieces) for _ in range(n)))


class _NoWalk:
    def enclose(self, x):
        raise AssertionError("equal grids were walked")

    order = compare = enclose


@settings(max_examples=150, deadline=None)
@given(equal_grids())
def test_equal_grids_match_the_sorted_oracle(pair):
    f, g = pair
    assert f.breakpoints == g.breakpoints
    want = (_sorted_binary(f, g, add=True), _sorted_binary(f, g, add=False),
            _sorted_distance(f, g).hex())
    witness = default_witness()
    set_default_witness(_NoWalk())
    try:
        got = (_bits(f + g), _bits(f * g), f.distance(g).hex())
    finally:
        set_default_witness(witness)
    assert got == want


def test_equal_grids_of_empty_and_zero_pieces():
    bps = (qa(0), qa(0, 1), qa(1))
    f = PiecewisePoly(bps, ((), (0j, -0.0)))
    g = PiecewisePoly(bps, ((1.0, 2j), ()))
    for x, y in ((f, g), (g, f), (f, f), (PiecewisePoly(), PiecewisePoly())):
        assert _bits(x + y) == _sorted_binary(x, y, add=True)
        assert _bits(x * y) == _sorted_binary(x, y, add=False)
        assert x.distance(y).hex() == _sorted_distance(x, y).hex()
    assert f._aligned(g) == ([*bps], [*f.pieces], [*g.pieces])
