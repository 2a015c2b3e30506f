"""The shifted overlap walk and the equal-grid shortcuts of `PiecewisePoly`.

A line product walks f_a(· + s) against g_s over the overlap of their
supports only (`coefficients._overlap`), reading f_a's own breakpoints
with the exact shift s and enclosures fetched once per product, instead
of building `f_a.shift_arg(s)` and walking that; `+` and `distance` walk
the union of the breakpoints (`PiecewisePoly._aligned`), unshifted.  The
first tests compare the shifted walk with the walk of the shifted copy:
the same grid values, the same live intervals, the same coefficient bits,
and the same exception, with and without a memo warmed by an earlier walk,
under the golden witness and √2 − 1 at 80 digits, on breakpoints and
shifts with no binary64 enclosure (|a| ≥ 2⁵³ or d ≥ 2⁵³) and on Fibonacci
near-tie shifts.  The overlap walk is also the union walk of the shifted
copy cut to the overlap.  The last tests check that operands with equal
breakpoint tuples, which skip the walk, give the bits of the sort-based
oracle for `+`, `*` and `distance`.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasifolds.coefficients import PiecewisePoly, _enclosed, _overlap
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


def piece_bits(piece) -> tuple:
    return tuple((c.real.hex(), c.imag.hex()) for c in piece)


def overlap_bits(f, g, s=None, memo=None):
    """The grid, the live flags and the bits of the rows appended, of the
    overlap walk of f(· + s) against g, or the exception it raised; the
    enclosures are fetched from `memo` (a fresh one when not given)."""
    memo = {} if memo is None else memo
    ef, eg = _enclosed(f, memo), _enclosed(g, memo)
    es = None if s is None else _enclosed(s, memo)[0]
    lefts, rights = [], []
    try:
        grid, live = _overlap(f, ef, g, eg, s, es, memo, lefts, rights)
    except PrecisionInsufficientError:
        return "raises"
    assert len(grid) == len(live) + 1 or grid == live == []
    assert len(lefts) == len(rights) == sum(live)
    return (grid, live, [piece_bits(p) for p in lefts],
            [piece_bits(p) for p in rights])


def both_overlaps(f, g, s):
    """(shifted overlap walk, overlap walk of the shifted copy), each with
    and without a memo warmed by a first shifted walk; the copy shares f's
    pieces, so it also hits that memo's Taylor shifts."""
    memo = {}
    overlap_bits(f, g, s, memo)
    copy = f.shift_arg(s)
    got = [overlap_bits(f, g, s), overlap_bits(f, g, s, memo)]
    want = overlap_bits(copy, g)
    assert overlap_bits(copy, g, None, memo) == want
    return got, want


def union_cut(f, g, s):
    """The overlap walk as read off the union walk of the shifted copy: its
    grid from the later start to the earlier end, live where both pieces
    there are nonempty, and those pieces."""
    try:
        grid, mine, theirs = f.shift_arg(s)._aligned(g)
    except PrecisionInsufficientError:
        return "raises"
    if not f.breakpoints or not g.breakpoints:
        return [], [], [], []
    lo = max(grid.index(f.breakpoints[0] - s), grid.index(g.breakpoints[0]))
    hi = min(grid.index(f.breakpoints[-1] - s),
             grid.index(g.breakpoints[-1]))
    live = [bool(mine[k] and theirs[k]) for k in range(lo, hi)]
    rows = [k for k, ok in zip(range(lo, hi), live) if ok]
    return (grid[lo:hi + 1], live, [piece_bits(mine[k]) for k in rows],
            [piece_bits(theirs[k]) for k in rows])


WITNESSES = pytest.mark.parametrize("witness", [W, SQRT2_80],
                                    ids=["golden", "sqrt2-80"])


@WITNESSES
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_shifted_overlap_is_the_overlap_of_the_shifted_copy(witness, data):
    set_default_witness(witness)
    f, g = data.draw(piecewise()), data.draw(piecewise())
    s = data.draw(shifts)
    got, want = both_overlaps(f, g, s)
    assert got == [want, want]
    assert want == union_cut(f, g, s)


@pytest.mark.parametrize("k", range(-1, 3))
def test_near_tie_shift_raises_as_the_copy_does(k):
    """f(· + s) with s = k − x, x = F₁₄₄·α − F₁₄₃ ≈ −8e-31: f's breakpoints
    j read j − k + x, within 1e-30 of g's j − k, which the golden witness
    cannot order and a 130-digit witness can."""
    f = PiecewisePoly((qa(0), qa(1), qa(2)), ((1.0, 0.5j), (2.0,)))
    g = PiecewisePoly((qa(-k), qa(1 - k)), ((3.0, -1.0),))
    s = qa(k) - NEAR_TIE
    got, want = both_overlaps(f, g, s)
    assert want == "raises" and got == [want, want]
    assert union_cut(f, g, s) == "raises"
    set_default_witness(AlphaWitness.golden(digits=130))
    got, want = both_overlaps(f, g, s)
    assert want != "raises" and got == [want, want]
    assert want == union_cut(f, g, s)


def test_breakpoints_and_shift_without_enclosures():
    f = PiecewisePoly((qa(TWO_53), qa(TWO_53 + 1), qa(TWO_53 + 3)),
                      ((1.0, 2.0), (0.5j,)))
    g = PiecewisePoly((qa(0), qa(Fraction(1, 2 ** 60)), qa(2)),
                      ((1j,), (1.0, -1.0)))
    s = qa(TWO_53 + 1)  # f(· + s) lives on [−1, 2], breaking at 0 and 2 as g
    assert W.enclose(f.breakpoints[0]) is None and W.enclose(s) is None
    assert f.shift_arg(s)._aligned(g)[0] == [qa(-1), qa(0),
                                             g.breakpoints[1], qa(2)]
    got, want = both_overlaps(f, g, s)
    assert want != "raises" and got == [want, want]
    assert want[:2] == ([qa(0), g.breakpoints[1], qa(2)], [True, True])
    assert want == union_cut(f, g, s)


def test_overlap_stops_where_an_operand_ends():
    """Touching supports give one grid point and no live interval, apart
    ones none; an interior empty piece is never live, and its partner is
    not shifted to it."""
    f = PiecewisePoly((qa(0), qa(1), qa(2), qa(3)), ((1.0,), (), (2.0, 1j)))
    touching = PiecewisePoly((qa(3), qa(4)), ((1.0,),))
    apart = PiecewisePoly((qa(5), qa(6)), ((1.0,),))
    assert overlap_bits(f, touching) == ([qa(3)], [], [], [])
    assert overlap_bits(touching, f) == ([qa(3)], [], [], [])
    assert overlap_bits(f, touching, qa(1)) == ([], [], [], [])
    assert overlap_bits(f, apart) == overlap_bits(apart, f) == ([], [], [], [])
    half = qa(Fraction(1, 2))
    g = PiecewisePoly((half, qa(Fraction(5, 2))), ((1j, 1.0),))
    memo = {}
    grid, live, lefts, rights = overlap_bits(f, g, None, memo)
    assert grid == [half, qa(1), qa(2), qa(Fraction(5, 2))]
    assert live == [True, False, True]
    assert rights[0] == piece_bits(g.pieces[0])
    # g's piece is shifted to 2 only, not to 1, where f's piece is empty
    g_shifts = [key[1] for key in memo
                if isinstance(key, tuple) and key[0] == id(g.pieces[0])]
    assert g_shifts == [qa(Fraction(3, 2))]
    assert (grid, live, lefts, rights) == union_cut(f, g, qa(0))


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
