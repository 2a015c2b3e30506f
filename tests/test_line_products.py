"""The line product is bitwise the per-pair product on the sort-based grid.

`convolve_closed_form` on a `LineModel` skips the pairs whose supports the
witness's float enclosures prove disjoint, and multiplies the rest through
the ordered breakpoint walk, which Taylor-shifts only where both factors
are live.  The oracle here is the per-pair sum Σ f_a(· + s)·g_s in
(s outer, a inner) order, with every product and every sum aligned by the
sort-based alignment of `test_coefficients` (a hash-set union of the
breakpoints sorted on witness values), so it shares no code with the walk,
the skip or the batched kernel.  Keys, key order, breakpoints and every
coefficient's real and imaginary parts are compared as packed doubles.  The
last tests check the plan itself: one batched product call, no per-pair
product kernel, each Taylor shift once per call, no state left behind.
"""

import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasifolds import _kernels, algebra
from quasifolds._kernels import _ref
from quasifolds.algebra import (AlgebraElement, LineModel,
                                convolve_closed_form, convolve_general,
                                involute, random_line_element)
from quasifolds.catalog import z_alpha_lattice
from quasifolds.coefficients import PiecewisePoly
from quasifolds.errors import PrecisionInsufficientError
from quasifolds.exact import default_witness, qa, set_default_witness
from test_coefficients import W, _fibonacci_near_tie, _Raw, _sorted_op
from test_filtered_order import SQRT2_80

MODEL = LineModel(z_alpha_lattice())


def per_pair(f: AlgebraElement, g: AlgebraElement) -> list:
    """[(key, breakpoints, pieces)] of f·g, summed pair by pair on the
    sort-based grid, zero keys dropped, in report order."""
    out = {}
    for s, cs in g.support:
        for a, ca in f.support:
            shifted = _Raw(tuple(b - s for b in ca.breakpoints), ca.pieces)
            term = _sorted_op(shifted, cs, add=False)
            key = a + s
            out[key] = _sorted_op(out[key], term, add=True) \
                if key in out else term
    live = [(k, c) for k, c in out.items()
            if any(x != 0 for p in c.pieces for x in p)]
    live.sort(key=lambda kc: kc[0].sort_key())
    return [(k, tuple(c.breakpoints), packed_pieces(c)) for k, c in live]


def packed_pieces(c) -> tuple:
    return tuple(tuple(struct.pack("dd", x.real, x.imag) for x in p)
                 for p in c.pieces)


def packed(e: AlgebraElement) -> list:
    return [(k, c.breakpoints, packed_pieces(c)) for k, c in e.support]


def assert_bitwise(f, g):
    got = convolve_closed_form(f, g)
    assert packed(got) == per_pair(f, g)
    return got


def element(entries):
    return AlgebraElement(MODEL, tuple(
        (k, PiecewisePoly(tuple(bps), tuple(pieces)))
        for k, bps, pieces in entries))


# ---------------------------------------------------------------------------
# the acceptance corpus (criterion-03/04): pairs, products of products and
# involutes
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(31)
    return [random_line_element(rng, MODEL, n_keys=5, degree=8)
            for _ in range(200)]


def test_corpus_pairs(corpus):
    for f, g in zip(corpus, corpus[1:]):
        assert_bitwise(f, g)


def test_corpus_products_of_products_and_involutes(corpus):
    for i in range(0, 90, 3):
        f, g, h = corpus[i:i + 3]
        fg = assert_bitwise(f, g)
        gh = assert_bitwise(g, h)
        assert_bitwise(fg, h)
        assert_bitwise(f, gh)
        assert_bitwise(involute(g), involute(f))


# ---------------------------------------------------------------------------
# edge cases
# ---------------------------------------------------------------------------

def test_empty_factors():
    f = random_line_element(random.Random(1), MODEL)
    zero = AlgebraElement(MODEL)
    for x, y in ((zero, f), (f, zero), (zero, zero)):
        assert assert_bitwise(x, y).is_zero


def test_disjoint_supports_give_zero_without_a_shift(monkeypatch):
    f = element([(qa(n, 1), (qa(0), qa(1)), [(1.0, 0.5j)]) for n in (0, 1)])
    g = element([(qa(0, m), (qa(20), qa(21)), [(2.0,)]) for m in (-1, 0)])
    shifts = []
    original = PiecewisePoly.shift_arg

    def counting(self, s):
        shifts.append(s)
        return original(self, s)

    monkeypatch.setattr(PiecewisePoly, "shift_arg", counting)
    assert assert_bitwise(f, g).is_zero
    assert assert_bitwise(g, f).is_zero
    assert shifts == []


def test_supports_that_touch_exactly():
    # f(· + 1) lives on [−1, 0] and g_1 on [0, 1]; f(· + α) on
    # [−α, 1 − α] and g_α on [1 − α, 2 − α]: hi − s == lo
    f = element([(qa(0), (qa(0), qa(1)), [(1.0, 2.0)])])
    g = element([(qa(1), (qa(0), qa(1)), [(3.0, -1j)]),
                 (qa(0, 1), (qa(1, -1), qa(2, -1)), [(1j,)])])
    assert assert_bitwise(f, g).is_zero
    assert_bitwise(g, f)


def test_keys_whose_only_contributions_are_zero():
    # key 1: two products that cancel exactly; keys 0 and 2: supports that
    # touch; keys 5α and 5α − 1: disjoint supports
    f = element([(qa(1), (qa(0), qa(1)), [(1.0, 1j)]),
                 (qa(2), (qa(-1), qa(0)), [(1.0, 1j)]),
                 (qa(0, 5), (qa(10), qa(11)), [(2.0,)])])
    g = element([(qa(0), (qa(0), qa(1)), [(3.0, -1.0)]),
                 (qa(-1), (qa(0), qa(1)), [(-3.0, 1.0)])])
    assert assert_bitwise(f, g).is_zero


def test_fractional_and_alpha_breakpoints():
    third, half = qa(Fraction(1, 3)), qa(Fraction(1, 2))
    f = element([(qa(0, 1), (qa(0), third, qa(0, 1), qa(1)),
                  [(1.0, -0.5), (0.25j, 1.0, 0.5), (2.0,)]),
                 (qa(-1, 2), (half + qa(0, -1), half, qa(1, 1)),
                  [(1 - 1j,), (0.5, 0.5)])])
    g = element([(qa(1, -1), (qa(Fraction(-1, 4), 1), qa(Fraction(2, 3), 1)),
                  [(1.0, 1.0, 1.0)]),
                 (qa(0), (qa(0), third, qa(1, 1)), [(1j,), (-2.0, 0.125)])])
    assert_bitwise(f, g)
    assert_bitwise(g, f)


def test_shifted_breakpoints_that_coincide_with_the_other_factors():
    # s = 1 + α moves f's grid {α, 1/2 + α, 1 + α, 3/2 + α} onto
    # {−1, −1/2, 0, 1/2}, two of which are g's breakpoints
    bps = (qa(0, 1), qa(Fraction(1, 2), 1), qa(1, 1), qa(Fraction(3, 2), 1))
    f = element([(qa(0), bps, [(1.0, 0.5), (2j,), (0.25, -1.0, 0.5)])])
    g = element([(qa(1, 1), (qa(0), qa(Fraction(1, 2)), qa(1)),
                  [(1.0, 1j), (-0.5,)])])
    ((_, c),) = assert_bitwise(f, g).support
    assert c.breakpoints == (qa(0), qa(Fraction(1, 2)))


def test_breakpoints_without_a_float_enclosure():
    # a denominator past 2⁵³ sends the walk and the skip to certified
    # `compare`, with the same bits
    tiny = qa(Fraction(1, 2 ** 60))
    f = element([(qa(0), (qa(0), tiny, qa(1)), [(1.0,), (2.0, 1j)])])
    g = element([(qa(0), (tiny, qa(1)), [(3.0,)]),
                 (qa(5), (qa(-4), qa(-3)), [(1.0,)])])
    assert W.enclose(tiny) is None
    assert_bitwise(f, g)
    assert_bitwise(g, f)


def test_interior_empty_piece_against_the_other_factor():
    # f_0 = (p, (), q) on [0, 3] has an empty piece on [1, 2]; f_0(· + 1)
    # and f_0(· + α) carry that gap into the middle of g_1's and g_α's
    # pieces, so the products have an empty interior piece too
    f = element([(qa(0), (qa(0), qa(1), qa(2), qa(3)),
                  [(1.0, 0.5j), (), (2.0, -1.0)])])
    g = element([(qa(1), (qa(Fraction(-1, 2)), qa(Fraction(3, 2))),
                  [(1j, 1.0, 0.5)]),
                 (qa(0, 1), (qa(0), qa(2, -1), qa(3)),
                  [(0.25, 1j), (-1.0, 0.5, 2j)])])
    for x, y in ((f, g), (g, f)):
        want = per_pair(x, y)
        assert packed(convolve_general(x, y)) == want
        assert_bitwise(x, y)
        assert any(p == () for _, _, pieces in want for p in pieces)
    c = convolve_closed_form(f, g).coeff(qa(1))
    assert c.breakpoints == (qa(Fraction(-1, 2)), qa(0), qa(1),
                             qa(Fraction(3, 2)))
    assert c.pieces[1] == ()


# ---------------------------------------------------------------------------
# random elements, under the golden witness and under √2 − 1
# ---------------------------------------------------------------------------

parts = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
pieces = st.lists(st.builds(complex, parts, parts), min_size=1,
                  max_size=3).map(tuple)
points = st.builds(qa, st.fractions(min_value=-3, max_value=3,
                                    max_denominator=4), st.integers(-2, 2))


@st.composite
def coefficients(draw):
    """Pieces on 2 to 4 sorted points; an interior piece may be empty."""
    bps = sorted(draw(st.sets(points, min_size=2, max_size=4)),
                 key=lambda x: default_witness().evaluate(x))
    n = len(bps) - 1
    return PiecewisePoly(tuple(bps), tuple(
        draw(st.one_of(st.just(()), pieces) if 0 < k < n - 1 else pieces)
        for k in range(n)))


@st.composite
def elements(draw):
    keys = draw(st.lists(st.builds(qa, st.integers(-3, 3),
                                   st.integers(-2, 2)), max_size=4))
    return AlgebraElement(MODEL, tuple((k, draw(coefficients()))
                                       for k in keys))


@pytest.mark.parametrize("witness", [W, SQRT2_80], ids=["golden", "sqrt2"])
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_elements(witness, data):
    set_default_witness(witness)
    assert_bitwise(data.draw(elements()), data.draw(elements()))


# ---------------------------------------------------------------------------
# the plan: one batched product per call, Taylor shifts shared within it
# ---------------------------------------------------------------------------

def overlapping(rng):
    """Five keys mα, |m| ≤ 2, each on [0, 2] with two degree-8 pieces
    damped as in `random_line_element`: every shifted pair overlaps, so
    every product group is large."""
    return element([(qa(0, m), (qa(0), qa(1), qa(2)),
                     [tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                            * 0.5 ** d for d in range(9)) for _ in range(2)])
                    for m in range(-2, 3)])


def test_line_product_makes_no_per_pair_kernel_calls(monkeypatch):
    calls, rows = [], []

    def counting(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    for module in (_kernels, _ref):
        monkeypatch.setattr(module, "poly_mul",
                            counting("poly_mul", module.poly_mul))
    batched = algebra.poly_mul_rows
    monkeypatch.setattr(algebra, "poly_mul_rows",
                        lambda a, b: rows.append(len(a)) or batched(a, b))
    rng = random.Random(11)
    f, g = overlapping(rng), overlapping(rng)
    closed = convolve_closed_form(f, g)
    assert calls == [] and len(rows) == 1 and rows[0] > 0
    # the general route multiplies each live interval on its own
    general = convolve_general(f, g)
    assert calls.count("poly_mul") == rows[0]
    assert closed.keys() == general.keys() and closed.allclose(general, 1e-12)


def test_shift_dict_leaves_no_state():
    rng = random.Random(12)
    f, g = overlapping(rng), overlapping(rng)

    def state():
        objects = [f, g, MODEL, MODEL.group]
        objects += [c for e in (f, g) for _, c in e.support]
        return [{k: id(v) for k, v in vars(x).items()} for x in objects]

    before = state()
    convolve_closed_form(f, g)
    convolve_closed_form(g, f)
    assert state() == before


def test_each_shift_is_computed_once_per_call(monkeypatch):
    """The plan shifts each (piece, exact offset) once; the per-pair
    products shift some of them again for other pairs.  Shifts made while
    summing the products into their keys are not counted."""
    shifts, summing = [], []
    original = _kernels.poly_shift

    def recording(a, h):
        if not summing:
            shifts.append((tuple(c.hex() for x in a
                                 for c in (x.real, x.imag)), h.hex()))
        return original(a, h)

    def add_term(*args):
        summing.append(True)
        try:
            add(*args)
        finally:
            summing.pop()

    add = algebra._add_term
    monkeypatch.setattr(_kernels, "poly_shift", recording)
    monkeypatch.setattr(algebra, "_add_term", add_term)
    rng = random.Random(13)
    f, g = overlapping(rng), overlapping(rng)
    convolve_closed_form(f, g)
    planned, shifts[:] = list(shifts), []
    for s, cs in g.support:
        for _, ca in f.support:
            MODEL.key_shift(ca, s) * cs
    assert len(set(planned)) == len(planned) == len(set(shifts))
    assert len(planned) < len(shifts)


def test_near_tie_raises():
    # s = F₁₄₄·α − F₁₄₃ ≈ −8e-31: f(· + s) starts at −s, which the witness
    # cannot order against g's breakpoint 0
    s = _fibonacci_near_tie()
    f = element([(qa(0), (qa(0), qa(1)), [(1.0,)])])
    g = element([(s, (qa(0), qa(1)), [(1.0,)])])
    with pytest.raises(PrecisionInsufficientError):
        convolve_closed_form(f, g)
