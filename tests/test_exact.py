"""Exact number layer: Q+Qα scalars, the order witness, affine maps."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasifolds.errors import PrecisionInsufficientError
from quasifolds.exact import (AffineElement, AlphaWitness, QAlpha, Trit,
                              affine_from_point_images, compare,
                              default_witness, mat_det, mat_inv, mat_mul,
                              mat_vec, qa, solve_linear, vec_eq)


class TestQAlpha:
    def test_arithmetic(self):
        a = qa(Fraction(1, 2), 3)
        b = qa(2, Fraction(-1, 2))
        assert a + b == qa(Fraction(5, 2), Fraction(5, 2))
        assert a - b == qa(Fraction(-3, 2), Fraction(7, 2))
        assert -a == qa(Fraction(-1, 2), -3)
        assert a.scale(Fraction(2, 3)) == qa(Fraction(1, 3), 2)

    def test_rational_multiplication_only(self):
        a = qa(1, 1)
        assert a * 2 == qa(2, 2)
        with pytest.raises(TypeError):
            a * qa(0, 1)  # α² has no representation here

    def test_predicates(self):
        assert qa(3).is_rational
        assert not qa(3, 1).is_rational
        assert qa(0, 0).is_zero

    def test_mod1_reduces_only_the_rational_part(self):
        assert qa(Fraction(7, 2), -2).mod1() == qa(Fraction(1, 2), -2)
        assert qa(-3, 5).mod1() == qa(0, 5)
        assert qa(Fraction(-1, 4)).mod1() == qa(Fraction(3, 4))

    def test_str_parse_round_trip(self):
        for v in (qa(0), qa(Fraction(-7, 3)), qa(0, 2), qa(Fraction(1, 2), -1)):
            assert QAlpha.parse(str(v)) == v

    @settings(max_examples=300, deadline=None)
    @given(st.integers(), st.integers(min_value=1),
           st.integers(), st.integers(min_value=1),
           st.sampled_from([1, 10 ** 30]))
    @example(0, 1, 0, 1, 1)
    @example(-6, 4, 0, 1, 1)
    @example(0, 1, 2, 4, 1)
    @example(1, 3, -1, 2, 1)
    def test_str_matches_fraction_text(self, n, d, m, e, big):
        # the text is built from the integer triple; it must read as the
        # reduced Fractions' own str did
        p, q = Fraction(n * big, d), Fraction(-m, e * big)
        if q:
            want = f"α*{q}" if not p else f"{p}+α*{q}"
        else:
            want = str(p)
        assert str(QAlpha(p, q)) == want
        assert str(QAlpha(p)) == str(p)

    def test_parse_forms(self):
        assert QAlpha.parse("5") == qa(5)
        assert QAlpha.parse("α") == qa(0, 1)
        assert QAlpha.parse("alpha") == qa(0, 1)
        assert QAlpha.parse("1/2+α*3") == qa(Fraction(1, 2), 3)
        assert QAlpha.parse("-1+alpha*-2/3") == qa(-1, Fraction(-2, 3))
        with pytest.raises(ValueError):
            QAlpha.parse("one plus alpha")

    @pytest.mark.parametrize("text", [
        "2α", "3alpha", "α+1", "α-1", "2α+3", "1/2α",
        "α*", "αα", "α*2α", "1++α", "+-α", "α2",
        "1e3", "2.5E-1", "1e9999999", "α*1e9999999",
    ])
    def test_parse_rejects_text_outside_the_grammar(self, text):
        # the grammar is p, α or [p±]α[*q]: no implicit product, no term
        # after α, no exponent ("1e9999999" would build a ten-million-digit
        # integer)
        with pytest.raises(ValueError):
            QAlpha.parse(text)

    @pytest.mark.parametrize("text, value", [
        ("-α", qa(0, -1)), ("+alpha", qa(0, 1)), ("3-α", qa(3, -1)),
        ("1/2+alpha*-3", qa(Fraction(1, 2), -3)), (" 1 - α * 2 ", qa(1, -2)),
    ])
    def test_parse_accepts_signed_forms(self, text, value):
        assert QAlpha.parse(text) == value
        assert QAlpha.parse(str(value)) == value

    def test_sort_key_is_total_on_representations(self):
        vals = [qa(1, 0), qa(0, 1), qa(0, 0), qa(1, -1)]
        ordered = sorted(vals, key=lambda v: v.sort_key())
        assert ordered[0] == qa(0, 0)


class TestAlphaWitness:
    def test_golden_value_order(self):
        w = default_witness()
        # 1/2 < α < 2/3 for the golden conjugate
        assert w.compare(qa(Fraction(1, 2)), qa(0, 1)) == -1
        assert w.compare(qa(Fraction(2, 3)), qa(0, 1)) == 1
        assert w.compare(qa(0, 1), qa(0, 1)) == 0

    def test_compare_raises_inside_margin(self):
        w = AlphaWitness.from_decimal_string("0.5", digits=6, margin_digits=3)
        # α is declared only to ~1e-6; a query within the margin must refuse
        with pytest.raises(PrecisionInsufficientError):
            w.compare(qa(Fraction(1, 2), 0), qa(0, 1))

    def test_golden_identity_floats(self):
        w = default_witness()
        a = w.to_float(qa(0, 1))
        assert math.isclose(a * a + a, 1.0, abs_tol=1e-12)

    def test_negated(self):
        w = default_witness()
        assert w.negated().to_float(qa(0, 1)) == -w.to_float(qa(0, 1))

    def test_module_level_compare(self):
        assert compare(qa(0), qa(1)) == -1

    def test_fibonacci_near_ties_raise_rather_than_guess(self):
        # F_n·α − F_{n−1} = (−1)^(n+1)·α^n for the golden conjugate: tiny
        # values with large coefficients, where the evaluation error grows
        w = default_witness()
        fib = [0, 1]
        while len(fib) <= 379:
            fib.append(fib[-1] + fib[-2])
        for n in range(1, 380):
            x = qa(-fib[n - 1], fib[n])
            sign = 1 if n % 2 else -1
            try:
                got = w.compare(x)
            except PrecisionInsufficientError:
                assert n > 90, f"n = {n} must get a sign"
                continue
            assert n < 100, f"n = {n} must raise"
            assert got == sign, f"wrong sign at n = {n}"

    def test_margin_scales_with_the_difference_not_the_operands(self):
        w = default_witness()
        big = 10 ** 45
        # x − y is formed exactly, so large common parts cancel first
        assert w.compare(qa(big + Fraction(1, 10 ** 5), big), qa(big, big)) == 1


class TestTrit:
    def test_no_implicit_truthiness(self):
        with pytest.raises(TypeError):
            bool(Trit.TRUE)
        assert Trit.TRUE is Trit.TRUE


def gauss_jordan_oracle(a, rhs):
    """Gauss–Jordan over Fraction, leftmost pivots, free variables zero: the
    solver `solve_linear` used before it eliminated over the integers."""
    rows, cols = len(a), len(a[0]) if a else 0
    m = [[Fraction(x) for x in row] + [Fraction(rhs[i])]
         for i, row in enumerate(a)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if m[i][cols] != 0:
            return "none", None
    x = [Fraction(0)] * cols
    for row_idx, c in enumerate(pivots):
        x[c] = m[row_idx][cols]
    return ("unique" if len(pivots) == cols else "many"), x


def det_oracle(a):
    """Determinant by Gaussian elimination over Fraction: the `mat_det` used
    before one fraction-free elimination served all three routines."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def inv_oracle(a):
    """Inverse by Gauss–Jordan on [a | I] over Fraction: the `mat_inv` used
    before one fraction-free elimination served all three routines."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def square_matrices(draw):
    """n×n rational matrices, n ≤ 4, with zero rows, repeated rows and
    leading zeros that force row swaps."""
    n = draw(st.integers(1, 4))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["random", "random", "zero", "repeat",
                                     "leading-zero"]))
        if kind == "zero":
            row = [Fraction(0)] * n
        elif kind == "repeat" and rows:
            row = list(rows[draw(st.integers(0, len(rows) - 1))])
        else:
            row = [draw(small_fractions) for _ in range(n)]
            if kind == "leading-zero":
                row[0] = Fraction(0)
        rows.append(tuple(row))
    return tuple(rows)


@st.composite
def linear_systems(draw):
    """Systems up to 4×4 with zero columns, rows that are combinations of
    earlier rows, and right-hand sides that may break the dependency."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=cols))
    a, rhs = [], []
    for _ in range(rows):
        if a and draw(st.booleans()):
            k1, k2 = draw(small_fractions), draw(small_fractions)
            i, j = draw(st.integers(0, len(a) - 1)), draw(st.integers(0, len(a) - 1))
            row = [k1 * x + k2 * y for x, y in zip(a[i], a[j])]
            value = k1 * rhs[i] + k2 * rhs[j]
            if draw(st.booleans()):
                value += draw(small_fractions)  # often inconsistent
        else:
            row = [draw(small_fractions) for _ in range(cols)]
            value = draw(small_fractions)
        a.append([Fraction(0) if c in zero_cols else x
                  for c, x in enumerate(row)])
        rhs.append(value)
    return a, rhs


class TestMatrices:
    def test_det_inv_mul(self):
        m = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
        assert mat_det(m) == 1
        inv = mat_inv(m)
        prod = mat_mul(m, inv)
        assert prod == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))

    def test_solve_unique_none_many(self):
        status, sol = solve_linear([[Fraction(2)]], [Fraction(3)])
        assert status == "unique" and sol == [Fraction(3, 2)]
        status, _ = solve_linear([[Fraction(1)], [Fraction(1)]],
                                 [Fraction(0), Fraction(1)])
        assert status == "none"
        status, _ = solve_linear([[Fraction(1), Fraction(1)]], [Fraction(1)])
        assert status == "many"

    @settings(max_examples=200, deadline=None)
    @given(linear_systems())
    def test_solve_matches_fraction_gauss_jordan(self, system):
        a, rhs = system
        got = solve_linear(a, rhs)
        assert got == gauss_jordan_oracle(a, rhs)
        if got[1] is not None:
            assert all(type(x) is Fraction for x in got[1])

    @settings(max_examples=300, deadline=None)
    @given(square_matrices(), st.data())
    def test_det_inv_solve_match_fraction_elimination(self, m, data):
        det = mat_det(m)
        assert type(det) is Fraction and det == det_oracle(m)
        try:
            expected = inv_oracle(m)
        except ZeroDivisionError:
            assert det == 0
            with pytest.raises(ZeroDivisionError, match="singular matrix"):
                mat_inv(m)
        else:
            got = mat_inv(m)
            assert got == expected
            assert all(type(x) is Fraction for row in got for x in row)
        rhs = [data.draw(small_fractions) for _ in m]
        assert solve_linear(m, rhs) == gauss_jordan_oracle(m, rhs)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(st.lists(small_fractions, min_size=n, max_size=n),
                 min_size=1, max_size=4),
        st.lists(st.tuples(small_fractions, small_fractions),
                 min_size=n, max_size=n))))
    def test_mat_vec_is_the_row_sum(self, case):
        a, pairs = case
        vec = [qa(p, q) for p, q in pairs]
        expected = tuple(
            qa(sum((c * v.p for c, v in zip(row, vec)), Fraction(0)),
               sum((c * v.q for c, v in zip(row, vec)), Fraction(0)))
            for row in a)
        assert mat_vec(a, vec) == expected

    def test_solve_accepts_mixed_int_and_fraction_entries(self):
        a = [[2, Fraction(1, 3)], [Fraction(-1, 2), 4]]
        rhs = [1, Fraction(5, 7)]
        assert solve_linear(a, rhs) == gauss_jordan_oracle(a, rhs)


class TestAffineElement:
    def test_compose_is_function_composition(self):
        g = AffineElement.translation((qa(1, 2),))
        h = AffineElement.linear(((Fraction(3),),))
        x = (qa(Fraction(1, 2), -1),)
        assert g.compose(h).apply(x) == g.apply(h.apply(x))

    def test_invert(self):
        g = AffineElement(((Fraction(2), Fraction(1)),
                           (Fraction(1), Fraction(1))),
                          (qa(1, 1), qa(0, -2)))
        gi = g.invert()
        x = (qa(2, 1), qa(Fraction(1, 3)))
        assert vec_eq(gi.apply(g.apply(x)), x)
        assert g.compose(gi).is_identity

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            AffineElement(((Fraction(1), Fraction(1)),
                           (Fraction(1), Fraction(1))), (qa(0), qa(0)))

    def test_translation_predicates(self):
        t = AffineElement.translation((qa(0, 1),))
        assert t.is_translation and not t.is_identity
        assert AffineElement.identity(2).is_identity

    def test_json_round_trip(self):
        g = AffineElement(((Fraction(1, 2),),), (qa(Fraction(1, 2), 1),))
        assert AffineElement.from_json(g.to_json()) == g

    def test_affine_rigidity_from_point_images(self):
        g = AffineElement(((Fraction(2), Fraction(0)),
                           (Fraction(1), Fraction(1))), (qa(0, 1), qa(-1)))
        pts = [(qa(0), qa(0)), (qa(1), qa(0)), (qa(0), qa(1))]
        images = [g.apply(p) for p in pts]
        assert affine_from_point_images(pts, images) == g


# the Mersenne prime 2⁶¹ − 1: Python's hash modulus on 64-bit builds
MODULUS = 2 ** 61 - 1


@pytest.mark.parametrize("p, q", [
    (Fraction(3, MODULUS), 0),
    (Fraction(-3, MODULUS), 0),
    (Fraction(1, 2), Fraction(5, 2 * MODULUS)),
    (Fraction(7, 3 * MODULUS), Fraction(-1, MODULUS)),
])
def test_hash_when_the_modulus_divides_the_denominator(p, q):
    """d has no inverse mod the hash modulus, so the cached hash falls back
    to hashing the Fraction; the value is still that of the pair (p, q),
    which keeps set and dict orders the same as before hashes were cached."""
    assert sys.hash_info.modulus == MODULUS
    x = qa(p, q)
    assert x.triple[2] % MODULUS == 0
    # computed, then read from the cache
    assert hash(x) == hash(x) == hash((p, Fraction(q)))
