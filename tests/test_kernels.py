"""The coefficient kernels agree with numpy on random inputs, including empty
and length-1 lists, and `quasifolds._kernels` re-exports the `_ref` functions
(qfbench wraps those names to count kernel calls).  The line product's
batched kernel is bitwise the per-row `_ref.poly_mul`, and `poly_shift` is
bitwise its earlier double loop, inf and NaN parts included."""

import itertools
import math
import random
import struct

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from quasifolds import _kernels
from quasifolds._kernels import _numpy, _ref

KERNELS = ("poly_mul", "poly_add", "poly_scale", "poly_eval", "poly_shift",
           "trig_mul", "trig_rotate", "trig_eval")
SIZES = (0, 1, 2, 5, 9)


def rand_poly(rng, n):
    return [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]


def close(got, want):
    np.testing.assert_allclose(np.asarray(got, dtype=complex),
                               np.asarray(want, dtype=complex),
                               rtol=1e-12, atol=1e-12)


def modes(off, n):
    return off + np.arange(n)


class TestReferenceKernels:
    def test_poly_mul_known_product(self):
        # (1 + x)(1 − x) = 1 − x²
        assert _ref.poly_mul([1, 1], [1, -1]) == [1, 0, -1]

    def test_poly_mul_empty(self):
        assert _ref.poly_mul([], [1, 2]) == []

    def test_poly_add_unequal_lengths(self):
        assert _ref.poly_add([1], [0, 2j]) == [1, 2j]

    def test_poly_eval_horner(self):
        # 2 + 3x + x² at x = 2
        assert _ref.poly_eval([2, 3, 1], 2.0) == 12

    def test_poly_shift_is_taylor_shift(self):
        rng = random.Random(0)
        a = rand_poly(rng, 5)
        h = 0.37
        shifted = _ref.poly_shift(a, h)
        for x in (-1.0, 0.0, 0.5):
            assert _ref.poly_eval(shifted, x) == pytest.approx(
                _ref.poly_eval(a, x + h))

    def test_trig_rotate_matches_eval(self):
        rng = random.Random(1)
        coeffs = rand_poly(rng, 4)
        off, t = -2, 0.31
        rotated = _ref.trig_rotate(off, coeffs, t)
        for x in (0.0, 0.4, 0.9):
            assert _ref.trig_eval(off, rotated, x) == pytest.approx(
                _ref.trig_eval(off, coeffs, x + t))


class TestNumpyOracle:
    def setup_method(self):
        self.rng = random.Random(42)

    def pairs(self):
        for n, m in itertools.product(SIZES, SIZES):
            yield rand_poly(self.rng, n), rand_poly(self.rng, m)

    def test_poly_mul(self):
        for a, b in self.pairs():
            got = _ref.poly_mul(a, b)
            if not a or not b:
                assert got == []
            else:
                assert len(got) == len(a) + len(b) - 1
                close(got, np.convolve(a, b))

    def test_poly_add(self):
        for a, b in self.pairs():
            n = max(len(a), len(b))
            want = (np.pad(np.asarray(a, dtype=complex), (0, n - len(a)))
                    + np.pad(np.asarray(b, dtype=complex), (0, n - len(b))))
            got = _ref.poly_add(a, b)
            assert len(got) == n
            close(got, want)

    def test_poly_scale(self):
        for n in SIZES:
            a = rand_poly(self.rng, n)
            s = complex(self.rng.uniform(-2, 2), self.rng.uniform(-2, 2))
            got = _ref.poly_scale(a, s)
            assert len(got) == n
            close(got, np.asarray(a, dtype=complex) * s)

    def test_poly_eval(self):
        for n in SIZES:
            a = rand_poly(self.rng, n)
            for x in (-1.3, 0.0, 0.7, 0.4 - 0.9j):
                want = polyval(x, a) if a else 0
                close(_ref.poly_eval(a, x), want)

    def test_poly_shift(self):
        for n in SIZES:
            a = rand_poly(self.rng, n)
            for h in (0.0, -1.2, 0.37):
                got = _ref.poly_shift(a, h)
                assert len(got) == n
                if not a:
                    continue
                for x in (-0.8, 0.0, 0.5):
                    close(polyval(x, got), polyval(x + h, a))

    def test_trig_mul(self):
        for a, b in self.pairs():
            off, got = _ref.trig_mul(-3, a, 2, b)
            assert off == -1
            if not a or not b:
                assert got == []
            else:
                close(got, np.convolve(a, b))

    def test_trig_rotate(self):
        for n in SIZES:
            c = rand_poly(self.rng, n)
            for off, t in ((-2, 0.31), (0, 0.0), (3, -0.77)):
                want = np.asarray(c, dtype=complex) * np.exp(
                    2j * np.pi * t * modes(off, n))
                close(_ref.trig_rotate(off, c, t), want)

    def test_trig_eval(self):
        for n in SIZES:
            c = rand_poly(self.rng, n)
            for off, x in ((-2, 0.53), (0, 0.0), (4, -0.21)):
                want = np.sum(np.asarray(c, dtype=complex)
                              * np.exp(2j * np.pi * x * modes(off, n)))
                close(_ref.trig_eval(off, c, x), want)


class TestBackendSelection:
    def test_backend_is_reported(self):
        assert _kernels.BACKEND == "python"

    def test_exports_come_from_selected_backend(self):
        for name in KERNELS:
            assert getattr(_kernels, name) is getattr(_ref, name), name


def packed(rows):
    return [[(c.real.hex(), c.imag.hex()) for c in row] for row in rows]


def ref_rows(lefts, rights):
    return [_ref.poly_mul(list(a), list(b)) for a, b in zip(lefts, rights)]


class TestBatchedLineProducts:
    """`poly_mul_rows`, the line product's batched kernel, is bitwise
    `_ref.poly_mul` row by row, on its numpy path (`_product_group`) and on
    its per-row path for small groups.  Real and imaginary parts are
    compared as hex strings, so signed zeros and the last bit count."""

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (4, 1), (3, 3),
                                      (9, 9), (17, 9), (9, 17)])
    def test_numpy_group_random(self, n, m):
        rng = random.Random(n * 100 + m)
        lefts = [rand_poly(rng, n) for _ in range(12)]
        rights = [rand_poly(rng, m) for _ in range(12)]
        assert packed(_numpy._product_group(lefts, rights)) == \
            packed(ref_rows(lefts, rights))

    def test_signed_zeros_and_zero_coefficients(self):
        # a zero left coefficient is skipped by _ref; a zero right one is
        # multiplied; the right factor's infinities make 0·inf = NaN if a
        # skipped term were added
        zeros = [0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                 complex(-0.0, -0.0)]
        values = zeros + [complex(1.5, -0.0), complex(-0.0, 2.0),
                          complex(-1.0, -1.0), complex(1e300, 1e300)]
        rng = random.Random(5)
        lefts = [[rng.choice(values) for _ in range(3)] for _ in range(60)]
        rights = [[rng.choice(values) for _ in range(2)] for _ in range(60)]
        lefts.append([0j, complex(-0.0, -0.0), 1.0])
        rights.append([complex(float("inf"), 1.0), complex(-0.0, 0.0)])
        assert packed(_numpy._product_group(lefts, rights)) == \
            packed(ref_rows(lefts, rights))
        assert packed(_kernels.poly_mul_rows(lefts, rights)) == \
            packed(ref_rows(lefts, rights))

    def test_width_one_rows(self):
        lefts = [[complex(x, -x)] for x in (0.5, -0.0, 3.0, 1e-310)]
        rights = [[complex(-x, 2.0)] for x in (1.0, 0.0, -0.0, 7.5)]
        got = _numpy._product_group(lefts, rights)
        assert packed(got) == packed(ref_rows(lefts, rights))
        assert all(len(row) == 1 for row in got)

    def test_mixed_shapes_in_one_call_keep_row_order(self):
        rng = random.Random(9)
        # large groups take the numpy path, small ones the per-row path
        shapes = [(3, 3)] * 40 + [(9, 9)] * 15 + [(2, 5)] * 3 + [(1, 1)] * 2
        rng.shuffle(shapes)
        lefts = [rand_poly(rng, n) for n, _ in shapes]
        rights = [rand_poly(rng, m) for _, m in shapes]
        got = _kernels.poly_mul_rows(lefts, rights)
        assert packed(got) == packed(ref_rows(lefts, rights))
        assert [len(row) for row in got] == [n + m - 1 for n, m in shapes]

    def test_small_groups_call_the_reference_kernel(self, monkeypatch):
        calls = []
        original = _ref.poly_mul
        monkeypatch.setattr(_ref, "poly_mul",
                            lambda a, b: calls.append(1) or original(a, b))
        rng = random.Random(3)
        big = [(rand_poly(rng, 3), rand_poly(rng, 3)) for _ in range(40)]
        small = [(rand_poly(rng, 2), rand_poly(rng, 2)) for _ in range(5)]
        _kernels.poly_mul_rows(*zip(*big))
        assert calls == []
        _kernels.poly_mul_rows(*zip(*small))
        assert len(calls) == 5

    def test_empty_batch(self):
        assert _kernels.poly_mul_rows([], []) == []


def old_poly_shift(a, h):
    """`_ref.poly_shift` as it stood: each step reads out[j + 1] back."""
    n = len(a)
    out = list(a)
    if h == 0 or n == 0:
        return [complex(c) for c in out]
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] = out[j] + h * out[j + 1]
    return [complex(c) for c in out]


def bits(row):
    """Each coefficient's parts as packed doubles: NaN signs and payloads
    and signed zeros count."""
    return [struct.pack("<dd", c.real, c.imag) for c in row]


SPECIAL_PARTS = (0.0, -0.0, 1.0, -2.5, 1e-300, -5e-324, 1e308, -1e308,
                 math.inf, -math.inf, math.nan, -math.nan)


class TestPolyShiftIsTheDoubleLoop:
    """`_ref.poly_shift` carries the value it just stored instead of
    reading it back: the same float operations, so the same bits, with the
    shift h a float (mixed float-complex arithmetic, whose rules for inf
    and NaN parts differ between complex(h)·c and h·c on some Pythons)."""

    @pytest.mark.parametrize("h", [-1e-300, 5e-324, 1e300, 0.37, -0.0])
    def test_special_parts(self, h):
        rng = random.Random(f"shift:{h!r}")
        for _ in range(400):
            a = [complex(rng.choice(SPECIAL_PARTS), rng.choice(SPECIAL_PARTS))
                 for _ in range(rng.randint(0, 6))]
            assert bits(_ref.poly_shift(a, h)) == bits(old_poly_shift(a, h))

    @pytest.mark.parametrize("h", [-1e-300, 5e-324, 1e300])
    def test_every_pair_of_special_parts(self, h):
        for re, im, re2, im2 in itertools.product(SPECIAL_PARTS, repeat=4):
            a = [complex(re, im), complex(re2, im2), complex(im, re2)]
            assert bits(_ref.poly_shift(a, h)) == bits(old_poly_shift(a, h))

    def test_random_degree_eight(self):
        rng = random.Random(7)
        for _ in range(200):
            a = rand_poly(rng, rng.randint(1, 9))
            h = rng.uniform(-3, 3)
            assert bits(_ref.poly_shift(a, h)) == bits(old_poly_shift(a, h))
