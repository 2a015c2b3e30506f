"""The dense-row `TrigPoly` against a sparse reference, bit for bit.

`Sparse` below keeps a trig poly as its sorted nonzero ((k, c), ...) modes
and converts to dense rows around every kernel call, as the package did
before it stored rows.  Every operation of the row form must give the same
modes with the same bits: signed zeros count, so inputs mix in -0.0 parts,
interior zeros, empty polys and spans that do not meet.
"""

import cmath
import copy
import json
import pickle
import struct
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasifolds import _kernels as K
from quasifolds.algebra import (AlgebraElement, CircleModel,
                                convolve_closed_form)
from quasifolds.coefficients import TrigPoly
from quasifolds.errors import QuasifoldError
from quasifolds.exact import default_witness, qa


@dataclass(frozen=True)
class Sparse:
    """Sorted nonzero modes; each operation as the sparse form computes it."""

    modes: tuple = ()

    @staticmethod
    def of(d: dict) -> "Sparse":
        return Sparse(tuple(sorted((k, c) for k, c in d.items() if c != 0)))

    @staticmethod
    def dense(off, arr) -> "Sparse":
        return Sparse(tuple((off + i, c) for i, c in enumerate(arr) if c != 0))

    def __add__(self, other):
        d = dict(self.modes)
        for k, c in other.modes:
            d[k] = d.get(k, 0j) + c
        return Sparse.of(d)

    def __mul__(self, other):
        if not self.modes or not other.modes:
            return Sparse()
        oa, (a,) = sparse_rows(self)
        ob, (b,) = sparse_rows(other)
        return Sparse.dense(*K.trig_mul(oa, a, ob, b))

    def scale(self, s):
        s = complex(s)
        modes = tuple(m for m in ((k, c * s) for k, c in self.modes)
                      if m[1] != 0)
        if not all(cmath.isfinite(c) for _, c in modes):
            raise QuasifoldError("TrigPoly coefficients must be finite")
        return Sparse(modes)

    def conjugate(self):
        return Sparse(tuple((-k, c.conjugate()) for k, c in reversed(self.modes)))

    def rotate(self, t):
        off, (arr,) = sparse_rows(self)
        return Sparse.dense(off, K.trig_rotate(off, arr, float(t)))

    def eval(self, x):
        off, (arr,) = sparse_rows(self)
        return K.trig_eval(off, arr, float(x))

    def distance(self, other):
        _, (a, b) = sparse_rows(self, other)
        return max((abs(x - y) for x, y in zip(a, b)), default=0.0)

    def degree(self):
        return max((abs(k) for k, _ in self.modes), default=0)

    def to_json(self):
        return {"kind": "trig",
                "modes": {str(k): [c.real, c.imag] for k, c in self.modes}}


def sparse_rows(*polys):
    """(first mode, rows): the polys' modes on one common range, 0j where
    a poly has no mode."""
    keys = [k for p in polys for k, _ in p.modes]
    if not keys:
        return 0, [[] for _ in polys]
    lo, hi = min(keys), max(keys)
    rows = []
    for p in polys:
        row = [0j] * (hi - lo + 1)
        for k, c in p.modes:
            row[k - lo] = c
        rows.append(row)
    return lo, rows


def bits(x):
    """Every double of a result as its hex text: modes, complex or float."""
    if isinstance(x, (TrigPoly, Sparse)):
        return [(k, c.real.hex(), c.imag.hex()) for k, c in x.modes]
    if isinstance(x, complex):
        return (x.real.hex(), x.imag.hex())
    return float(x).hex()


# Parts lean on signed zeros and exact cancellations; a coefficient may be
# 0, -0j or have one -0.0 part.  Mode keys are shifted so that spans may
# overlap, touch or lie far apart.
parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e-200]),
                  st.floats(-4, 4, allow_nan=False, allow_infinity=False))
coeffs = st.builds(complex, parts, parts)
mode_dicts = st.builds(
    lambda d, shift: {k + shift: c for k, c in d.items()},
    st.dictionaries(st.integers(-4, 4), coeffs, max_size=6),
    st.sampled_from([0, 0, 3, -7, 20]))
scalars = st.one_of(st.sampled_from([0.0, -0.0, -1.0, 1e-320, 1e300, -1j,
                                     float("inf")]),
                    st.builds(complex, parts, parts))
angles = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 0.25, -1 / 3]),
                   st.floats(-2, 2, allow_nan=False))

SIGNED = {0: complex(1.0, -0.0), 1: -0j, 2: complex(-0.0, 2.0)}
SPARSE_MIDDLE = {-2: 1 + 1j, 0: 0j, 3: complex(-1.0, -0.0)}
APART = {10: 1j}


def both(d):
    return TrigPoly.from_dict(d), Sparse.of({k: complex(c) for k, c in d.items()})


SETTINGS = settings(max_examples=200, deadline=None)


class TestAgainstSparse:
    @SETTINGS
    @given(mode_dicts)
    @example(SIGNED)
    @example({})
    def test_modes_and_row(self, d):
        p, r = both(d)
        assert bits(p) == bits(r)
        assert p.is_zero == (not r.modes)
        if p.coeffs:
            assert p.coeffs[0] and p.coeffs[-1]
            assert p.offset == r.modes[0][0]
        assert all(struct.pack("dd", c.real, c.imag) == bytes(16)
                   for c in p.coeffs if not c)  # interior zeros are +0j
        for y in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert (y.offset, bits(y)) == (p.offset, bits(p))
        with pytest.raises(AttributeError):
            p.offset = 1

    @SETTINGS
    @given(mode_dicts, mode_dicts)
    @example(SIGNED, SPARSE_MIDDLE)
    @example(SPARSE_MIDDLE, SIGNED)
    @example({0: complex(1.0, -0.0)}, {1: 1})
    @example({1: 1}, {0: complex(1.0, -0.0)})
    @example(SIGNED, {})
    @example({}, SIGNED)
    @example({0: 1 - 1j}, {0: -1 + 1j})
    @example(SIGNED, APART)
    def test_add(self, d, e):
        (p, r), (q, s) = both(d), both(e)
        assert bits(p + q) == bits(r + s)

    @SETTINGS
    @given(mode_dicts, scalars)
    @example(SIGNED, -0.0)
    @example(SPARSE_MIDDLE, 1e-320)
    @example({0: 1e-200, 1: 1}, 1e-200)
    def test_scale(self, d, z):
        p, r = both(d)
        try:
            want = r.scale(z)
        except QuasifoldError:
            with pytest.raises(QuasifoldError, match="finite"):
                p.scale(z)
        else:
            assert bits(p.scale(z)) == bits(want)

    @SETTINGS
    @given(mode_dicts, mode_dicts)
    @example(SPARSE_MIDDLE, SIGNED)
    def test_conjugate(self, d, e):
        (p, r), (q, s) = both(d), both(e)
        assert bits(p.conjugate()) == bits(r.conjugate())
        # a conjugated interior zero must not carry -0.0 into a sum
        assert bits(p.conjugate() + q) == bits(r.conjugate() + s)
        assert bits(q + p.conjugate()) == bits(s + r.conjugate())

    @SETTINGS
    @given(mode_dicts, angles, mode_dicts)
    @example(SPARSE_MIDDLE, 0.5, SIGNED)
    def test_rotate(self, d, t, e):
        (p, r), (q, s) = both(d), both(e)
        assert bits(p.rotate(t)) == bits(r.rotate(t))
        assert bits(q + p.rotate(t)) == bits(s + r.rotate(t))

    @SETTINGS
    @given(mode_dicts, mode_dicts)
    @example(SIGNED, SPARSE_MIDDLE)
    @example(SIGNED, APART)
    @example({}, SIGNED)
    def test_mul(self, d, e):
        (p, r), (q, s) = both(d), both(e)
        assert bits(p * q) == bits(r * s)
        assert bits(p * q.conjugate()) == bits(r * s.conjugate())

    @SETTINGS
    @given(mode_dicts, angles)
    @example(SPARSE_MIDDLE, 0.25)
    @example({}, 0.3)
    def test_eval_sup_bound_degree(self, d, x):
        p, r = both(d)
        assert bits(p.eval(x)) == bits(r.eval(x))
        assert p.degree() == r.degree()

    @SETTINGS
    @given(mode_dicts, mode_dicts)
    @example(SIGNED, APART)
    @example({}, {})
    @example(SPARSE_MIDDLE, {})
    def test_distance(self, d, e):
        (p, r), (q, s) = both(d), both(e)
        assert bits(p.distance(q)) == bits(r.distance(s))
        assert bits(q.distance(p)) == bits(s.distance(r))

    @SETTINGS
    @given(mode_dicts, mode_dicts)
    @example(SIGNED, {0: complex(1.0, 0.0), 2: complex(-0.0, 2.0)})
    @example({0: 1}, {1: 1})
    @example({}, {})
    def test_json_equality_hash_and_repr(self, d, e):
        (p, r), (q, s) = both(d), both(e)
        assert json.dumps(p.to_json()) == json.dumps(r.to_json())
        assert (p == q) == (r.modes == s.modes) == (p.modes == q.modes)
        assert hash(p) == hash((r.modes,))
        assert repr(p) == repr(r).replace("Sparse", "TrigPoly")
        assert TrigPoly.from_json(p.to_json()) == p

    @settings(max_examples=100, deadline=None)
    @given(mode_dicts, st.lists(st.tuples(
        st.sampled_from(["add", "mul", "scale", "conj", "rot"]),
        mode_dicts, scalars, angles), max_size=6))
    def test_chains_of_operations(self, d, steps):
        p, r = both(d)
        for op, e, z, t in steps:
            q, s = both(e)
            if op == "add":
                p, r = p + q, r + s
            elif op == "mul":
                p, r = p * q, r * s
            elif op == "scale":
                try:
                    p, r = p.scale(z), r.scale(z)
                except QuasifoldError:
                    continue
            elif op == "conj":
                p, r = p.conjugate(), r.conjugate()
            else:
                p, r = p.rotate(t), r.rotate(t)
            assert bits(p) == bits(r)


class TestCircleProductAgainstSparse:
    """The batched circle product of row-stored coefficients against the
    per-pair sum Σ rotate(f_a, s)·g_s over sparse coefficients, accumulated
    in (s outer, a inner) order."""

    KEYS = [qa(0), qa(Fraction(1, 2)), qa(Fraction(1, 3), 1), qa(0, -1),
            qa(Fraction(5, 6), 2)]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), mode_dicts), max_size=4),
           st.lists(st.tuples(st.integers(0, 4), mode_dicts), max_size=4))
    @example([(0, SIGNED), (1, SPARSE_MIDDLE)], [(2, APART), (0, SIGNED)])
    def test_bitwise_per_pair(self, fs, gs):
        model = CircleModel("full")
        f = AlgebraElement(model, tuple((self.KEYS[i], TrigPoly.from_dict(d))
                                        for i, d in dict(fs).items()))
        g = AlgebraElement(model, tuple((self.KEYS[i], TrigPoly.from_dict(d))
                                        for i, d in dict(gs).items()))
        to_float = default_witness().to_float
        want = {}
        for s, cs in g.support:
            for a, ca in f.support:
                key = model.renormalise(a + s)
                term = Sparse(ca.modes).rotate(to_float(s)) * Sparse(cs.modes)
                want[key] = want[key] + term if key in want else term
        got = convolve_closed_form(f, g)
        assert [k for k, _ in got.support] == sorted(
            (k for k, c in want.items() if c.modes), key=lambda k: k.sort_key())
        assert [bits(c) for _, c in got.support] == [
            bits(want[k]) for k, _ in got.support]
