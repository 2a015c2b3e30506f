"""The batched circle product is bitwise the per-pair product.

`convolve_closed_form` on a `CircleModel` runs every key pair through one
numpy kernel (`_kernels.circle_convolve`).  The oracle here is the per-pair
sum it replaces: `key_shift(f_a, s) · g_s` through the `_ref` kernels,
accumulated with `TrigPoly.__add__` in (s outer, a inner) order.  Keys, key
order and every mode's real and imaginary parts are compared as packed
doubles, so signed zeros and the last bit count.
"""

import os
import random
import struct
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasifolds import _kernels
from quasifolds._kernels import _ref
from quasifolds.algebra import (AlgebraElement, CircleModel,
                                convolve_closed_form, convolve_general,
                                involute, random_circle_element)
from quasifolds.coefficients import TrigPoly
from quasifolds.exact import qa

MODELS = {sub: CircleModel(sub) for sub in ("full", "rational", "alpha")}


def per_pair(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    model = f.model
    out = {}
    for s, cs in g.support:
        for a, ca in f.support:
            key = model.renormalise(a + s)
            term = model.key_shift(ca, s) * cs
            out[key] = out[key] + term if key in out else term
    return AlgebraElement(model, tuple(out.items()))


def packed(e: AlgebraElement) -> list:
    return [(k, [(m, struct.pack("dd", c.real, c.imag)) for m, c in cf.modes])
            for k, cf in e.support]


def assert_bitwise(f, g):
    got = convolve_closed_form(f, g)
    want = per_pair(f, g)
    assert got.keys() == want.keys()
    assert packed(got) == packed(want)
    return got


def element(model, entries):
    return AlgebraElement(model, tuple((k, TrigPoly(m)) for k, m in entries))


# ---------------------------------------------------------------------------
# the acceptance corpora (criterion-03/04): pairs, products of products and
# involutes
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpora():
    out = {}
    for name, seed in (("full", 32), ("rational", 33), ("alpha", 34)):
        rng = random.Random(seed)
        out[name] = [random_circle_element(rng, MODELS[name], n_keys=5,
                                           n_modes=8) for _ in range(200)]
    return out


@pytest.mark.parametrize("name", sorted(MODELS))
def test_corpus_pairs(corpora, name):
    els = corpora[name]
    for f, g in zip(els, els[1:]):
        assert_bitwise(f, g)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_corpus_products_of_products_and_involutes(corpora, name):
    els = corpora[name]
    for i in range(0, len(els) - 2, 3):
        f, g, h = els[i:i + 3]
        fg = assert_bitwise(f, g)
        gh = assert_bitwise(g, h)
        assert_bitwise(fg, h)
        assert_bitwise(f, gh)
        assert_bitwise(involute(g), involute(f))


# ---------------------------------------------------------------------------
# edge cases
# ---------------------------------------------------------------------------

def test_empty_factors():
    model = MODELS["full"]
    zero = AlgebraElement(model)
    f = random_circle_element(random.Random(1), model)
    for x, y in ((zero, f), (f, zero), (zero, zero)):
        assert assert_bitwise(x, y).is_zero


def test_single_keys():
    model = MODELS["full"]
    f = element(model, [(qa(Fraction(1, 3), 1), [(2, 0.5 - 1j)])])
    g = element(model, [(qa(Fraction(1, 2), -1), [(-1, 1j), (0, 2.0)])])
    assert assert_bitwise(f, g).keys() == (qa(Fraction(5, 6)),)


def test_gaps_and_different_mode_ranges_per_key():
    model = MODELS["rational"]
    f = element(model, [(qa(0), [(-7, 0.3 + 0.1j), (4, -1.5j)]),
                        (qa(Fraction(1, 4)), [(2, 1.0), (3, 0.25 + 2j)]),
                        (qa(Fraction(1, 2)), [(-1, 1e-300 + 1j), (9, 3.0)])])
    g = element(model, [(qa(Fraction(3, 4)), [(0, 1j), (5, -0.5)]),
                        (qa(Fraction(1, 3)), [(-12, 2.0 - 2j)])])
    assert_bitwise(f, g)
    assert_bitwise(g, f)


def test_several_pairs_on_one_key_mod_1():
    model = MODELS["alpha"]
    rng = random.Random(7)

    def coeff(lo, hi):
        return [(k, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                for k in range(lo, hi)]

    # a + s = 0 for three pairs, = α for two, = −α for two
    f = element(model, [(qa(0, n), coeff(-2 - n, 3)) for n in (-1, 0, 1)])
    g = element(model, [(qa(0, n), coeff(n, 4)) for n in (-1, 0, 1)])
    assert len(assert_bitwise(f, g).support) == 5
    # exact cancellation on a shared key: δ_0·(−δ_0) + δ_α·δ_{−α}
    h = element(model, [(qa(0), [(0, 1.0)]), (qa(0, 1), [(0, 1.0)])])
    k = element(model, [(qa(0), [(0, -1.0)]), (qa(0, -1), [(0, 1.0)])])
    assert_bitwise(h, k)


def test_signed_zero_parts():
    model = MODELS["full"]
    f = element(model, [(qa(0), [(0, complex(-0.0, 1.0)),
                                 (1, complex(2.0, -0.0))]),
                        (qa(Fraction(1, 2)), [(-1, complex(-0.0, -3.0))])])
    g = element(model, [(qa(0), [(0, complex(1.0, -0.0)),
                                 (2, complex(-0.0, -1.0))]),
                        (qa(Fraction(1, 2), 1), [(0, complex(-1.0, 0.0))])])
    assert_bitwise(f, g)
    assert_bitwise(g, f)


# Two coefficients whose complex128 product in numpy's vector loops differed
# from CPython's `u * v` in the last bit where this test was written; the
# kernel multiplies in float64 parts and must give CPython's bits wherever it
# runs.
U = complex(float.fromhex("0x1.a6ec5e9a2c53ap-1"),
            float.fromhex("0x1.ddce0f46b9188p-1"))
V = complex(float.fromhex("-0x1.78abfc755d300p-5"),
            float.fromhex("0x1.7613ce42bbb74p-1"))


def test_product_where_complex128_multiply_may_differ():
    model = MODELS["full"]
    f = element(model, [(qa(0), [(0, U)])])
    g = element(model, [(qa(0), [(0, V)])])
    ((_, c),) = assert_bitwise(f, g).support
    assert struct.pack("dd", c.modes[0][1].real, c.modes[0][1].imag) == \
        struct.pack("dd", (U * V).real, (U * V).imag)
    wide_f = element(model, [(qa(0), [(k, U) for k in range(16)])])
    wide_g = element(model, [(qa(0), [(k, V) for k in range(16)])])
    assert_bitwise(wide_f, wide_g)


parts = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
coefficients = st.dictionaries(st.integers(-6, 6),
                               st.builds(complex, parts, parts),
                               max_size=5)


@st.composite
def elements(draw, model):
    n_keys = draw(st.integers(0, 4))
    entries = []
    for _ in range(n_keys):
        p = Fraction(draw(st.integers(0, 5)), draw(st.sampled_from((1, 2, 3, 6))))
        q = draw(st.integers(-3, 3))
        key = {"full": qa(p, q), "rational": qa(p), "alpha": qa(0, q)}[
            model.subgroup]
        entries.append((key, TrigPoly.from_dict(draw(coefficients))))
    return AlgebraElement(model, tuple(entries))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(MODELS)).flatmap(
    lambda name: st.tuples(elements(MODELS[name]), elements(MODELS[name]))))
def test_random_elements(fg):
    assert_bitwise(*fg)


# ---------------------------------------------------------------------------
# timing-free guards
# ---------------------------------------------------------------------------

def test_numpy_stays_out_of_import_and_set_up():
    """numpy is loaded by the first circle product, not by importing the
    package, building circle models and elements, or a line product."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = textwrap.dedent("""
        import random, sys
        import quasifolds
        from quasifolds.algebra import (CircleModel, LineModel,
                                        random_circle_element,
                                        random_line_element)
        from quasifolds.catalog import z_alpha_lattice
        rng = random.Random(0)
        for sub in ("full", "rational", "alpha"):
            random_circle_element(rng, CircleModel(sub))
        line = LineModel(z_alpha_lattice())
        random_line_element(rng, line) * random_line_element(rng, line)
        print("numpy" in sys.modules)
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


def test_circle_product_makes_no_per_pair_kernel_calls(monkeypatch):
    calls = []

    def counting(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    for module in (_kernels, _ref):
        for name in ("trig_mul", "poly_mul"):
            monkeypatch.setattr(module, name,
                                counting(name, getattr(module, name)))
    model = MODELS["full"]
    keys = [qa(Fraction(n, 5), n - 2) for n in range(5)]
    f = element(model, [(k, [(-1, 1.0), (1, 0.5j)]) for k in keys])
    g = element(model, [(k + qa(0, 3), [(0, 2.0), (2, -1j)]) for k in keys])
    assert len(f.support) == len(g.support) == 5
    convolve_closed_form(f, g)
    assert calls == []
    convolve_general(f, g)
    assert calls.count("trig_mul") == 25 and calls.count("poly_mul") == 25
