"""One sign rule for enclosed breakpoints.

`exact.enclosed_sign` is the one place that turns binary64 enclosures into
an order: the sign of x − s − y when the three enclosures separate, else 0.
`AlphaWitness.order` reads a missing shift as s = 0 enclosed as (0.0, 0.0),
and the line product's plan (`coefficients._line_plan`) asks the same rule
twice to skip a key pair whose supports are apart.  The first tests check
both against copies of the code they replace, as it stood, and check that
the skip is sound: whenever it calls two supports apart, certified
`compare` under √2 − 1 at 80 digits orders them apart, shifts with no
enclosure and Fibonacci near-tie shifts included.
The last tests keep the rule in one module: `algebra.py` encloses nothing,
and no module but `exact.py` adds up enclosure values or radii.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import quasifolds
from quasifolds.coefficients import PiecewisePoly, _line_plan
from quasifolds.errors import PrecisionInsufficientError
from quasifolds.exact import (AlphaWitness, default_witness, enclosed_sign,
                              qa, set_default_witness)
from test_coefficients import W
from test_filtered_order import SQRT2_80
from test_shifted_walk import NEAR_TIE, TWO_53, piecewise, points, shifts

WITNESSES = pytest.mark.parametrize("witness", [W, SQRT2_80],
                                    ids=["golden", "sqrt2-80"])


# ---------------------------------------------------------------------------
# the code the rule replaces, as it stood
# ---------------------------------------------------------------------------

def old_order(w, x, y, ex, ey, s=None, es=None) -> int:
    if s is None:
        if x == y:
            return 0
        if ex is not None and ey is not None:
            gap = ex[0] - ey[0]
            radius = ex[1] + ey[1]
            if gap > radius:
                return 1
            if -gap > radius:
                return -1
        return w.compare(x, y)
    if ex is not None and ey is not None and es is not None:
        gap = ex[0] - es[0] - ey[0]
        radius = ex[1] + es[1] + ey[1]
        if gap > radius:
            return 1
        if -gap > radius:
            return -1
    x = x - s
    return 0 if x == y else w.compare(x, y)


def old_apart(f, g, s) -> bool:
    """`algebra._apart` of `algebra._span`s, on fresh enclosures."""
    enclose = default_witness().enclose
    lo_f, hi_f = enclose(f.breakpoints[0]), enclose(f.breakpoints[-1])
    lo_g, hi_g = enclose(g.breakpoints[0]), enclose(g.breakpoints[-1])
    es = enclose(s)
    if None in (lo_f, hi_f, lo_g, hi_g, es):
        return False
    (vlo_f, rlo_f), (vhi_f, rhi_f) = lo_f, hi_f
    (vlo_g, rlo_g), (vhi_g, rhi_g) = lo_g, hi_g
    vs, rs = es
    return (vlo_g + vs - vhi_f > rlo_g + rs + rhi_f
            or vlo_f - vs - vhi_g > rlo_f + rs + rhi_g)


def _outcome(fn):
    try:
        return fn()
    except PrecisionInsufficientError:
        return "raises"


@WITNESSES
@settings(max_examples=300, deadline=None)
@given(x=points, y=points, s=st.one_of(st.none(), shifts),
       enclosed=st.booleans())
@example(x=qa(1), y=qa(0), s=qa(1) - NEAR_TIE, enclosed=True)
@example(x=qa(0), y=NEAR_TIE, s=None, enclosed=True)
def test_order_is_the_old_order(witness, x, y, s, enclosed):
    set_default_witness(witness)
    w = default_witness()
    if enclosed:
        ex, ey = w.enclose(x), w.enclose(y)
        es = None if s is None else w.enclose(s)
    else:
        ex = ey = es = None
    assert (_outcome(lambda: w.order(x, y, ex, ey, s, es))
            == _outcome(lambda: old_order(w, x, y, ex, ey, s, es)))


def test_a_missing_shift_is_an_exact_zero():
    w = default_witness()
    for x, y in ((qa(1), qa(0, 1)), (qa(0, 1), qa(1)), (qa(2, -1), qa(0, 1))):
        ex, ey = w.enclose(x), w.enclose(y)
        assert enclosed_sign(ex, (0.0, 0.0), ey) == w.compare(x, y)
        assert enclosed_sign(ex, (0.0, 0.0), ex) == 0
        assert enclosed_sign(ex, None, ey) == 0


# ---------------------------------------------------------------------------
# the disjointness skip of the line plan
# ---------------------------------------------------------------------------

def piece(ends) -> PiecewisePoly:
    return PiecewisePoly(tuple(map(qa, ends)), ((1.0,),))


def skipped(f, g, s) -> bool:
    """Whether the line plan of (f·δ_0)·(g·δ_s) skips its one key pair: it
    plans no pair and appends no row.  A pair that is not skipped is
    walked, and the walk may raise on a near-tie."""
    lefts, rights = [], []
    try:
        plan = _line_plan(((qa(0), f),), ((s, g),), lefts, rights)
    except PrecisionInsufficientError:
        return False
    assert plan or not lefts + rights
    return not plan


def certified_apart(f, g, s) -> bool:
    """Whether certified `compare` orders the support of f(· + s) wholly
    before or wholly after that of g."""
    compare = default_witness().compare
    for x, y, sign in ((f.breakpoints[-1] - s, g.breakpoints[0], -1),
                       (f.breakpoints[0] - s, g.breakpoints[-1], 1)):
        if _outcome(lambda: compare(x, y)) == sign:
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_disjoint_supports_are_certified_apart(data):
    set_default_witness(SQRT2_80)
    f, g = data.draw(piecewise()), data.draw(piecewise())
    assume(f.breakpoints and g.breakpoints)
    s = data.draw(shifts)
    apart = skipped(f, g, s)
    if apart:
        assert certified_apart(f, g, s)
    if old_apart(f, g, s):
        assert apart


def test_disjoint_is_decided_and_refused():
    f = piece((0, 1))
    assert skipped(f, piece((5, 6)), qa(0))
    assert skipped(f, piece((-6, -5)), qa(0))
    assert skipped(f, piece((0, 1)), qa(3))
    assert not skipped(f, piece((1, 2)), qa(0))  # they touch
    assert not skipped(f, piece((0, 1)), qa(Fraction(1, 2)))


def test_skip_reads_each_pair_on_its_own():
    """In a plan over several keys, exactly the pairs skipped on their own
    are skipped, in (s outer, a inner) order."""
    fs = [(qa(0), piece((0, 1))), (qa(1), piece((5, 6)))]
    gs = [(qa(0), piece((0, 1))), (qa(4), piece((1, 2))),
          (qa(0, 1), piece((10, 11)))]
    keys = [a + s for s, g in gs for a, f in fs if not skipped(f, g, s)]
    assert keys == [qa(0), qa(5)]
    assert [key for key, _, _ in _line_plan(fs, gs, [], [])] == keys


def test_shifts_without_enclosures_are_never_apart():
    f = piece((0, 1))
    g = piece((5, 6))
    for s in (qa(TWO_53), qa(-TWO_53 - 1), qa(1, TWO_53)):
        assert W.enclose(s) is None
        assert not skipped(f, g, s)
        assert certified_apart(f, g, s)


@pytest.mark.parametrize("k", range(-1, 3))
def test_near_tie_shifts_are_not_apart(k):
    """f(· + s) with s = k ∓ x, x = F₁₄₄·α − F₁₄₃ ≈ −8e-31, ends within
    1e-30 of where g starts, before it or after: the floats cannot tell."""
    f = piece((0, 1))
    g = piece((1 - k, 2 - k))
    for s in (qa(k) - NEAR_TIE, qa(k) + NEAR_TIE):
        assert not skipped(f, g, s)
    set_default_witness(AlphaWitness.golden(digits=130))
    assert certified_apart(f, g, qa(k) - NEAR_TIE)
    assert not certified_apart(f, g, qa(k) + NEAR_TIE)


# ---------------------------------------------------------------------------
# the rule lives in one module
# ---------------------------------------------------------------------------

def _is_sum(node) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op,
                                                      (ast.Add, ast.Sub))


def _parts(node, index) -> bool:
    """Whether node is e[index], or a sum of such subscripts only."""
    if _is_sum(node):
        return _parts(node.left, index) and _parts(node.right, index)
    return (isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and node.slice.value == index)


def enclosure_arithmetic(tree) -> list:
    """Lines that compute an enclosure gap or radius: a sum of values or of
    radii of enclosures (e[0] − e′[0], e[1] + e′[1], ...), or a sum
    compared with a sum, as the three-term test written out compares its
    gap with its radius."""
    found = set()
    for node in ast.walk(tree):
        if _is_sum(node) and any(_parts(node, i) for i in (0, 1)):
            found.add(node.lineno)
        if (isinstance(node, ast.Compare) and _is_sum(node.left)
                and all(map(_is_sum, node.comparators))):
            found.add(node.lineno)
    return sorted(found)


def test_enclosure_arithmetic_is_found():
    tree = ast.parse("gap = ex[0] - ey[0]\n"
                     "radius = ex[1] + es[1] + ey[1]\n"
                     "apart = vlo + vs - vhi > rlo + rs + rhi\n"
                     "y = s[0] + half_alpha\n"
                     "z = a[0] + b[1]\n"
                     "ok = a + b > c\n")
    assert enclosure_arithmetic(tree) == [1, 2, 3]


def _package():
    return Path(quasifolds.__file__).parent


def test_algebra_encloses_nothing():
    tree = ast.parse((_package() / "algebra.py").read_text(encoding="utf-8"))
    uses = [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "enclose")
            or (isinstance(node, ast.Name) and node.id == "enclose")]
    assert uses == []


def test_only_exact_computes_enclosure_gaps():
    offenders = []
    for path in sorted(_package().rglob("*.py")):
        if path.name == "exact.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [(path.name, line)
                      for line in enclosure_arithmetic(tree)]
    assert offenders == []
