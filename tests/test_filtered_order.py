"""The float filter in front of certified `compare` is sound.

`AlphaWitness.enclose` gives a binary64 value v of (a + b·α̂)/d and a radius
r; a signed sum of at most three enclosed values whose float sum exceeds the
sum of their radii has the sign that `compare` returns for the exact sum,
and `compare` does not raise on it.  `AlphaWitness.order` decides by that
rule and hands every pair it cannot decide to `compare`.  Checked under the
golden witness and under √2 − 1 at 80 digits, on triples with |a|, |b| and
d near and past 2⁵³ and on Fibonacci near-ties F_n·α − F_{n−1}.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasifolds.errors import PrecisionInsufficientError
from quasifolds.exact import AlphaWitness, QAlpha, default_witness, qa


def _sqrt2_minus_1(digits: int) -> AlphaWitness:
    with localcontext() as ctx:
        ctx.prec = digits + 5
        value = Decimal(2).sqrt() - 1
    return AlphaWitness.from_decimal_string(str(value)[:digits + 2],
                                            digits=digits)


GOLDEN = AlphaWitness.golden()
SQRT2_80 = _sqrt2_minus_1(80)
WITNESSES = pytest.mark.parametrize("witness", [GOLDEN, SQRT2_80],
                                    ids=["golden", "sqrt2-80"])

TWO_53 = 2 ** 53
FIB = [0, 1]
while len(FIB) <= 145:
    FIB.append(FIB[-1] + FIB[-2])

near_2_53 = st.integers(-3, 3).map(lambda k: TWO_53 + k)
big = st.one_of(st.integers(-40, 40), near_2_53, near_2_53.map(lambda n: -n),
                st.integers(-2 ** 70, 2 ** 70))
dens = st.one_of(st.integers(1, 12), near_2_53, st.integers(1, 2 ** 70))
triples = st.builds(lambda a, b, d: qa(Fraction(a, d), Fraction(b, d)),
                    big, big, dens)
fibonacci = st.integers(20, 144).map(lambda n: qa(-FIB[n - 1], FIB[n]))
small = st.builds(qa, st.fractions(min_value=-4, max_value=4,
                                   max_denominator=8), st.integers(-3, 3))
values = st.one_of(triples, fibonacci, small)


def _exact(w: AlphaWitness, x: QAlpha) -> Fraction:
    a, b, d = x.triple
    return (a + b * Fraction(w.value)) / d


def _float_sign(total: float, radii: float):
    if total > radii:
        return 1
    if -total > radii:
        return -1
    return None


@WITNESSES
@settings(max_examples=300, deadline=None)
@given(values)
def test_enclosure_contains_the_value(witness, x):
    e = witness.enclose(x)
    a, b, d = x.triple
    if max(abs(a), abs(b), d) >= TWO_53:
        assert e is None
        return
    v, r = e
    size = (abs(a) + abs(b) * abs(Fraction(witness.value))) / d
    error = abs(Fraction(v) - _exact(witness, x))
    assert error <= Fraction(2) ** -51 * size * (1 + Fraction(1, 2 ** 40))
    assert error < Fraction(r)


@WITNESSES
@settings(max_examples=400, deadline=None)
@given(values, st.one_of(values, fibonacci))
def test_order_agrees_with_compare_or_defers_to_it(witness, x, y):
    ex, ey = witness.enclose(x), witness.enclose(y)
    decided = None
    if ex is not None and ey is not None:
        decided = _float_sign(ex[0] - ey[0], ex[1] + ey[1])
    if decided is not None:
        assert witness.compare(x, y) == decided
    with mock.patch.object(AlphaWitness, "compare", autospec=True,
                           side_effect=AlphaWitness.compare) as compare:
        try:
            got = witness.order(x, y, ex, ey)
        except PrecisionInsufficientError:
            got = None
    if x == y:
        assert got == 0 and compare.call_count == 0
    elif decided is not None:
        assert got == decided and compare.call_count == 0
    else:
        assert compare.call_count == 1
        if got is not None:
            assert got == witness.compare(x, y)


@WITNESSES
@settings(max_examples=300, deadline=None)
@given(values, values, values, st.booleans())
def test_three_term_rule(witness, x, y, z, plus):
    """The rule behind the line product's disjointness skip: x ± y − z."""
    es = [witness.enclose(t) for t in (x, y, z)]
    if None in es:
        return
    (vx, rx), (vy, ry), (vz, rz) = es
    total = (vx + vy if plus else vx - vy) - vz
    decided = _float_sign(total, rx + ry + rz)
    if decided is not None:
        exact = (x + y if plus else x - y) - z
        assert witness.compare(exact) == decided


def test_fibonacci_near_ties_reach_compare_and_raise():
    w = default_witness()
    x = qa(-FIB[143], FIB[144])
    assert w.enclose(x) is None
    with pytest.raises(PrecisionInsufficientError):
        w.order(qa(0), x, w.enclose(qa(0)), None)
    # F_40·α − F_39 ≈ 4e-9 has an enclosure too wide to separate it from 0,
    # and compare decides it
    y = qa(-FIB[39], FIB[40])
    ey = w.enclose(y)
    assert abs(ey[0]) <= ey[1]
    assert w.order(qa(0), y, w.enclose(qa(0)), ey) == w.compare(qa(0), y)


@pytest.mark.parametrize("value", ["0", "1e-300", "3e280"])
def test_witness_without_a_usable_double_encloses_nothing(value):
    w = AlphaWitness.from_decimal_string(value)
    assert w.enclose(qa(1, 1)) is None
