"""Exact arithmetic for the ring Q + Q·α and for affine maps over it.

α is a formal irrational: elements are pairs of rationals (p, q) standing for
p + q·α, compared coefficientwise for equality.  A value is stored as the
integer triple (a, b, d) with p = a/d, q = b/d, d > 0 and gcd(a, b, d) = 1,
so equality compares integers and arithmetic builds no Fraction; `p` and `q`
are Fractions built when read.  Order comparisons go through the
process-wide default AlphaWitness — a high-precision decimal value for α
used *only* to decide signs, never equality; a comparison whose value lies
inside the witness safety margin, scaled by the size of its terms, raises
instead of guessing.  `AlphaWitness.order` puts a binary64 filter with a
proven error bound in front of that comparison, so well-separated values
cost no Decimal arithmetic.  Linear systems, determinants and inverses over
Q come from one fraction-free elimination over Z, and every affine map
applies its linear part through one matrix–vector product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import FrozenInstanceError, dataclass
from decimal import Context, Decimal, localcontext
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatchError, PrecisionInsufficientError

__all__ = [
    "QAlpha",
    "AlphaWitness",
    "AffineElement",
    "Trit",
    "qa",
    "parse_rational",
    "compare",
    "enclosed_sign",
    "default_witness",
    "set_default_witness",
    "mat_identity",
    "mat_mul",
    "mat_vec",
    "mat_det",
    "mat_inv",
    "solve_linear",
    "affine_from_point_images",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse "3", "-3/2" → Fraction. Whitespace tolerated; malformed text,
    a zero denominator and exponent notation ("1e9999999" would build a
    ten-million-digit integer) raise ValueError."""
    s = text.strip().replace(" ", "")
    if "e" in s or "E" in s:
        raise ValueError(f"exponent notation is not accepted: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


# ---------------------------------------------------------------------------
# Q + Q·α
# ---------------------------------------------------------------------------

def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction: "n" or
    "n/d" in lowest terms."""
    if d != 1:
        g = math.gcd(n, d)
        if g != 1:
            n //= g
            d //= g
        if d != 1:
            return f"{n}/{d}"
    return str(n)


class QAlpha:
    """p + q·α with p, q rational; equality is coefficientwise.

    The value is stored as the integer triple (a, b, d), meaning
    (a + b·α)/d with d > 0 and gcd(a, b, d) = 1.  Each value has exactly one
    triple, so equality compares three integers and arithmetic runs on
    integers with at most one gcd.  `p` and `q` build reduced Fractions when
    read.  The hash is that of the triple, so equal values hash equally.
    """

    __slots__ = ("_t",)

    def __init__(self, p=_ZERO, q=_ZERO):
        if p.__class__ is int and q.__class__ is int:
            t = (p, q, 1)
        else:
            if p.__class__ is not Fraction:
                p = Fraction(p)
            if q.__class__ is not Fraction:
                q = Fraction(q)
            pd, qd = p.denominator, q.denominator
            if pd == qd:
                t = (p.numerator, q.numerator, pd)
            else:
                # over the lcm, no prime of d divides both new numerators
                d = math.lcm(pd, qd)
                t = (p.numerator * (d // pd), q.numerator * (d // qd), d)
        _set_t(self, t)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return QAlpha, (self.p, self.q)

    @property
    def p(self) -> Fraction:
        a, _, d = self._t
        return Fraction(a) if d == 1 else Fraction(a, d)

    @property
    def q(self) -> Fraction:
        _, b, d = self._t
        return Fraction(b) if d == 1 else Fraction(b, d)

    @property
    def triple(self) -> tuple:
        """The normal form (a, b, d): the value is (a + b·α)/d, with d > 0
        and gcd(a, b, d) = 1."""
        return self._t

    def __eq__(self, other):
        if other.__class__ is not QAlpha:
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        return hash(self._t)

    # -- ring operations (never multiplies two α-terms) --
    def __add__(self, other: "QAlpha") -> "QAlpha":
        if other.__class__ is not QAlpha:
            other = _as_qalpha(other)
        a, b, d = self._t
        a2, b2, d2 = other._t
        if d == d2:
            if d == 1:
                return _qalpha(a + a2, b + b2, 1)
            return _reduced(a + a2, b + b2, d)
        return _reduced(a * d2 + a2 * d, b * d2 + b2 * d, d * d2)

    __radd__ = __add__

    def __sub__(self, other: "QAlpha") -> "QAlpha":
        if other.__class__ is not QAlpha:
            other = _as_qalpha(other)
        a, b, d = self._t
        a2, b2, d2 = other._t
        if d == d2:
            if d == 1:
                return _qalpha(a - a2, b - b2, 1)
            return _reduced(a - a2, b - b2, d)
        return _reduced(a * d2 - a2 * d, b * d2 - b2 * d, d * d2)

    def __rsub__(self, other) -> "QAlpha":
        return _as_qalpha(other) - self

    def __neg__(self) -> "QAlpha":
        a, b, d = self._t
        return _qalpha(-a, -b, d)

    def __mul__(self, r) -> "QAlpha":
        if r.__class__ is QAlpha:
            a, b, d = r._t
            if not b:
                return self._times(a, d)
            a, b, d = self._t
            if not b:
                return r._times(a, d)
            return NotImplemented  # α² never formed
        if r.__class__ is int or r.__class__ is Fraction:
            return self.scale(r)
        return QAlpha(self.p * r, self.q * r)

    __rmul__ = __mul__

    def scale(self, r) -> "QAlpha":
        if r.__class__ is not int:
            if r.__class__ is not Fraction:
                r = Fraction(r)
            return self._times(r.numerator, r.denominator)
        return self._times(r, 1)

    def _times(self, n: int, m: int) -> "QAlpha":
        """self · n/m for m > 0."""
        a, b, d = self._t
        if m != 1:
            return _reduced(a * n, b * n, d * m)
        if n == 1:
            return self
        if d != 1:
            # gcd(a·n, b·n, d) = gcd(n, d) because gcd(a, b, d) = 1
            g = math.gcd(n, d)
            if g != 1:
                n //= g
                d //= g
        return _qalpha(a * n, b * n, d)

    # -- predicates --
    @property
    def is_rational(self) -> bool:
        return not self._t[1]

    @property
    def is_zero(self) -> bool:
        t = self._t
        return not t[0] and not t[1]

    def mod1(self) -> "QAlpha":
        """Canonical representative of p + qα modulo Z: reduce p to [0, 1).

        Unique because α is irrational: p + qα ≡ p' + q'α (mod Z) iff q = q'
        and p − p' ∈ Z.
        """
        a, b, d = self._t
        if 0 <= a < d:
            return self
        return _qalpha(a % d, b, d)  # gcd(a mod d, b, d) = gcd(a, b, d)

    # -- serialization: "p" or "p+α*q" --
    def __str__(self) -> str:
        a, b, d = self._t
        if not b:
            return _ratio_text(a, d)
        q = _ratio_text(b, d)
        if not a:
            return f"α*{q}"
        return f"{_ratio_text(a, d)}+α*{q}"

    __repr__ = __str__

    @staticmethod
    def parse(text: str) -> "QAlpha":
        """Read "p", "α" or "[p±]α[*q]" ("alpha" may stand for "α"); any
        other text, such as "2α" or "α+1", raises ValueError."""
        s = text.strip().replace(" ", "").replace("alpha", "α")
        if not s:
            raise ValueError("empty QAlpha literal")
        if "α" not in s:
            return QAlpha(parse_rational(s))
        head, _, tail = s.partition("α")
        if head and head[-1] not in "+-" or tail and tail[0] != "*":
            raise ValueError(f"malformed QAlpha literal {text!r}: "
                             "expected p, α or [p±]α[*q]")
        sign = -1 if head.endswith("-") else 1
        q = parse_rational(tail[1:]) if tail else _ONE
        p = parse_rational(head[:-1]) if len(head) > 1 else _ZERO
        return QAlpha(p, sign * q)

    def sort_key(self):
        """Deterministic order for reports; not the numeric order.  Orders
        as the pair (p, q)."""
        a, b, d = self._t
        if d == 1:
            return (a, b)
        return (Fraction(a, d), Fraction(b, d))


_set_t = QAlpha._t.__set__
_new = object.__new__


def _qalpha(a: int, b: int, d: int) -> QAlpha:
    """QAlpha from a triple already in normal form."""
    x = _new(QAlpha)
    _set_t(x, (a, b, d))
    return x


def _reduced(a: int, b: int, d: int) -> QAlpha:
    """QAlpha (a + b·α)/d for d > 0, divided through by gcd(a, b, d)."""
    g = math.gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _qalpha(a, b, d)


def _as_qalpha(x) -> QAlpha:
    if x.__class__ is QAlpha:
        return x
    if x.__class__ is int:
        return _qalpha(x, 0, 1)
    if isinstance(x, (int, Fraction)):
        return QAlpha(x)
    raise TypeError(f"cannot interpret {x!r} as QAlpha")


def qa(p=0, q=0) -> QAlpha:
    """Convenience constructor: qa(1,2) = 1 + 2α."""
    return QAlpha(p, q)


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaWitness:
    """Numeric stand-in for α, used only for order decisions and evaluation.

    `margin`: |p + q·α̂| below this raises PrecisionInsufficientError when the
    coefficients differ, instead of returning an unreliable sign.
    """

    value: Decimal
    digits: int
    margin: Decimal

    @staticmethod
    def golden(digits: int = 50, margin_digits: int = 10) -> "AlphaWitness":
        """Golden-ratio conjugate (√5 − 1)/2 ≈ 0.6180339887…"""
        with localcontext() as ctx:
            ctx.prec = digits + 10
            value = (Decimal(5).sqrt() - 1) / 2
        return AlphaWitness(value, digits, Decimal(10) ** -(digits - margin_digits))

    @staticmethod
    def from_decimal_string(s: str, digits: Optional[int] = None,
                            margin_digits: int = 10) -> "AlphaWitness":
        value = Decimal(s)
        if not value.is_finite() or math.isinf(float(value)):
            raise ValueError(f"α must be a finite number, got {s!r}")
        if digits is None:
            digits = max(len(value.as_tuple().digits), 15)
        return AlphaWitness(value, digits, Decimal(10) ** -(digits - margin_digits))

    def negated(self) -> "AlphaWitness":
        return AlphaWitness(-self.value, self.digits, self.margin)

    def _terms(self, x: QAlpha, ctx: Context) -> tuple:
        """(p, q·α̂), each rounded in ctx: p and q are the same Decimals as
        Decimal(numerator) / Decimal(denominator) of the reduced Fractions,
        since a correctly rounded quotient depends only on its value."""
        a, b, d = x._t
        if d == 1:
            p, q = ctx.create_decimal(a), ctx.create_decimal(b)
        else:
            d = Decimal(d)
            p, q = ctx.divide(Decimal(a), d), ctx.divide(Decimal(b), d)
        return p, ctx.multiply(q, self.value)

    def evaluate(self, x: QAlpha) -> Decimal:
        """p + q·α̂ rounded at digits + 10 significant digits."""
        ctx = _decimal_context(self.digits + 10)
        return ctx.add(*self._terms(x, ctx))

    def to_float(self, x: QAlpha) -> float:
        return float(self.evaluate(x))

    @functools.cached_property
    def _float_terms(self) -> Optional[tuple]:
        """(α_f, c1, c0) for `enclose`, derived once from the immutable
        witness: α_f = float(α̂), c1 = 2⁻⁴⁹ + 4m and c0 = 2m, with m the
        margin rounded up to a double; None when α_f is 0 or too far from 1
        (|α_f| outside [2⁻⁹⁰⁰, 2⁹⁰⁰]) for its relative error to be one
        rounding."""
        alpha = float(self.value)
        if not _FLOAT_ALPHA_MIN <= abs(alpha) <= _FLOAT_ALPHA_MAX:
            return None
        m = math.nextafter(float(self.margin), math.inf)
        return alpha, 2.0 ** -49 + 4 * m, 2 * m

    def enclose(self, x: QAlpha) -> Optional[tuple]:
        """(v, r): a binary64 value v of x = (a + b·α̂)/d with radius r, or
        None when |a|, |b| or d reaches 2⁵³ (or α̂ has no usable double).

        Rule: for a signed sum of at most three enclosed values, summed in
        floats from left to right, |Σ ±v| > Σ r certifies that the exact
        sum at α̂ has the float sum's sign, and that `compare` returns that
        sign for it without raising.

        Derivation, with u = 2⁻⁵³ and |a|, |b|, d < 2⁵³ exact doubles:
        α_f = α̂(1 + ε₀), and v = fl(fl(a + fl(b·α_f))/d) carries three more
        roundings, so |v − x| ≤ γ₄·S* with γ₄ = 4u/(1 − 4u) and
        S* = (|a| + |b·α̂|)/d.  The float S = (|a| + |fl(b·α_f)|)/d is at
        least (1 − 4u)·S*, hence |v − x| < 8u·S = 2⁻⁵⁰·S.  The radius is
        r = S·c1 + c0 = S·(2⁻⁴⁹ + 4m) + 2m, with m ≥ margin, computed with
        at most three roundings.  For k ≤ 3 terms the float sum is off by at
        most 2u·Σ|v| ≤ 2.1u·ΣS, and the float Σ r by a factor (1 ± 2u).
        So |Σ ±v| > Σ r implies that the exact sum at α̂ has the same sign
        and a size above (1 − 6u)·(2⁻⁴⁹ ΣS + 4m·ΣS + 2k·m) −
        (2⁻⁵⁰ + 2.1u)·ΣS > 1.9·margin·(1 + ΣS*).  `compare` of that sum
        measures its size as 1 + |p| + |q·α̂| ≤ 1 + ΣS*, and its
        `digits` + 10-digit evaluation errs far below the margin, so it
        neither raises nor disagrees.
        """
        terms = self._float_terms
        if terms is None:
            return None
        a, b, d = x._t
        if not (-_TWO_53 < a < _TWO_53 and -_TWO_53 < b < _TWO_53
                and d < _TWO_53):
            return None
        alpha, c1, c0 = terms
        t = b * alpha
        return (a + t) / d, (abs(a) + abs(t)) / d * c1 + c0

    def order(self, x: QAlpha, y: QAlpha, ex, ey, s: Optional[QAlpha] = None,
              es=None) -> int:
        """Sign of x − s − y, from the enclosures `ex`, `ey` and `es` (from
        `enclose`, or None) of x, y and s; a missing shift is s = 0, enclosed
        exactly as (0.0, 0.0).  The sign of the enclosures when they
        separate (`enclosed_sign`), else 0 when x − s equals y, else
        certified `compare`, which raises PrecisionInsufficientError on a
        near-tie.  The sign does not depend on which stage gave it."""
        sign = enclosed_sign(ex, _EXACT_ZERO if s is None else es, ey)
        if sign:
            return sign
        if s is not None:
            x = x - s
        return 0 if x == y else self.compare(x, y)

    def compare(self, x: QAlpha, y=None) -> int:
        """Sign of x − y (−1, 0, +1); exact 0 only from equal coefficients.

        With x − y = p + q·α, raises PrecisionInsufficientError when
        |p + q·α̂| < margin·(1 + |p| + |q·α̂|): the rounding error of the
        evaluation, and the error of α̂ times q, grow with the terms.
        """
        d = _as_qalpha(x)
        if y is not None:
            d = d - y
        if d.is_zero:
            return 0
        ctx = _decimal_context(self.digits + 10)
        p, qa_ = self._terms(d, ctx)
        v = ctx.add(p, qa_)
        size = ctx.add(ctx.add(p.copy_abs(), qa_.copy_abs()), _DECIMAL_ONE)
        if v.copy_abs() < ctx.multiply(self.margin, size):
            raise PrecisionInsufficientError(
                f"|{d}| < margin {self.margin}·(1 + |p| + |q·α|) "
                f"at {self.digits} digits")
        return 1 if v > 0 else -1


def enclosed_sign(ex, es, ey) -> int:
    """Sign of x − s − y from the enclosures (v, r) of x, s and y (from
    `AlphaWitness.enclose`) when they separate, |vx − vs − vy| > rx + rs +
    ry (`enclose`'s rule for a sum of three), else 0; also 0 when an
    enclosure is None."""
    if ex is None or es is None or ey is None:
        return 0
    gap = ex[0] - es[0] - ey[0]
    radius = ex[1] + es[1] + ey[1]
    if gap > radius:
        return 1
    if -gap > radius:
        return -1
    return 0


@functools.lru_cache(maxsize=16)
def _decimal_context(prec: int) -> Context:
    return Context(prec=prec)


_DECIMAL_ONE = Decimal(1)
_TWO_53 = 2 ** 53
_FLOAT_ALPHA_MIN, _FLOAT_ALPHA_MAX = 2.0 ** -900, 2.0 ** 900
# the enclosure of a shift of 0: v − 0.0 = v and r + 0.0 = r exactly
_EXACT_ZERO = (0.0, 0.0)


_DEFAULT_WITNESS: Optional[AlphaWitness] = None


def default_witness() -> AlphaWitness:
    """The witness for α used by every order decision and evaluation in the
    package (golden conjugate unless `set_default_witness` installed another).
    No object keeps a witness of its own: an operation reads this once."""
    global _DEFAULT_WITNESS
    if _DEFAULT_WITNESS is None:
        _DEFAULT_WITNESS = AlphaWitness.golden()
    return _DEFAULT_WITNESS


def set_default_witness(w: AlphaWitness) -> None:
    global _DEFAULT_WITNESS
    _DEFAULT_WITNESS = w


def compare(x: QAlpha, y=None) -> int:
    """Sign of x − y under the default witness."""
    return default_witness().compare(x, y)


class Trit(Enum):
    """Three-valued answer for bounded-decidable questions."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def __bool__(self):
        raise TypeError("Trit is three-valued; test against Trit members")


# ---------------------------------------------------------------------------
# exact linear algebra over Q (tiny dimensions)
# ---------------------------------------------------------------------------

# tuple[tuple[int | Fraction, ...], ...]; a frozen matrix holds each entry in
# the form `_entry` gives it
Matrix = tuple


def _entry(x):
    """The canonical form of a rational entry: an int when x is integral,
    else a Fraction with denominator > 1.  Both forms of one value compare,
    hash and print alike; the int form keeps that work in C."""
    if x.__class__ is int:
        return x
    if x.__class__ is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _freeze_matrix(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(_entry(x) for x in row) for row in rows)


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise DimensionMismatchError("matrix product shape mismatch")
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def mat_vec(a: Matrix, vec: Sequence[QAlpha]) -> tuple:
    """a·vec for a rational matrix a and a vector over Q + Qα."""
    return tuple(sum((x.scale(c) for c, x in zip(row, vec)), QAlpha())
                 for row in a)


def _cleared_row(row: Sequence) -> tuple:
    """The row times the lcm of its denominators, as a list of ints, and
    that lcm."""
    vals = [x if x.__class__ is int or x.__class__ is Fraction else Fraction(x)
            for x in row]
    lcm = math.lcm(*[x.denominator for x in vals])
    return [x.numerator * (lcm // x.denominator) for x in vals], lcm


def _eliminate(m: list, cols: int) -> tuple:
    """Gauss–Jordan on the integer rows m, in place, over their first `cols`
    columns: (pivot columns, last pivot, parity of the row swaps as ±1).

    Each column takes the leftmost nonzero pivot at or below the current
    row.  The elimination is fraction-free (Bareiss, Math. Comp. 22, 1968):
    each step divides exactly by the previous pivot, so every pivot entry
    ends equal to the last pivot, and for a square matrix of full rank the
    last pivot is ± its determinant, the sign being the swap parity.
    """
    rows = len(m)
    pivots = []
    r = 0
    prev = sign = 1
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i in range(rows):
            if i != r:
                row = m[i]
                f = row[c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots, prev, sign


def mat_det(a: Matrix) -> Fraction:
    """Determinant of a square matrix: ± the last pivot of `_eliminate` over
    the product of the row lcms, and 0 below full rank."""
    cleared = [_cleared_row(row) for row in a]
    pivots, last, sign = _eliminate([row for row, _ in cleared], len(a))
    if len(pivots) < len(a):
        return _ZERO
    return Fraction(sign * last, math.prod(lcm for _, lcm in cleared))


def mat_inv(a: Matrix) -> Matrix:
    """Inverse of a square matrix, by eliminating [a | I]; raises
    ZeroDivisionError("singular matrix") below full rank."""
    n = len(a)
    m = [_cleared_row((*row, *(int(i == j) for j in range(n))))[0]
         for i, row in enumerate(a)]
    pivots, last, _ = _eliminate(m, n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(Fraction(x, last) for x in row[n:]) for row in m)


def solve_linear(a: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve a·x = rhs exactly. Returns ("unique", x), ("none", None) or
    ("many", particular_solution).

    `_eliminate` on [a | rhs], with the free variables set to zero: every
    pivot entry ends equal to the last pivot, so x costs one division per
    pivot.
    """
    rows, cols = len(a), len(a[0]) if a else 0
    m = [_cleared_row((*row, rhs[i]))[0] for i, row in enumerate(a)]
    pivots, last, _ = _eliminate(m, cols)
    for i in range(len(pivots), rows):
        if m[i][cols]:
            return "none", None
    x = [_ZERO] * cols
    for row_idx, c in enumerate(pivots):
        x[c] = Fraction(m[row_idx][cols], last)
    return ("unique" if len(pivots) == cols else "many"), x


# ---------------------------------------------------------------------------
# affine maps x ↦ A·x + b with A rational invertible, b over Q + Qα
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineElement:
    """Affine map on R^n: rational invertible linear part, Q+Qα translation.

    Each entry of the linear part is in `_entry`'s form: an int when it is
    integral, else a Fraction with denominator > 1, so a translation's
    linear part is a matrix of 0/1 ints.  The public constructor brings the
    entries to that form and validates shape and invertibility.  `compose`
    and `invert` build their results with `_affine`, which skips the checks:
    a product or inverse of valid elements is valid.  Equality and the hash
    generated by the dataclass are those of the pair (a, b).
    """

    a: Matrix
    b: tuple

    def __post_init__(self):
        a = _freeze_matrix(self.a)
        b = tuple(_as_qalpha(x) for x in self.b)
        if len(a) != len(b) or any(len(row) != len(a) for row in a):
            raise DimensionMismatchError("affine element shape mismatch")
        if mat_det(a) == 0:
            raise ValueError("linear part must be invertible")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return len(self.b)

    @staticmethod
    def identity(n: int) -> "AffineElement":
        return AffineElement(mat_identity(n), tuple(QAlpha() for _ in range(n)))

    @staticmethod
    def translation(vec: Sequence) -> "AffineElement":
        vec = tuple(_as_qalpha(v) for v in vec)
        return AffineElement(mat_identity(len(vec)), vec)

    @staticmethod
    def linear(rows) -> "AffineElement":
        rows = _freeze_matrix(rows)
        return AffineElement(rows, tuple(QAlpha() for _ in rows))

    # -- group operations --
    def compose(self, other: "AffineElement") -> "AffineElement":
        """self ∘ other (apply `other` first): (A, b)∘(A', b') = (AA', Ab'+b)."""
        n = len(self.b)
        if n != len(other.b):
            raise DimensionMismatchError("composing maps of different dimension")
        if n == 1:
            s, t = self.a[0][0], other.a[0][0]
            if s == 1:
                return _affine(other.a, (other.b[0] + self.b[0],))
            a = self.a if t == 1 else ((_entry(s * t),),)
            return _affine(a, (other.b[0].scale(s) + self.b[0],))
        b = tuple(x + y for x, y in zip(mat_vec(self.a, other.b), self.b))
        return _affine(_freeze_matrix(mat_mul(self.a, other.a)), b)

    def invert(self) -> "AffineElement":
        if len(self.b) == 1:
            s = self.a[0][0]
            if s == 1:
                return _affine(self.a, (-self.b[0],))
            inv = _entry(Fraction(1, s))
            return _affine(((inv,),), (-self.b[0].scale(inv),))
        inv = _freeze_matrix(mat_inv(self.a))
        return _affine(inv, tuple(-x for x in mat_vec(inv, self.b)))

    def apply(self, x: Sequence) -> tuple:
        if len(self.b) == 1 and len(x) == 1:
            v = x[0]
            if v.__class__ is not QAlpha:
                v = _as_qalpha(v)
            s = self.a[0][0]
            return ((v if s == 1 else v.scale(s)) + self.b[0],)
        x = tuple(_as_qalpha(v) for v in x)
        if len(x) != self.n:
            raise DimensionMismatchError("point dimension mismatch")
        return tuple(y + z for y, z in zip(mat_vec(self.a, x), self.b))

    @property
    def is_identity(self) -> bool:
        return self.is_translation and all(x.is_zero for x in self.b)

    @property
    def is_translation(self) -> bool:
        a = self.a
        if len(a) == 1:
            return a[0][0] == 1
        return a == mat_identity(len(a))

    # -- serialization --
    def to_json(self) -> dict:
        return {
            "A": [[str(x) for x in row] for row in self.a],
            "b": [str(x) for x in self.b],
        }

    @staticmethod
    def from_json(obj: dict) -> "AffineElement":
        a = [[parse_rational(x) for x in row] for row in obj["A"]]
        b = [QAlpha.parse(x) for x in obj["b"]]
        return AffineElement(a, tuple(b))

    def __str__(self) -> str:
        if self.is_translation:
            return "t[" + ", ".join(str(x) for x in self.b) + "]"
        rows = "; ".join(" ".join(str(x) for x in row) for row in self.a)
        return f"aff[{rows} | " + ", ".join(str(x) for x in self.b) + "]"

    __repr__ = __str__


def _affine(a: Matrix, b: tuple) -> AffineElement:
    """AffineElement from an already frozen invertible matrix and a tuple of
    QAlpha, without the checks of the public constructor."""
    el = _new(AffineElement)
    object.__setattr__(el, "a", a)
    object.__setattr__(el, "b", b)
    return el


def vec_eq(x: Sequence[QAlpha], y: Sequence[QAlpha]) -> bool:
    return len(x) == len(y) and all(a == b for a, b in zip(x, y))


def affine_from_point_images(points: Sequence[Sequence], images: Sequence[Sequence]) -> AffineElement:
    """Recover the unique affine map sending the given n+1 affinely independent
    *rational* points to the given images (affine rigidity).

    Differences of images determine the rational linear part exactly; the
    translation part may carry α.
    """
    pts = [tuple(_as_qalpha(v) for v in p) for p in points]
    ims = [tuple(_as_qalpha(v) for v in p) for p in images]
    n = len(pts[0])
    if len(pts) != n + 1 or len(ims) != n + 1:
        raise DimensionMismatchError(f"need exactly {n + 1} point/image pairs")
    if any(not v.is_rational for p in pts for v in p):
        raise ValueError("anchor points must be rational for exact recovery")
    d = [[(pts[k + 1][j] - pts[0][j]).p for k in range(n)] for j in range(n)]
    try:
        d_inv = mat_inv(_freeze_matrix(d))
    except ZeroDivisionError:
        raise ValueError("points are affinely dependent") from None
    e = [tuple(ims[k + 1][j] - ims[0][j] for j in range(n)) for k in range(n)]
    if any(not v.is_rational for col in e for v in col):
        raise ValueError("image differences must be rational (rational linear part)")
    # A·D = E with D columns = point differences: A = E·D⁻¹
    e_mat = _freeze_matrix([[e[k][j].p for k in range(n)] for j in range(n)])
    a = mat_mul(e_mat, d_inv)
    b = tuple(y - x for x, y in zip(mat_vec(a, pts[0]), ims[0]))
    return AffineElement(a, b)
