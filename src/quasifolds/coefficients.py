"""Coefficient functions for convolution algebra elements.

TrigPoly: finite Fourier sums on R/Z, modes k ↦ c_k; rotation by t multiplies
c_k by e^{2πikt}, so rational and α-rotations act exactly on the mode index
structure (numerically on the values).  A TrigPoly is stored as the dense row
the kernels take: its first mode and the coefficients of every mode from
there to its last, so products, rotations, sums and distances run on rows
with no conversion, and the sorted nonzero `modes` are derived on read.  A
row holds the poly's full mode span, zeros included.

PiecewisePoly: compactly supported piecewise polynomials on R with exact
Q+Qα breakpoints.  Piece coefficients are stored in local coordinates
u = x − (left breakpoint), which makes translation exact in both breakpoints
and coefficients.  A sum, product or distance aligns its two operands with
one ordered walk through both breakpoint tuples (`PiecewisePoly._aligned`),
O(n + m) steps and no sort; operands with equal breakpoint tuples need no
walk.  The walk orders two breakpoints by the witness's binary64
enclosures (`enclosed_sign`), else by exact equality, else by certified
`compare` (`AlphaWitness.order`), and Taylor-shifts a piece to a grid point
by the witness's float of the exact offset.  It can also walk its left
operand shifted by an exact s, with no shifted copy, and keep enclosures
and Taylor shifts in a memo its caller passes on: a line product walks each
coefficient against many others, and first asks `_disjoint`, by the same
enclosures, whether a pair's supports are apart.  A product asks for local
coefficients only where both factors are live.  Distances are NaN when a
coefficient difference is NaN (`_largest`).
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import FrozenInstanceError, dataclass
from itertools import zip_longest
from typing import Sequence

from . import _kernels as K
from .errors import QuasifoldError
from .exact import QAlpha, _as_qalpha, default_witness, enclosed_sign

__all__ = ["TrigPoly", "PiecewisePoly"]


class TrigPoly:
    """Finite complex Fourier sum Σ c_k e^{2πikx}, stored as a dense row.

    `coeffs[i]` is the coefficient of mode `offset + i`; the first and last
    are nonzero and an interior zero is stored as +0j (the zero poly has
    offset 0 and no coefficients).  `modes`, the sorted ((k, c), ...) pairs
    with zero coefficients pruned, is derived from the row.  The class
    behaves as a frozen dataclass with the one field `modes`: the public
    constructor stores its argument and calls `__post_init__`, which checks
    it and builds the row; equality, hash and repr are those of `modes`.
    """

    __slots__ = ("offset", "coeffs")

    def __init__(self, modes: tuple = ()):
        _set_coeffs(self, modes)  # the row replaces it in __post_init__
        self.__post_init__()

    def __post_init__(self):
        raw = self.coeffs
        modes = {k if k.__class__ is int else _mode_index(k): complex(c)
                 for k, c in raw}
        if len(modes) != len(raw):
            raise QuasifoldError("TrigPoly mode indices must be distinct")
        _require_finite(modes.values(), "TrigPoly")
        live = [k for k, c in modes.items() if c]
        lo = min(live, default=0)
        row = [0j] * (max(live, default=lo - 1) - lo + 1)
        for k in live:
            row[k - lo] = modes[k]
        _set_offset(self, lo)
        _set_coeffs(self, tuple(row))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return TrigPoly, (self.modes,)

    def __eq__(self, other):
        if other.__class__ is not TrigPoly:
            return NotImplemented
        # trimmed rows are equal exactly when their nonzero modes are
        return self.offset == other.offset and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.modes,))

    def __repr__(self):
        return f"{type(self).__qualname__}(modes={self.modes!r})"

    @property
    def modes(self) -> tuple:
        off = self.offset
        return tuple((off + i, c) for i, c in enumerate(self.coeffs) if c)

    @staticmethod
    def from_dict(d: dict) -> "TrigPoly":
        return TrigPoly(tuple(d.items()))

    @staticmethod
    def mode(k: int, c=1.0) -> "TrigPoly":
        return TrigPoly(((k, complex(c)),))

    @staticmethod
    def one() -> "TrigPoly":
        return TrigPoly.mode(0, 1.0)

    def as_dict(self) -> dict:
        return dict(self.modes)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @staticmethod
    def _from_dense(off: int, arr) -> "TrigPoly":
        """TrigPoly from the coefficients `arr` of modes off, off + 1, ...,
        skipping `__post_init__`: zero ends are cut off and interior zeros
        stored as +0j."""
        i, n = 0, len(arr)
        while i < n and not arr[i]:
            i += 1
        while n > i and not arr[n - 1]:
            n -= 1
        row = tuple(arr[i:n])
        if 0j in row:
            row = tuple(c if c else 0j for c in row)
        poly = _new(TrigPoly)
        _set_offset(poly, off + i if row else 0)
        _set_coeffs(poly, row)
        return poly

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        """Coefficientwise sum: a mode only self has keeps its coefficient,
        a mode only other has gets 0j + c, as a sum of mode dicts does."""
        lo, (a, b) = dense_rows((self, other))
        row = list(a)
        for j, c in enumerate(b):
            if c:
                row[j] += c
        return TrigPoly._from_dense(lo, row)

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        if self.is_zero or other.is_zero:
            return TrigPoly()
        off, arr = K.trig_mul(self.offset, self.coeffs,
                              other.offset, other.coeffs)
        return TrigPoly._from_dense(off, arr)

    def scale(self, s) -> "TrigPoly":
        s = complex(s)
        row = [c * s for c in self.coeffs]
        _require_finite(row, "TrigPoly")
        return TrigPoly._from_dense(self.offset, row)

    def conjugate(self) -> "TrigPoly":
        """Pointwise complex conjugate: c_k ↦ conj(c_{−k})."""
        return TrigPoly._from_dense(
            1 - self.offset - len(self.coeffs),
            [c.conjugate() for c in reversed(self.coeffs)])

    def rotate(self, t: float) -> "TrigPoly":
        """Precompose with rotation: x ↦ x + t (c_k picks up e^{2πikt})."""
        off = self.offset
        return TrigPoly._from_dense(off, K.trig_rotate(off, self.coeffs,
                                                       float(t)))

    def eval(self, x: float) -> complex:
        return K.trig_eval(self.offset, self.coeffs, float(x))

    def sup_bound(self) -> float:
        return sum(map(abs, self.coeffs))

    def distance(self, other: "TrigPoly") -> float:
        """Max coefficient difference; NaN when a difference is NaN."""
        _, (a, b) = dense_rows((self, other))
        return _largest(map(abs, map(operator.sub, a, b)))

    def allclose(self, other: "TrigPoly", tol: float) -> bool:
        return self.distance(other) <= tol

    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(-self.offset, self.offset + len(self.coeffs) - 1)

    def to_json(self):
        return {"kind": "trig",
                "modes": {str(k): [c.real, c.imag] for k, c in self.modes}}

    @staticmethod
    def from_json(obj) -> "TrigPoly":
        return TrigPoly(tuple((k, complex(re, im))
                              for k, (re, im) in obj["modes"].items()))


_new = object.__new__
_set_offset = TrigPoly.offset.__set__
_set_coeffs = TrigPoly.coeffs.__set__


def _mode_index(k) -> int:
    """k as an int: an integer, or the decimal string of one (JSON keys)."""
    try:
        return int(k) if isinstance(k, str) else operator.index(k)
    except (TypeError, ValueError):
        raise QuasifoldError(f"TrigPoly mode index {k!r} is not an integer") from None


def dense_rows(polys) -> tuple:
    """(first mode, rows): each TrigPoly's coefficients padded with 0j to one
    common mode range (empty rows if all polys are 0)."""
    live = [p for p in polys if p.coeffs]
    if not live:
        return 0, [() for _ in polys]
    lo = min(p.offset for p in live)
    hi = max(p.offset + len(p.coeffs) for p in live)
    rows = []
    for p in polys:
        c = p.coeffs
        if c:
            rows.append((0j,) * (p.offset - lo) + c
                        + (0j,) * (hi - p.offset - len(c)))
        else:
            rows.append((0j,) * (hi - lo))
    return lo, rows


def _require_finite(coefficients, kind: str):
    if not all(map(cmath.isfinite, coefficients)):
        raise QuasifoldError(f"{kind} coefficients must be finite")


def _largest(values) -> float:
    """The largest of `values`, magnitudes ≥ 0 (0.0 for none), or the first
    NaN among them: `max` keeps its running value against a NaN, so a NaN
    distance would pass every tolerance check.  A sum of such values is
    NaN exactly when one of them is."""
    values = list(values)
    if math.isnan(sum(values)):
        return next(filter(math.isnan, values))
    return max(values, default=0.0)


def _taylor(coeffs: tuple, offset: QAlpha, to_float, memo: dict) -> tuple:
    """The piece `coeffs` Taylor-shifted by the exact, nonzero `offset`,
    through the witness's float of it (`to_float`), computed once per
    (piece, offset) and kept in `memo`.  The piece is keyed by identity,
    since pieces that differ only in the sign of a zero compare equal but
    shift to different bits; the entry holds the piece, so its id is not
    reused while the memo lives."""
    key = (id(coeffs), offset)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (coeffs, tuple(
            K.poly_shift(list(coeffs), to_float(offset))))
    return hit[1]


def _enclosed(x, memo: dict):
    """The default witness's enclosures (`AlphaWitness.enclose`) of an exact
    shift x, as (of x, of −x), or of each breakpoint of a PiecewisePoly x,
    computed once and kept in `memo`, keyed by identity as in `_taylor`."""
    hit = memo.get(id(x))
    if hit is None:
        enclose = default_witness().enclose
        if x.__class__ is QAlpha:
            e = enclose(x)
            value = e, None if e is None else (-e[0], e[1])
        else:
            value = [enclose(b) for b in x.breakpoints]
        hit = memo[id(x)] = (x, value)
    return hit[1]


@dataclass(frozen=True)
class PiecewisePoly:
    """Compactly supported piecewise polynomial with exact breakpoints.

    pieces[i] holds complex coefficients (ascending degree) in the local
    variable u = x − breakpoints[i], valid on [breakpoints[i], breakpoints[i+1]].
    The public constructor takes no breakpoints or two or more, strictly
    increasing under the default witness's certified `compare`.
    """

    breakpoints: tuple = ()
    pieces: tuple = ()

    def __post_init__(self):
        bps = _increasing(self.breakpoints)
        pcs = tuple(tuple(map(complex, p)) for p in self.pieces)
        if len(bps) == 1 or len(pcs) != max(len(bps) - 1, 0):
            raise QuasifoldError("need 0 or ≥ 2 breakpoints, one piece per gap")
        _require_finite((c for p in pcs for c in p), "PiecewisePoly")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", pcs)

    @staticmethod
    def zero() -> "PiecewisePoly":
        return PiecewisePoly()

    @staticmethod
    def constant_on(lo: QAlpha, hi: QAlpha, c) -> "PiecewisePoly":
        return PiecewisePoly((lo, hi), ((complex(c),),))

    @staticmethod
    def interpolate_linear(breaks: Sequence[QAlpha],
                           values: Sequence) -> "PiecewisePoly":
        """Continuous piecewise-linear interpolant (values at breakpoints)."""
        if len(values) != len(breaks):
            raise QuasifoldError("one value per breakpoint")
        breaks = _increasing(breaks)
        w = default_witness()
        pieces = []
        for i in range(len(breaks) - 1):
            width = w.to_float(breaks[i + 1] - breaks[i])
            v0, v1 = complex(values[i]), complex(values[i + 1])
            pieces.append((v0, (v1 - v0) / width))
        return PiecewisePoly(breaks, tuple(pieces))

    @property
    def is_zero(self) -> bool:
        return all(all(c == 0 for c in p) for p in self.pieces)

    def support(self):
        if not self.breakpoints:
            return None
        return self.breakpoints[0], self.breakpoints[-1]

    def degree(self) -> int:
        deg = 0
        for p in self.pieces:
            nz = [i for i, c in enumerate(p) if c != 0]
            if nz:
                deg = max(deg, nz[-1])
        return deg

    # -- exact translation; pointwise maps keep the breakpoints --
    def shift_arg(self, s: QAlpha) -> "PiecewisePoly":
        """x ↦ self(x + s): breakpoints move by −s; local pieces unchanged."""
        return _piecewise(tuple(b - s for b in self.breakpoints), self.pieces)

    def scale(self, c) -> "PiecewisePoly":
        c = complex(c)
        pieces = tuple(tuple(x * c for x in p) for p in self.pieces)
        _require_finite((x for p in pieces for x in p), "PiecewisePoly")
        return _piecewise(self.breakpoints, pieces)

    def conjugate(self) -> "PiecewisePoly":
        return _piecewise(self.breakpoints,
                          tuple(tuple(x.conjugate() for x in p) for p in self.pieces))

    # -- grid alignment --
    def _aligned(self, other: "PiecewisePoly", overlap: bool = False,
                 s: QAlpha | None = None, memo: dict | None = None):
        """(grid, mine, theirs): both operands' breakpoints in order, and
        each one's local coefficients per grid interval (() off its support;
        with `overlap`, () for both wherever either is off its support).

        With an exact shift `s`, the left operand is self(· + s): its
        breakpoints read b − s and its pieces are self's, as for
        `self.shift_arg(s)`, but no shifted copy is built.  Operands with
        equal breakpoint tuples and no shift need no walk: the grid is
        theirs and the pieces are the stored ones.

        The walk orders its two heads with the witness's `order`: binary64
        enclosures decide a separated pair; an exactly equal pair enters
        the grid once; only an undecided pair reaches certified `compare`,
        which raises PrecisionInsufficientError on a near-tie.  `memo`, a
        dict that lives for one operation (one per call when not given),
        keeps each operand's and s's enclosures and each Taylor shift, so a
        caller that walks one coefficient against many others computes
        them once (see `_enclosed` and `_taylor`)."""
        a, b = self.breakpoints, other.breakpoints
        if s is None and a == b:
            return list(a), list(self.pieces), list(other.pieces)
        if memo is None:
            memo = {}
        ea, eb = _enclosed(self, memo), _enclosed(other, memo)
        es = None if s is None else _enclosed(s, memo)[0]
        w = default_witness()
        order, to_float = w.order, w.to_float
        pa, pb = self.pieces, other.pieces
        n, m = len(a), len(b)
        i = j = 0
        grid, mine, theirs = [], [], []
        while i < n or j < m:
            if j == m:
                sign = -1
            elif i == n:
                sign = 1
            else:
                sign = order(a[i], b[j], ea[i], eb[j], s, es)
            # x enters the grid (a tie as other's breakpoint, which needs no
            # subtraction); a piece that starts there is read as stored,
            # one that started before is Taylor-shifted to x
            if sign >= 0:
                x = b[j]
            else:
                x = a[i] if s is None else a[i] - s
            if sign <= 0:
                i += 1
                start_a = x
            if sign >= 0:
                j += 1
                start_b = x
            grid.append(x)
            if overlap and not (0 < i < n and 0 < j < m):
                mine.append(())
                theirs.append(())
                continue
            mine.append(() if not 0 < i < n else pa[i - 1] if sign <= 0
                        else _taylor(pa[i - 1], x - start_a, to_float, memo))
            theirs.append(() if not 0 < j < m else pb[j - 1] if sign >= 0
                          else _taylor(pb[j - 1], x - start_b, to_float, memo))
        return grid, mine[:-1], theirs[:-1]

    def _disjoint(self, other: "PiecewisePoly", s: QAlpha,
                  memo: dict) -> bool:
        """True when the enclosures prove the support of self(· + s),
        [lo − s, hi − s], and that of other, [lo′, hi′], disjoint:
        lo′ − (−s) − hi > 0 or lo − s − hi′ > 0 by `enclosed_sign`.  False
        when they cannot decide.  Both operands have breakpoints; the
        enclosures are `_aligned`'s, from the same `memo`."""
        mine, theirs = _enclosed(self, memo), _enclosed(other, memo)
        es, minus_es = _enclosed(s, memo)
        return (enclosed_sign(theirs[0], minus_es, mine[-1]) > 0
                or enclosed_sign(mine[0], es, theirs[-1]) > 0)

    def __add__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        if not self.breakpoints or not other.breakpoints:
            return self if self.breakpoints else other
        grid, mine, theirs = self._aligned(other)
        return _trimmed(grid, [tuple(K.poly_add(list(a), list(b)))
                               for a, b in zip(mine, theirs)])

    def __mul__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        grid, mine, theirs = self._aligned(other, overlap=True)
        return _trimmed(grid, [tuple(K.poly_mul(list(a), list(b)))
                               if a and b else () for a, b in zip(mine, theirs)])

    # -- numerics --
    def eval(self, x: float) -> complex:
        if not self.breakpoints:
            return 0j
        w = default_witness()
        floats = [w.to_float(b) for b in self.breakpoints]
        if x < floats[0] or x > floats[-1]:
            return 0j
        for i in range(len(self.pieces)):
            if x <= floats[i + 1]:
                return K.poly_eval(list(self.pieces[i]), x - floats[i])
        return 0j

    def max_jump(self) -> float:
        """Largest discontinuity across interior breakpoints (and the ends,
        where the function must meet zero)."""
        if not self.breakpoints:
            return 0.0
        w = default_witness()
        worst = abs(K.poly_eval(list(self.pieces[0]), 0.0))
        for i in range(len(self.pieces) - 1):
            width = w.to_float(self.breakpoints[i + 1] - self.breakpoints[i])
            left = K.poly_eval(list(self.pieces[i]), width)
            right = K.poly_eval(list(self.pieces[i + 1]), 0.0)
            worst = max(worst, abs(left - right))
        last_width = w.to_float(self.breakpoints[-1] - self.breakpoints[-2])
        worst = max(worst, abs(K.poly_eval(list(self.pieces[-1]), last_width)))
        return worst

    def sup_bound(self) -> float:
        """A bound on |self(x)| over every x: the max over pieces of
        Σ |c_k|·w^k, w the piece's width, which bounds the local polynomial
        on [0, w]."""
        w, bps = default_witness(), self.breakpoints
        bound = 0.0
        for lo, hi, p in zip(bps, bps[1:], self.pieces):
            width = w.to_float(hi - lo)
            bound = max(bound, sum(abs(c) * width ** k
                                   for k, c in enumerate(p)))
        return bound

    def distance(self, other: "PiecewisePoly") -> float:
        """Max coefficient difference on the merged grid (bounds nothing by
        itself, but is exactly the right notion for route comparisons).

        Each difference is u + v·(−1.0), a missing coefficient read as 0j,
        not u − v: the two differ in abs (NaN against inf) when v has a
        non-finite part, as products that overflow can have.  Where the
        pieces have equal lengths and every v is finite, abs(u − v) is that
        same float and is taken directly.  NaN when any difference is
        NaN."""
        _, mine, theirs = self._aligned(other)
        diffs = []
        for a, b in zip(mine, theirs):
            if len(a) == len(b) and all(map(cmath.isfinite, b)):
                diffs += map(operator.sub, a, b)
            else:
                diffs += (u + v * -1.0 for u, v
                          in zip_longest(a, b, fillvalue=0j))
        return _largest(map(abs, diffs))

    def allclose(self, other: "PiecewisePoly", tol: float) -> bool:
        return self.distance(other) <= tol

    def to_json(self):
        return {"kind": "piecewise",
                "breakpoints": [str(b) for b in self.breakpoints],
                "pieces": [[[c.real, c.imag] for c in p] for p in self.pieces]}

    @staticmethod
    def from_json(obj) -> "PiecewisePoly":
        return PiecewisePoly(
            tuple(QAlpha.parse(b) for b in obj["breakpoints"]),
            tuple(tuple(complex(re, im) for re, im in p) for p in obj["pieces"]))


def _increasing(breaks) -> tuple:
    """The breakpoints as QAlpha (ints and Fractions are converted), checked
    to increase strictly by the certified `compare`, which raises
    PrecisionInsufficientError on a near-tie."""
    try:
        bps = tuple(map(_as_qalpha, breaks))
    except TypeError:
        raise QuasifoldError("PiecewisePoly breakpoints must be in Q+Qα") from None
    compare = default_witness().compare
    if any(compare(lo, hi) >= 0 for lo, hi in zip(bps, bps[1:])):
        raise QuasifoldError("PiecewisePoly breakpoints must increase strictly")
    return bps


def _trimmed(breaks: list, pieces: list) -> PiecewisePoly:
    """PiecewisePoly on the grid `breaks` with its zero end pieces cut off."""
    nonzero = [i for i, p in enumerate(pieces) if any(p)]
    if not nonzero:
        return PiecewisePoly()
    lo, hi = nonzero[0], nonzero[-1] + 1
    return _piecewise(tuple(breaks[lo:hi + 1]), tuple(pieces[lo:hi]))


def _piecewise(breakpoints: tuple, pieces: tuple) -> PiecewisePoly:
    """PiecewisePoly from a breakpoint tuple and a matching tuple of complex
    coefficient tuples, skipping `__post_init__`."""
    poly = object.__new__(PiecewisePoly)
    object.__setattr__(poly, "breakpoints", breakpoints)
    object.__setattr__(poly, "pieces", pieces)
    return poly
