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
and coefficients.  A sum or distance aligns its two operands with one
ordered walk through both breakpoint tuples (`PiecewisePoly._aligned`),
O(n + m) steps and no sort; a product walks only the overlap of the two
supports (`_overlap`), stops as soon as either operand ends, and yields
just the pairs of pieces to multiply.  Operands with equal breakpoint
tuples need no walk.  Both walks order two breakpoints by the witness's
binary64 enclosures (`enclosed_sign`), else by exact equality, else by
certified `compare` (`AlphaWitness.order`), and Taylor-shift a piece to a
grid point by the witness's float of the exact offset, kept once per
offset.  The overlap walk can read the left operand shifted by an exact s,
with no shifted copy, and keeps Taylor shifts in a memo that lives for one
operation.  A line product Σ f_a(· + s)·g_s is planned here
(`_line_plan`): it fetches each coefficient's enclosures once, skips by
the same `enclosed_sign` rule the key pairs whose supports are apart, and
writes every live pair of pieces straight into the rows of the batched
product kernel.  Distances are NaN when a coefficient difference is NaN
(`_largest`).
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
    (piece, offset) and kept in `memo`, as is the float of each offset.
    The piece is keyed by identity, since pieces that differ only in the
    sign of a zero compare equal but shift to different bits; the entry
    holds the piece, so its id is not reused while the memo lives."""
    key = (id(coeffs), offset)
    hit = memo.get(key)
    if hit is None:
        h = memo.get(offset)
        if h is None:
            h = memo[offset] = to_float(offset)
        hit = memo[key] = (coeffs, tuple(K.poly_shift(list(coeffs), h)))
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


def _overlap(f, ef, g, eg, s, es, memo: dict, lefts: list,
             rights: list) -> tuple:
    """(grid, live): the walk of f(· + s) against g over the overlap of
    their supports only.  `grid` holds the walk's points from the first
    where both have started to the first where either ends, and `live[k]`
    tells whether both pieces on [grid[k], grid[k+1]] are nonempty; for
    each live interval, in order, f's piece is appended to `lefts` and g's
    to `rights`, as local coefficients at grid[k].

    `ef`, `eg` and `es` are the enclosures of f's and g's breakpoints and
    of s (`_enclosed`); with s None, f is read unshifted and es is unused.
    The heads are ordered as in `PiecewisePoly._aligned`, so the grid is
    that walk's grid cut to the overlap, with the same exceptions, and a
    piece that started before a grid point is Taylor-shifted to it only
    where the interval is live (`_taylor`, with `memo`).  No enclosure is
    computed here: a caller that walks one coefficient against many
    fetches each list once."""
    a, b = f.breakpoints, g.breakpoints
    pa, pb = f.pieces, g.pieces
    w = default_witness()
    order, to_float = w.order, w.to_float
    n, m = len(a), len(b)
    i = j = 0
    grid, live = [], []
    while i < n and j < m:
        sign = order(a[i], b[j], ef[i], eg[j], s, es)
        # x enters the walk (a tie as g's breakpoint, which needs no
        # subtraction); a piece that starts there is read as stored, one
        # that started before is Taylor-shifted to x
        if sign >= 0:
            x = start_b = b[j]
            j += 1
        else:
            x = a[i] if s is None else a[i] - s
        if sign <= 0:
            start_a = x
            i += 1
        if not (i and j):
            continue
        grid.append(x)
        if i == n or j == m:
            break
        u, v = pa[i - 1], pb[j - 1]
        if u and v:
            lefts.append(u if sign <= 0
                         else _taylor(u, x - start_a, to_float, memo))
            rights.append(v if sign >= 0
                          else _taylor(v, x - start_b, to_float, memo))
            live.append(True)
        else:
            live.append(False)
    return grid, live


def _line_plan(f_support: tuple, g_support: tuple, lefts: list,
               rights: list) -> list:
    """[(a + s, grid, live)] over the key pairs (s outer, a inner) of the
    line product Σ f_a(· + s)·g_s: each pair's `_overlap` walk, which
    appends its live pieces to `lefts` and `rights`.

    A pair is skipped, its product being zero, when `enclosed_sign` proves
    the support of f_a(· + s), [lo − s, hi − s], and that of g_s,
    [lo′, hi′], disjoint: lo′ − (−s) − hi > 0 or lo − s − hi′ > 0.  One
    memo per call keeps the enclosures and the Taylor shifts; each f_a's
    enclosure list is fetched once per call, and each (s, g_s)'s once per
    outer step."""
    memo, plan = {}, []
    fs = [(a, ca, _enclosed(ca, memo)) for a, ca in f_support]
    for s, cs in g_support:
        es, minus_es = _enclosed(s, memo)
        eg = _enclosed(cs, memo)
        lo, hi = eg[0], eg[-1]
        for a, ca, ef in fs:
            if (enclosed_sign(lo, minus_es, ef[-1]) > 0
                    or enclosed_sign(ef[0], es, hi) > 0):
                continue
            grid, live = _overlap(ca, ef, cs, eg, s, es, memo, lefts, rights)
            plan.append((a + s, grid, live))
    return plan


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
        return not any(map(any, self.pieces))

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
    def _aligned(self, other: "PiecewisePoly"):
        """(grid, mine, theirs): both operands' breakpoints in order, and
        each one's local coefficients per grid interval (() off its
        support), for `+` and `distance`; a product walks only the overlap
        (`_overlap`).  Operands with equal breakpoint tuples need no walk:
        the grid is theirs and the pieces are the stored ones.

        The walk orders its two heads with the witness's `order`: binary64
        enclosures decide a separated pair; an exactly equal pair enters
        the grid once; only an undecided pair reaches certified `compare`,
        which raises PrecisionInsufficientError on a near-tie.  A memo that
        lives for the call keeps each operand's enclosures and each Taylor
        shift (see `_enclosed` and `_taylor`)."""
        a, b = self.breakpoints, other.breakpoints
        if a == b:
            return list(a), list(self.pieces), list(other.pieces)
        memo = {}
        ea, eb = _enclosed(self, memo), _enclosed(other, memo)
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
                sign = order(a[i], b[j], ea[i], eb[j])
            # x enters the grid (a tie as other's breakpoint); a piece that
            # starts there is read as stored, one that started before is
            # Taylor-shifted to x
            x = b[j] if sign >= 0 else a[i]
            if sign <= 0:
                i += 1
                start_a = x
            if sign >= 0:
                j += 1
                start_b = x
            grid.append(x)
            mine.append(() if not 0 < i < n else pa[i - 1] if sign <= 0
                        else _taylor(pa[i - 1], x - start_a, to_float, memo))
            theirs.append(() if not 0 < j < m else pb[j - 1] if sign >= 0
                          else _taylor(pb[j - 1], x - start_b, to_float, memo))
        return grid, mine[:-1], theirs[:-1]

    def __add__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        if not self.breakpoints or not other.breakpoints:
            return self if self.breakpoints else other
        grid, mine, theirs = self._aligned(other)
        return _trimmed(grid, [tuple(K.poly_add(list(a), list(b)))
                               for a, b in zip(mine, theirs)])

    def __mul__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        """Pointwise product, on the overlap of the supports: operands with
        equal breakpoint tuples multiply their stored pieces, others go
        through the overlap walk (`_overlap`)."""
        if self.breakpoints == other.breakpoints:
            return _trimmed(self.breakpoints, [
                tuple(K.poly_mul(list(a), list(b))) if a and b else ()
                for a, b in zip(self.pieces, other.pieces)])
        memo, lefts, rights = {}, [], []
        grid, live = _overlap(self, _enclosed(self, memo), other,
                              _enclosed(other, memo), None, None, memo,
                              lefts, rights)
        return _placed(grid, live, map(K.poly_mul, map(list, lefts),
                                       map(list, rights)))

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


def _placed(grid: list, live: list, products) -> PiecewisePoly:
    """PiecewisePoly on an overlap walk's `grid`: each interval that `live`
    marks takes the next of `products`, in order, and any other the empty
    piece; zero end pieces are cut off (`_trimmed`)."""
    return _trimmed(grid, [tuple(next(products)) if ok else ()
                           for ok in live])


def _piecewise(breakpoints: tuple, pieces: tuple) -> PiecewisePoly:
    """PiecewisePoly from a breakpoint tuple and a matching tuple of complex
    coefficient tuples, skipping `__post_init__`."""
    poly = object.__new__(PiecewisePoly)
    object.__setattr__(poly, "breakpoints", breakpoints)
    object.__setattr__(poly, "pieces", pieces)
    return poly
