"""Coefficient functions for convolution algebra elements.

TrigPoly: finite Fourier sums on R/Z, modes k ↦ c_k; rotation by t multiplies
c_k by e^{2πikt}, so rational and α-rotations act exactly on the mode index
structure (numerically on the values).

PiecewisePoly: compactly supported piecewise polynomials on R with exact
Q+Qα breakpoints.  Piece coefficients are stored in local coordinates
u = x − (left breakpoint), which makes translation exact in both breakpoints
and coefficients.  A sum, product or distance aligns its two operands with
one ordered walk through both breakpoint tuples (`PiecewisePoly._aligned`),
O(n + m) steps and no sort.  The walk orders two breakpoints by exact
equality, else by the witness's binary64 enclosures, else by certified
`compare` (`AlphaWitness.order`), and Taylor-shifts a piece to a grid point
by the witness's float of the exact offset.  A product asks for local
coefficients only where both factors are live.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from typing import Sequence

from . import _kernels as K
from .errors import QuasifoldError
from .exact import QAlpha, _as_qalpha, default_witness

__all__ = ["TrigPoly", "PiecewisePoly"]


@dataclass(frozen=True)
class TrigPoly:
    """Finite complex Fourier sum Σ c_k e^{2πikx}; zero coefficients pruned."""

    modes: tuple = ()  # sorted ((k, complex), ...)

    def __post_init__(self):
        modes = {k if k.__class__ is int else _mode_index(k): complex(c)
                 for k, c in self.modes}
        if len(modes) != len(self.modes):
            raise QuasifoldError("TrigPoly mode indices must be distinct")
        cleaned = tuple(sorted((k, c) for k, c in modes.items() if c != 0))
        _require_finite((c for _, c in cleaned), "TrigPoly")
        object.__setattr__(self, "modes", cleaned)

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
        return not self.modes

    @staticmethod
    def _from_dense(off, arr) -> "TrigPoly":
        return _trig(tuple((off + i, c) for i, c in enumerate(arr) if c != 0))

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        d = dict(self.modes)
        for k, c in other.modes:
            d[k] = d.get(k, 0j) + c
        return _trig(tuple(sorted((k, c) for k, c in d.items() if c != 0)))

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        if self.is_zero or other.is_zero:
            return TrigPoly()
        oa, (a,) = dense_rows((self,))
        ob, (b,) = dense_rows((other,))
        off, arr = K.trig_mul(oa, a, ob, b)
        return TrigPoly._from_dense(off, arr)

    def scale(self, s) -> "TrigPoly":
        s = complex(s)
        products = ((k, c * s) for k, c in self.modes)
        modes = tuple(m for m in products if m[1] != 0)
        _require_finite((c for _, c in modes), "TrigPoly")
        return _trig(modes)

    def conjugate(self) -> "TrigPoly":
        """Pointwise complex conjugate: c_k ↦ conj(c_{−k})."""
        return _trig(tuple((-k, c.conjugate())
                           for k, c in reversed(self.modes)))

    def rotate(self, t: float) -> "TrigPoly":
        """Precompose with rotation: x ↦ x + t (c_k picks up e^{2πikt})."""
        off, (arr,) = dense_rows((self,))
        return TrigPoly._from_dense(off, K.trig_rotate(off, arr, float(t)))

    def eval(self, x: float) -> complex:
        off, (arr,) = dense_rows((self,))
        return K.trig_eval(off, arr, float(x))

    def sup_bound(self) -> float:
        return sum(abs(c) for _, c in self.modes)

    def distance(self, other: "TrigPoly") -> float:
        _, (a, b) = dense_rows((self, other))
        return max((abs(x - y) for x, y in zip(a, b)), default=0.0)

    def allclose(self, other: "TrigPoly", tol: float) -> bool:
        return self.distance(other) <= tol

    def degree(self) -> int:
        return max((abs(k) for k, _ in self.modes), default=0)

    def to_json(self):
        return {"kind": "trig",
                "modes": {str(k): [c.real, c.imag] for k, c in self.modes}}

    @staticmethod
    def from_json(obj) -> "TrigPoly":
        return TrigPoly(tuple((k, complex(re, im))
                              for k, (re, im) in obj["modes"].items()))


def _mode_index(k) -> int:
    """k as an int: an integer, or the decimal string of one (JSON keys)."""
    try:
        return int(k) if isinstance(k, str) else operator.index(k)
    except (TypeError, ValueError):
        raise QuasifoldError(f"TrigPoly mode index {k!r} is not an integer") from None


def dense_rows(polys) -> tuple:
    """(first mode, rows): each TrigPoly's coefficients on one common mode
    range, missing modes filled with 0j (empty rows if all polys are 0)."""
    lo = hi = None
    for p in polys:
        if p.modes:
            first, last = p.modes[0][0], p.modes[-1][0]
            lo = first if lo is None else min(lo, first)
            hi = last if hi is None else max(hi, last)
    if lo is None:
        return 0, [[] for _ in polys]
    rows = []
    for p in polys:
        row = [0j] * (hi - lo + 1)
        for k, c in p.modes:
            row[k - lo] = c
        rows.append(row)
    return lo, rows


def _require_finite(coefficients, kind: str):
    if not all(map(cmath.isfinite, coefficients)):
        raise QuasifoldError(f"{kind} coefficients must be finite")


def _trig(modes: tuple) -> TrigPoly:
    """TrigPoly from modes already in normal form (sorted int indices,
    nonzero complex values), skipping `__post_init__`."""
    poly = object.__new__(TrigPoly)
    object.__setattr__(poly, "modes", modes)
    return poly


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
    def _aligned(self, other: "PiecewisePoly", overlap: bool = False):
        """(grid, mine, theirs): both operands' breakpoints in order, and
        each one's local coefficients per grid interval (() off its support;
        with `overlap`, () for both wherever either is off its support).

        The walk orders its two heads with the witness's three-stage
        `order`: an exactly equal pair enters the grid once (as self's
        breakpoint); binary64 enclosures, computed once per breakpoint per
        call, decide a separated pair; only an undecided pair reaches
        certified `compare`, which raises PrecisionInsufficientError on a
        near-tie."""
        w = default_witness()
        a, b = self.breakpoints, other.breakpoints
        enclose, order = w.enclose, w.order
        ea = [enclose(x) for x in a]
        eb = [enclose(x) for x in b]
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
            if sign <= 0:
                x = a[i]
                i += 1
                if sign == 0:
                    j += 1
            else:
                x = b[j]
                j += 1
            grid.append(x)
            if overlap and not (0 < i < n and 0 < j < m):
                mine.append(())
                theirs.append(())
            else:
                mine.append(self._local(i, x, w))
                theirs.append(other._local(j, x, w))
        return grid, mine[:-1], theirs[:-1]

    def _local(self, i: int, x: QAlpha, w) -> tuple:
        """Coefficients at grid point x, past i of self's breakpoints: piece
        i − 1 Taylor-shifted to start at x, or () outside the support."""
        if not 0 < i < len(self.breakpoints):
            return ()
        base, coeffs = self.breakpoints[i - 1], self.pieces[i - 1]
        if x == base:
            return coeffs
        return tuple(K.poly_shift(list(coeffs), w.to_float(x - base)))

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

    def distance(self, other: "PiecewisePoly") -> float:
        """Max coefficient difference on the merged grid (bounds nothing by
        itself, but is exactly the right notion for route comparisons)."""
        _, mine, theirs = self._aligned(other)
        worst = 0.0
        for a, b in zip(mine, theirs):
            arr = K.poly_add(list(a), K.poly_scale(list(b), -1.0))
            worst = max(worst, max((abs(c) for c in arr), default=0.0))
        return worst

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
